"""Every public top-level function and class in ``src/clcp`` has a non-test caller.

A name counts as called when ``src/``, ``bench/`` or ``tools/`` mention it
(as a name or an attribute) outside its own top-level definition.  Names match
by their bare spelling, so a same-named attribute elsewhere can hide an unused
name, never flag a used one.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clcp"

# Public names whose only callers are tests today, each with the ROADMAP item
# that gives it its first non-test caller.  A name leaves this list with it.
TEST_ONLY = {
    "ingest.load_pairs": "item 12: `python -m clcp train` reads local JSONL",
    "training.load_run": "item 12: `python -m clcp eval` scores a run directory",
    "vocab.decode": "item 11: the renderer, which item 12's `eval` prints codes with",
}


def _scan():
    """(module.name -> name of each public top-level def in clcp, every name mentioned)."""
    defined, mentioned = {}, set()
    for path in sorted(p for d in ("src", "bench", "tools") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_") and path.is_relative_to(PACKAGE):
                    module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
                    defined[f"{module}.{own}"] = own
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    mentioned.add(name)
    return defined, mentioned


def test_every_public_name_has_a_non_test_caller():
    defined, mentioned = _scan()
    assert len(defined) > 50
    uncalled = sorted(q for q, name in defined.items()
                      if name not in mentioned and q not in TEST_ONLY)
    assert uncalled == []


def test_test_only_list_is_current():
    # an entry that gained a caller, or no longer exists, leaves the list
    defined, mentioned = _scan()
    stale = sorted(q for q in TEST_ONLY if q not in defined or defined[q] in mentioned)
    assert stale == []
