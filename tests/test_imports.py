"""The only runtime dependency of clcp is numpy."""
import ast
import sys
from pathlib import Path

import clcp

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "clcp"}


def _imported_packages(path):
    """Top-level package of every absolute import in ``path``, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_are_stdlib_numpy_or_clcp():
    src = Path(clcp.__file__).parent
    paths = sorted(src.rglob("*.py"))
    assert len(paths) > 10
    outside = sorted(f"{path.relative_to(src)}: {name}" for path in paths
                     for name in _imported_packages(path) if name not in ALLOWED)
    assert outside == []
