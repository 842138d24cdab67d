import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_TOKEN_UNESCAPES = {"\\\\": "\\", "\\n": "\n", "\\t": "\t"}


def parse_token_lines(text):
    """Tokens of a golden ``.tokens`` file: one ``label<TAB>escaped text`` per line."""
    from clcp.pylex import Token, component_from_label

    out = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        label, _, raw = line.partition("\t")
        tok_text = re.sub(r"\\[\\nt]", lambda m: _TOKEN_UNESCAPES[m.group()], raw)
        out.append(Token(tok_text, component_from_label(label)))
    return out


@pytest.fixture(scope="session")
def golden_dir():
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def golden_sources(golden_dir):
    """Every snippet in the golden corpus, hand-tokenized and generated."""
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted(golden_dir.glob("*.py"))}


@pytest.fixture(scope="session")
def golden_token_pairs(golden_dir):
    """The hand-tokenized subset: (source, expected token list) pairs."""
    pairs = {}
    for tok_path in sorted(golden_dir.glob("*.tokens")):
        src = tok_path.with_suffix(".py").read_text(encoding="utf-8")
        pairs[tok_path.stem] = (src, parse_token_lines(tok_path.read_text(encoding="utf-8")))
    return pairs
