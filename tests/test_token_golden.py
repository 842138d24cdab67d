"""Front-end output of the golden corpus pinned by hash, token by token.

For each of the 210 golden sources (``tests/golden/*.py``) this pins the
sha256 of the ``clean_code`` output, of the ``lex`` tokens and of the
``classify`` tokens, plus the classified token count.  A token is hashed as
its text, component label and (start, end) offsets.  Tokens store no offsets;
the token texts tile the cleaned source, so the offsets are running sums of
the text lengths.  Any change to cleaning, token boundaries or classification
shows up here, not only a change of assigned IDs (``test_image_golden.py``).

Rewrite the golden file only for an intended change of front-end output:
``PYTHONPATH=src python tests/test_token_golden.py``.
"""
import hashlib
import json
from itertools import accumulate
from pathlib import Path

import pytest

from clcp.pylex import classify, clean_code, lex

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "token_hashes.json"
SOURCES = sorted(GOLDEN_DIR.glob("*.py"))


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _token_sha256(tokens):
    ends = accumulate(len(t.text) for t in tokens)
    return _sha256("\n".join(json.dumps([t.text, t.component.value, end - len(t.text), end])
                             for t, end in zip(tokens, ends)))


def run_source(path):
    cleaned = clean_code(path.read_text(encoding="utf-8"))
    lexed = lex(cleaned)
    classified = classify(lexed)
    return {"cleaned_sha256": _sha256(cleaned),
            "lex_sha256": _token_sha256(lexed),
            "tokens_sha256": _token_sha256(classified),
            "tokens": len(classified)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_source(golden):
    assert sorted(golden) == [p.name for p in SOURCES]


def test_tokens_match_golden(golden):
    mismatched = [p.name for p in SOURCES if run_source(p) != golden.get(p.name)]
    assert mismatched == []


if __name__ == "__main__":
    table = {p.name: run_source(p) for p in SOURCES}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
