"""Heterogeneous-image IDs of the golden corpus pinned by hash.

Tokenises the 210 golden sources (``tests/golden/*.py``, sorted), builds a
vocabulary and encodes them with ``on_exhaust="recycle"``.  Each case pins the
sha256 of the ``encode_streams`` ID matrix, the truncation count and the
summed true lengths:

- ``all-2048``: vocabulary from every source, image_len 2048;
- ``even-odd-2048``: vocabulary from the even-indexed sources, encoding the
  odd-indexed ones, so unseen numbers and calls take scope-local tail IDs;
- ``all-64``: every source at image_len 64, so long snippets are truncated.

Any change to range tables, fixed-ID order, corpus-frequency keys or scope
allocation shows up here.  Rewrite the golden file only for an intended
change of assigned IDs: ``PYTHONPATH=src python tests/test_image_golden.py``.
"""
import hashlib
import json
from pathlib import Path

import pytest

from clcp.himg import encode_streams
from clcp.pylex import tokenize
from clcp.vocab import build_vocab

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "image_ids.json"
CASES = ("all-2048", "even-odd-2048", "all-64")


def run_case(case):
    streams = [tokenize(p.read_text(encoding="utf-8"))
               for p in sorted(GOLDEN_DIR.glob("*.py"))]
    if case == "even-odd-2048":
        vocab_streams, encoded, image_len = streams[0::2], streams[1::2], 2048
    else:
        vocab_streams = encoded = streams
        image_len = 2048 if case == "all-2048" else 64
    matrix, true_lens, truncated = encode_streams(
        encoded, build_vocab(vocab_streams), image_len, on_exhaust="recycle")
    return {"ids_sha256": hashlib.sha256(matrix.tobytes()).hexdigest(),
            "truncated": int(truncated),
            "true_len_sum": int(true_lens.sum())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_image_ids_match_golden(golden, case):
    assert run_case(case) == golden[case]


if __name__ == "__main__":
    table = {case: run_case(case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
