"""Load (code, text) pairs from JSONL and cut deterministic train/test samples.

Sampling is a seeded shuffle followed by prefix-takes, so the subsets for a
ladder of sizes are nested (the 4-sample is a prefix of the 8-sample) and two
runs with the same bytes and seed agree exactly.  Test candidates whose
normalized first sentence appears among the training docs are filtered out to
approximate an unseen-category split.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class PairRecord:
    """One (code, description) pair with a stable string key.

    An empty ``id`` becomes ``content_id(code, doc)``.
    """

    id: str
    code: str
    doc: str

    def __post_init__(self):
        if not isinstance(self.code, str) or not isinstance(self.doc, str):
            raise IngestError(f"record {self.id}: code and doc must be strings")
        if not self.id:
            object.__setattr__(self, "id", content_id(self.code, self.doc))
        if not self.code:
            raise IngestError(f"record {self.id}: empty code")
        if not self.doc.strip():
            raise IngestError(f"record {self.id}: empty doc")


@dataclass(frozen=True)
class SamplePlan:
    """Requested train/test subset sizes and the sampling seed."""

    train_sizes: tuple[int, ...]
    test_sizes: tuple[int, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "train_sizes", tuple(self.train_sizes))
        object.__setattr__(self, "test_sizes", tuple(self.test_sizes))
        for name, sizes in (("train_sizes", self.train_sizes),
                            ("test_sizes", self.test_sizes)):
            if not sizes:
                raise IngestError(f"{name} must not be empty")
            if any(s <= 0 for s in sizes):
                raise IngestError(f"{name} must be strictly positive")
            if any(a > b for a, b in zip(sizes, sizes[1:])):
                raise IngestError(f"{name} must be non-decreasing")


def content_id(code, doc):
    digest = hashlib.sha1(code.encode("utf-8") + b"\x00" + doc.encode("utf-8"))
    return "sha1:" + digest.hexdigest()[:16]


@dataclass
class LoadResult:
    records: list[PairRecord]
    skipped: int
    total_lines: int


def load_pairs(path, limit=None, code_field="code", doc_field="docstring",
               id_field=None):
    """Read JSONL pairs in file order; malformed lines are skipped and counted.

    A file that is unreadable, or more than half malformed, is treated as the
    wrong file and rejected outright.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    records = []
    skipped = 0
    total = 0
    for line in text.splitlines():
        if limit is not None and len(records) >= limit:
            break
        if not line.strip():
            continue
        total += 1
        try:
            obj = json.loads(line)
            rid = str(obj[id_field]) if id_field else ""
            records.append(PairRecord(rid, obj[code_field], obj[doc_field]))
        except (json.JSONDecodeError, KeyError, TypeError, IngestError):
            skipped += 1
    if total and skipped > total / 2:
        raise IngestError(f"{path}: {skipped}/{total} lines malformed; wrong file?")
    return LoadResult(records, skipped, total)


_SENTENCE_END = re.compile(r"[.!?\n]")


def first_sentence(doc):
    """Normalized first sentence, the key for doc-disjointness filtering."""
    head = _SENTENCE_END.split(doc.strip(), maxsplit=1)[0]
    return " ".join(head.lower().split())


@dataclass
class SplitResult:
    train_ids: list[str]   # prefix order; subsets are prefixes of this list
    test_ids: list[str]
    by_id: dict[str, PairRecord] = field(repr=False)

    def train_subset(self, size):
        if size > len(self.train_ids):
            raise IngestError(f"requested size {size} exceeds train pool "
                              f"of {len(self.train_ids)}")
        return [self.by_id[i] for i in self.train_ids[:size]]

    def test_subset(self, size):
        if size > len(self.test_ids):
            raise IngestError(f"requested size {size} exceeds test pool "
                              f"of {len(self.test_ids)}")
        return [self.by_id[i] for i in self.test_ids[:size]]


def sample_split(records, plan, zero_shot=True):
    """Cut nested train samples and disjoint test samples from one corpus.

    Pure in (records, plan): a seeded permutation orders unique records, the
    first max(train_sizes) become the train pool, and test ids are drawn from
    the remainder.  With ``zero_shot`` the test drops any record whose
    normalized first sentence occurs in the train pool docs.
    """
    unique = []
    seen = set()
    for rec in records:
        if rec.id not in seen:
            seen.add(rec.id)
            unique.append(rec)
    max_train = max(plan.train_sizes)
    max_test = max(plan.test_sizes)
    if max_train + max_test > len(unique):
        raise IngestError(
            f"train {max_train} + test {max_test} exceed corpus of {len(unique)}")
    order = np.random.default_rng(plan.seed).permutation(len(unique))
    shuffled = [unique[i] for i in order]
    train = shuffled[:max_train]
    train_sentences = {first_sentence(r.doc) for r in train} if zero_shot else set()
    test = []
    for rec in shuffled[max_train:]:
        if len(test) == max_test:
            break
        if zero_shot and first_sentence(rec.doc) in train_sentences:
            continue
        test.append(rec)
    if len(test) < max_test:
        raise IngestError(
            f"requested size {max_test} exceeds eligible test pool of {len(test)} "
            f"(zero-shot filter={zero_shot})")
    by_id = {r.id: r for r in unique}
    return SplitResult([r.id for r in train], [r.id for r in test], by_id)
