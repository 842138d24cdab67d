"""Pair loading and deterministic sampling."""
import json

import pytest

from clcp.ingest import (
    IngestError,
    PairRecord,
    SamplePlan,
    first_sentence,
    load_pairs,
    sample_split,
)


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def make_records(n, prefix="r"):
    return [PairRecord(f"{prefix}{i}", f"def f{i}():\n    return {i}\n",
                       f"does thing number {i} nicely") for i in range(n)]


class TestLoadPairs:
    def test_three_valid_lines(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_jsonl(path, [{"code": f"x = {i}", "docstring": f"sets x to {i}"}
                           for i in range(3)])
        result = load_pairs(path)
        assert len(result.records) == 3 and result.skipped == 0

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(
            json.dumps({"code": "a = 1", "docstring": "sets a"}) + "\n"
            + "{not json}\n"
            + json.dumps({"code": "b = 2", "docstring": "sets b"}) + "\n",
            encoding="utf-8")
        result = load_pairs(path)
        assert len(result.records) == 2 and result.skipped == 1

    def test_non_string_fields_skipped_and_counted(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        rows = [{"code": f"x = {i}", "docstring": f"sets x to {i}"} for i in range(4)]
        rows += [{"code": 7, "docstring": "numeric code"},
                 {"code": "y = 1", "docstring": 5}]
        write_jsonl(path, rows)
        result = load_pairs(path)
        assert len(result.records) == 4 and result.skipped == 2

    def test_mostly_malformed_is_fatal(self, tmp_path):
        path = tmp_path / "wrong.jsonl"
        path.write_text("junk\nmore junk\n" + json.dumps(
            {"code": "a = 1", "docstring": "sets a"}) + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match="malformed"):
            load_pairs(path)

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(IngestError):
            load_pairs(tmp_path / "missing.jsonl")

    def test_limit_and_field_names(self, tmp_path):
        path = tmp_path / "alt.jsonl"
        write_jsonl(path, [{"src": f"x = {i}", "text": f"doc {i} here"}
                           for i in range(5)])
        result = load_pairs(path, limit=2, code_field="src", doc_field="text")
        assert len(result.records) == 2

    def test_limit_stops_before_the_next_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        good = [json.dumps({"code": f"x = {i}", "docstring": f"doc {i}"}) for i in range(4)]
        path.write_text("\n".join([good[0], "{not json}", good[1], "", good[2], good[3]])
                        + "\n", encoding="utf-8")
        counts = {limit: (len(r.records), r.skipped, r.total_lines)
                  for limit in (0, 1, 2, 4, 9) for r in [load_pairs(path, limit=limit)]}
        assert counts == {0: (0, 0, 0), 1: (1, 0, 1), 2: (2, 1, 3),
                          4: (4, 1, 5), 9: (4, 1, 5)}

    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "ordered.jsonl"
        write_jsonl(path, [{"code": f"x = {i}", "docstring": f"doc num {i}"}
                           for i in range(4)])
        codes = [r.code for r in load_pairs(path).records]
        assert codes == [f"x = {i}" for i in range(4)]


class TestSamplePlan:
    def test_rejects_decreasing_sizes(self):
        with pytest.raises(IngestError):
            SamplePlan((8, 4), (2,), seed=0)

    def test_rejects_nonpositive(self):
        with pytest.raises(IngestError):
            SamplePlan((0,), (1,), seed=0)


class TestSampleSplit:
    def test_prefix_consistency(self):
        records = make_records(10)
        plan = SamplePlan((4, 8), (2,), seed=7)
        split = sample_split(records, plan, zero_shot=False)
        small = [r.id for r in split.train_subset(4)]
        large = [r.id for r in split.train_subset(8)]
        assert large[:4] == small

    def test_deterministic(self):
        records = make_records(20)
        plan = SamplePlan((5, 10), (3,), seed=11)
        s1 = sample_split(records, plan, zero_shot=False)
        s2 = sample_split(list(records), plan, zero_shot=False)
        assert s1.train_ids == s2.train_ids and s1.test_ids == s2.test_ids

    def test_disjoint_train_test(self):
        records = make_records(30)
        plan = SamplePlan((10,), (5,), seed=3)
        split = sample_split(records, plan, zero_shot=False)
        assert not set(split.train_ids) & set(split.test_ids)

    def test_oversized_request_names_size(self):
        records = make_records(10)
        with pytest.raises(IngestError, match="11"):
            sample_split(records, SamplePlan((11,), (2,), seed=0), zero_shot=False)
        with pytest.raises(IngestError, match="test 11"):
            sample_split(records, SamplePlan((2,), (11,), seed=0), zero_shot=False)

    def test_zero_shot_filters_shared_first_sentences(self):
        shared = [PairRecord(f"s{i}", f"a = {i}", "shared sentence here. more text")
                  for i in range(8)]
        fresh = [PairRecord(f"f{i}", f"b = {i}", f"unique opening line {i}. tail")
                 for i in range(8)]
        plan = SamplePlan((6,), (2,), seed=5)
        split = sample_split(shared + fresh, plan, zero_shot=True)
        train_sentences = {first_sentence(split.by_id[i].doc) for i in split.train_ids}
        for tid in split.test_ids:
            assert first_sentence(split.by_id[tid].doc) not in train_sentences

    def test_first_sentence_normalization(self):
        assert first_sentence("Return  the union. &gt;&gt;&gt;") == "return the union"
