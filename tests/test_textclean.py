"""Description cleaning: rule behavior, idempotence, attribution."""
import pytest

from clcp.ingest import PairRecord
from clcp.textclean import clean_corpus, clean_doc

URL_DOC = ('The algorithm used is based on streamlib\'s implementation of '
           '"HyperLogLog in Practice: Algorithmic Engineering of a State of the Art '
           'Cardinality Estimation Algorithm", available here '
           '<https://doi.org/10.1145/2452376.2452456>')

DOCTEST_DOC = ("Return the union of this RDD and another one. "
               "&amp;gt;&amp;gt;&amp;gt; rdd = sc.parallelize([1, 1, 2, 3])\n"
               "&amp;gt;&amp;gt;&amp;gt; rdd.union(rdd).collect()\n"
               "[1, 1, 2, 3, 1, 1, 2, 3]")

LISTING_DOC = ("Loads images from a folder.\n"
               "Structure:\n"
               "    train_dir.\n"
               "        person1\n"
               "            somename1.jpeg\n"
               "            somename2.jpeg\n")

PARAMS_DOC = ("Parameters\n"
              "----------\n"
              "i : int, slice, or sequence of integers\n"
              "axis : int")


class TestRules:
    def test_url_span_removed(self):
        cleaned, report = clean_doc(URL_DOC)
        assert "https" not in cleaned and "<" not in cleaned
        assert "available here" in cleaned
        assert report.rules_fired.get("strip_urls") == 1

    def test_doctest_block_removed(self):
        cleaned, report = clean_doc(DOCTEST_DOC)
        assert cleaned == "Return the union of this RDD and another one."
        assert report.rules_fired.get("strip_doctests", 0) >= 1

    def test_directory_listing_removed(self):
        cleaned, report = clean_doc(LISTING_DOC)
        assert "jpeg" not in cleaned and "train_dir" not in cleaned
        assert cleaned.startswith("Loads images from a folder.")
        assert report.rules_fired.get("strip_directory_listings") == 1

    def test_parameter_table_dropped_record(self):
        cleaned, report = clean_doc(PARAMS_DOC)
        assert report.dropped
        assert report.rules_fired.get("strip_parameter_tables") == 1

    def test_parameter_table_ends_at_prose(self):
        cleaned, report = clean_doc("Scale the input.\nParameters\n----------\n"
                                    "x : float\n    the input\n\n"
                                    "The result is never negative.")
        assert cleaned == "Scale the input. The result is never negative."
        assert report.rules_fired.get("strip_parameter_tables") == 1

    def test_parameter_table_runs_on_through_a_second_section(self):
        # a second underlined header and its entries go with the first table
        cleaned, report = clean_doc("Scale the input.\nParameters\n----------\n"
                                    "x : float\nRaises\n------\nValueError : if x < 0\n"
                                    "Works on every float.")
        assert cleaned == "Scale the input. Works on every float."
        assert report.rules_fired.get("strip_parameter_tables") == 1

    def test_identity_case(self):
        cleaned, report = clean_doc("no redundancy here")
        assert cleaned == "no redundancy here"
        assert report.rules_fired == {}
        assert not report.dropped

    def test_entities_decoded_before_matching(self):
        cleaned, _ = clean_doc("Says hi. &gt;&gt;&gt; hi()\nhi!")
        assert cleaned == "Says hi."


class TestInvariants:
    DOCS = [URL_DOC, DOCTEST_DOC, LISTING_DOC, PARAMS_DOC, "plain text stays",
            "multi  spaced   text\n\nwith blank lines",
            "see <https://example.com/x> and https://example.com/y too",
            "&amp;amp;gt; deeply escaped", "x" * 400]

    def test_idempotent(self):
        for doc in self.DOCS:
            once, _ = clean_doc(doc)
            twice, _ = clean_doc(once) if once else ("", None)
            assert twice == once, doc[:40]

    def test_monotone_length(self):
        for doc in self.DOCS:
            cleaned, report = clean_doc(doc)
            assert len(cleaned) <= len(doc)
            assert report.after_len <= report.before_len

    def test_attribution_accounts_for_every_removed_char(self):
        for doc in self.DOCS:
            cleaned, report = clean_doc(doc)
            removed = sum(report.removed_chars.values())
            assert report.before_len - report.after_len == removed, doc[:40]


class TestCleanCorpus:
    def _records(self):
        return [
            PairRecord("a", "x = 1", "keeps all of these words"),
            PairRecord("b", "y = 2", PARAMS_DOC),
            PairRecord("c", "z = 3", DOCTEST_DOC),
        ]

    def test_dropped_records_excluded(self):
        cleaned, agg = clean_corpus(self._records())
        assert [r.id for r in cleaned] == ["a", "c"]
        assert agg["dropped"] == 1 and agg["kept"] == 2 and agg["total"] == 3

    def test_zero_hit_corpus_identity(self):
        records = [PairRecord("a", "x = 1", "three plain words"),
                   PairRecord("b", "y = 2", "more plain words here")]
        cleaned, agg = clean_corpus(records)
        assert [(r.id, r.doc) for r in cleaned] == [(r.id, r.doc) for r in records]
        assert agg["dropped"] == 0

    def test_aggregate_counts_rules(self):
        _, agg = clean_corpus(self._records())
        assert agg["rules_fired"]["strip_parameter_tables"] == 1
        assert agg["rules_fired"]["strip_doctests"] >= 1
