"""Vocabulary: range conformance, determinism, namespace reuse, round-trip."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clcp.pylex import Component, Token, tokenize
from clcp.vocab import (
    DEFAULT_RANGE_TABLE,
    IdRanges,
    NamespaceScope,
    RangeExhausted,
    DecodeError,
    VocabError,
    assign_ids,
    build_vocab,
    decode,
    load_vocab,
    save_vocab,
    vocab_from_text,
    vocab_to_text,
)


@pytest.fixture(scope="module")
def ranges():
    return IdRanges()


@pytest.fixture(scope="module")
def empty_vocab():
    return build_vocab([])


class TestIdRanges:
    def test_defaults_match_component_table(self, ranges):
        lohi = {c: (lo, hi) for c, lo, hi in DEFAULT_RANGE_TABLE}
        assert lohi[Component.KEYWORD] == (1, 35)
        assert lohi[Component.VARIABLE] == (7961, 9999)
        assert lohi[Component.NUMBER] == (11555, 13811)
        assert ranges.max_id == 13811

    def test_symbol_pool_shares_operator_range(self, ranges):
        for comp in (Component.SYMBOL, Component.WHITESPACE, Component.NEWLINE,
                     Component.PLACEHOLDER):
            assert ranges.range_for(comp) == (11510, 11554)

    def test_component_of_boundaries(self, ranges):
        assert ranges.component_of(1) is Component.KEYWORD
        assert ranges.component_of(35) is Component.KEYWORD
        assert ranges.component_of(36) is Component.BUILTIN_CLASS
        assert ranges.component_of(13811) is Component.NUMBER
        with pytest.raises(DecodeError):
            ranges.component_of(14000)

    def test_overlapping_ranges_rejected(self):
        table = ((Component.KEYWORD, 1, 40), (Component.BUILTIN_CLASS, 36, 54))
        with pytest.raises(Exception):
            IdRanges(table)


class TestBuildVocab:
    def test_keywords_take_1_to_35(self, empty_vocab):
        ids = sorted(empty_vocab.fixed[Component.KEYWORD].values())
        assert ids == list(range(1, 36))

    def test_empty_corpus_has_only_builtin_maps(self, empty_vocab):
        assert empty_vocab.fixed[Component.NUMBER] == {}
        assert all(not empty_vocab.fixed[c]
                   for c in (Component.METHOD_CALL, Component.ATTRIBUTE_CALL))
        classes = empty_vocab.fixed[Component.BUILTIN_CLASS]
        assert sorted(classes.values()) == list(range(36, 36 + len(classes)))
        assert max(classes.values()) <= 54

    def test_strip_abstraction_shares_one_id(self):
        a = tokenize("def fa(a_param):\n    return a_param.strip()\n")
        b = tokenize("def fb(address):\n    return address.strip()\n")
        vocab = build_vocab([a, b])
        strip_id = vocab.fixed[Component.ATTRIBUTE_CALL]["strip"]
        lo, hi = vocab.ranges.range_for(Component.ATTRIBUTE_CALL)
        assert lo <= strip_id <= hi
        assert vocab.lookup_lists[strip_id] == ("a_param.strip", "address.strip")

    def test_number_ids_by_frequency_then_lexicographic(self):
        a = tokenize("x = 7\ny = 7\nz = 3\nw = 5\n")
        vocab = build_vocab([a])
        lo, _ = vocab.ranges.range_for(Component.NUMBER)
        assert vocab.fixed[Component.NUMBER]["7"] == lo        # most frequent
        assert vocab.fixed[Component.NUMBER]["3"] == lo + 1    # tie broken lexicographically
        assert vocab.fixed[Component.NUMBER]["5"] == lo + 2

    def test_deterministic_serialization(self):
        streams = [tokenize("def f(a):\n    return a.strip() + 1\n"),
                   tokenize("def g(b):\n    return b.split()\n")]
        text1 = vocab_to_text(build_vocab(streams))
        text2 = vocab_to_text(build_vocab(list(streams)))
        assert text1 == text2

    def test_permuting_corpus_changes_nothing(self):
        s1 = tokenize("x = 1\n")
        s2 = tokenize("y = a.strip()\n")
        assert vocab_to_text(build_vocab([s1, s2])) == vocab_to_text(build_vocab([s2, s1]))

    def test_serialization_round_trip(self, tmp_path):
        vocab = build_vocab([tokenize("v = q.strip() + 41\n")])
        path = tmp_path / "vocab.tsv"
        save_vocab(vocab, path)
        again = load_vocab(path)
        assert vocab_to_text(again) == vocab_to_text(vocab)

    def test_byte_identical_files(self, tmp_path):
        streams = [tokenize("def f(a):\n    return a + 1\n")]
        p1, p2 = tmp_path / "v1.tsv", tmp_path / "v2.tsv"
        save_vocab(build_vocab(streams), p1)
        save_vocab(build_vocab(streams), p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture(scope="module")
def golden_streams(golden_sources):
    return [tokenize(src) for src in golden_sources.values()]


class TestVocabFile:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_reserialises_byte_identically(self, golden_streams, data):
        picks = data.draw(st.sets(st.integers(0, len(golden_streams) - 1), max_size=12))
        vocab = build_vocab([golden_streams[i] for i in sorted(picks)])
        # whitespace and newline texts exercise the escaping
        assert "\n" in vocab.fixed[Component.NEWLINE]
        assert "\t" in vocab.fixed[Component.WHITESPACE]
        text = vocab_to_text(vocab)
        again = vocab_from_text(text)
        assert again == vocab
        assert vocab_to_text(again) == text

    @staticmethod
    def _edited(vocab, edit):
        doc = json.loads(vocab_to_text(vocab))
        edit(doc)
        return json.dumps(doc)

    def test_rejects_non_vocabulary_file(self):
        for text in ("", "word\t2\n", '{"numbers": {}}', "[1, 2]"):
            with pytest.raises(VocabError, match="not a vocabulary file"):
                vocab_from_text(text)

    def test_rejects_missing_or_mistyped_section(self, empty_vocab):
        def drop_fixed(doc):
            del doc["fixed"]

        def list_for_table(doc):
            doc["fixed"] = []

        for edit in (drop_fixed, list_for_table):
            with pytest.raises(VocabError, match="malformed vocabulary file"):
                vocab_from_text(self._edited(empty_vocab, edit))

    def test_rejects_unknown_component_label(self, empty_vocab):
        def rename(doc):
            doc["fixed"]["Keywords"] = doc["fixed"].pop("Keyword")

        with pytest.raises(ValueError, match="unknown component label 'Keywords'"):
            vocab_from_text(self._edited(empty_vocab, rename))

    def test_rejects_non_integer_id(self, empty_vocab):
        def stringify(doc):
            doc["fixed"]["Keyword"]["if"] = "5"

        with pytest.raises(VocabError, match="not an integer"):
            vocab_from_text(self._edited(empty_vocab, stringify))

    def test_rejects_missing_fixed_table(self, empty_vocab):
        def drop_whitespace(doc):
            del doc["fixed"]["Whitespace"]

        with pytest.raises(VocabError, match="no fixed table for Whitespace"):
            vocab_from_text(self._edited(empty_vocab, drop_whitespace))

    @pytest.mark.parametrize("id_,texts", [("11271", "abc"), ("11271", [1, 2]), ("5", ["x"])],
                             ids=["string", "ints", "keyword-id"])
    def test_rejects_malformed_lookup_list(self, id_, texts):
        # 11271 is the fixed AttributeCall ID of ``strip``; 5 is a Keyword ID
        vocab = build_vocab([tokenize("def fa(a_param):\n    return a_param.strip()\n")])
        assert vocab.lookup_lists == {11271: ("a_param.strip",)}

        def damage(doc):
            doc["lookup_lists"][id_] = texts

        with pytest.raises(VocabError, match=f"^lookup list of ID {id_}: "):
            vocab_from_text(self._edited(vocab, damage))

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["lookup_lists"].pop("11271"),
         "AttributeCall 'strip': ID 11271 has no lookup list"),
        (lambda doc: doc["fixed"]["Keyword"].update({"def": 11600}),
         "Keyword 'def': ID 11600 outside its range 1..35"),
        (lambda doc: doc["fixed"]["Keyword"].update({"return": 1}),
         "Keyword 'return': ID 1 already taken by Keyword 'False'"),
    ], ids=["unlisted-call-id", "id-outside-range", "id-used-twice"])
    def test_rejects_a_vocabulary_that_encodes_wrongly(self, edit, message):
        # 11600 lies in the Number range; 1 is the Keyword ID of ``False``
        vocab = build_vocab([tokenize("def fa(a_param):\n    return a_param.strip()\n")])
        with pytest.raises(VocabError, match=f"^{re.escape(message)}$"):
            vocab_from_text(self._edited(vocab, edit))


class TestAssignIds:
    def test_first_variable_gets_range_lo(self, empty_vocab):
        tokens = tokenize("x = 1\nx\n")
        scope = NamespaceScope()
        ids = assign_ids(tokens, empty_vocab, scope)
        xs = [i for i in ids if 7961 <= i <= 9999]
        assert xs == [7961, 7961]

    def test_namespace_reuse_across_snippets(self, empty_vocab):
        ids_a = assign_ids(tokenize("alpha = 1\n"), empty_vocab, NamespaceScope())
        ids_b = assign_ids(tokenize("omega = 2\n"), empty_vocab, NamespaceScope())
        assert 7961 in ids_a and 7961 in ids_b

    def test_permutation_isolation(self):
        srcs = ["a = 1\n", "b = a.strip()\n", "def f(q):\n    return q\n"]
        streams = [tokenize(s) for s in srcs]
        vocab_fwd = build_vocab(streams)
        vocab_rev = build_vocab(list(reversed(streams)))
        for s in srcs:
            fwd = assign_ids(tokenize(s), vocab_fwd, NamespaceScope())
            rev = assign_ids(tokenize(s), vocab_rev, NamespaceScope())
            assert fwd == rev

    def test_range_exhaustion_at_capacity(self, empty_vocab):
        scope = NamespaceScope()
        for i in range(2039):  # 9999 - 7961 + 1 distinct variables fit
            scope.allocate(Component.VARIABLE, f"v{i}")
        with pytest.raises(RangeExhausted, match="Variable"):
            scope.allocate(Component.VARIABLE, "one_too_many")

    def test_recycle_mode_wraps(self):
        scope = NamespaceScope(on_exhaust="recycle")
        for i in range(2039):
            scope.allocate(Component.VARIABLE, f"v{i}")
        wrapped = scope.allocate(Component.VARIABLE, "extra")
        assert wrapped == 7961
        assert scope.recycled == {Component.VARIABLE}

    def test_unknown_builtin_text_is_named(self, empty_vocab):
        tok = Token("nope", Component.KEYWORD, (0, 4))
        with pytest.raises(VocabError, match="Keyword token 'nope'"):
            assign_ids([tok], empty_vocab, NamespaceScope())

    @pytest.mark.parametrize("bad", ["zero", "past_max_id"])
    def test_id_outside_the_ranges_is_named(self, bad):
        vocab = build_vocab([])
        bad_id = 0 if bad == "zero" else vocab.max_id + 1
        vocab.fixed[Component.KEYWORD]["pass"] = bad_id
        tokens = tokenize("def f():\n    pass\n    return 1\n")
        with pytest.raises(VocabError, match=f"assigned ID {bad_id} escapes"):
            assign_ids(tokens, vocab, NamespaceScope())

    def test_whitespace_expands_per_character(self, empty_vocab):
        tokens = tokenize("def f():\n    pass\n")
        ids = assign_ids(tokens, empty_vocab, NamespaceScope())
        n_ws_ids = sum(1 for t in tokens if t.component is Component.WHITESPACE
                       for _ in t.text)
        assert len(ids) == sum(1 for t in tokens) - \
            sum(1 for t in tokens if t.component is Component.WHITESPACE) + n_ws_ids

    def test_all_ids_in_component_ranges(self, empty_vocab, golden_sources):
        ranges = empty_vocab.ranges
        streams = {n: tokenize(src) for n, src in golden_sources.items()}
        vocab = build_vocab(streams.values())
        for name, tokens in streams.items():
            scope = NamespaceScope()
            for tok in tokens:
                ids = assign_ids([tok], vocab, scope)
                lo, hi = ranges.range_for(tok.component)
                for id_ in ids:
                    assert lo <= id_ <= hi, (name, tok, id_)


class TestDecode:
    def _encode(self, src, streams=()):
        tokens = tokenize(src)
        vocab = build_vocab([tokens, *streams])
        scope = NamespaceScope()
        return tokens, vocab, scope, assign_ids(tokens, vocab, scope)

    def test_pad_marker(self, empty_vocab):
        out = decode([0], empty_vocab, NamespaceScope())
        assert out[0].kind == "pad"
        assert out[0].text == "<PAD>"

    def test_out_of_range_id(self, empty_vocab):
        with pytest.raises(DecodeError):
            decode([14000], empty_vocab, NamespaceScope())

    def test_round_trip_recovers_texts(self, golden_sources):
        streams = {n: tokenize(src) for n, src in golden_sources.items()}
        vocab = build_vocab(streams.values())
        for name, tokens in streams.items():
            scope = NamespaceScope()
            ids = assign_ids(tokens, vocab, scope)
            decoded = decode(ids, vocab, scope)
            expanded = []
            for tok in tokens:
                if tok.component is Component.WHITESPACE:
                    expanded.extend((ch, tok.component) for ch in tok.text)
                elif tok.component is Component.PLACEHOLDER:
                    expanded.append(("STR", tok.component))
                else:
                    expanded.append((tok.text, tok.component))
            assert len(decoded) == len(expanded), name
            for (text, comp), d in zip(expanded, decoded):
                assert text in d.texts, (name, text, d)

    def test_call_composites_recover_through_lookup_lists(self):
        tokens, vocab, scope, ids = self._encode(
            "def t(a_param):\n    return a_param.strip()\n",
            streams=[tokenize("address.strip()\n")])
        decoded = decode(ids, vocab, scope)
        amb = [d for d in decoded if d.kind == "ambiguous"]
        assert amb and "a_param.strip" in amb[0].texts and "address.strip" in amb[0].texts


_ENCODE_SYNTH = """
import hashlib
from clcp.himg import encode_streams
from clcp.pylex import tokenize
from clcp.synth import generate_pairs
from clcp.vocab import build_vocab, vocab_to_text

codes = [r.code for r in generate_pairs(256, seed=7)]
# one member called on several receivers: its lookup list holds several texts
codes += [f"def call_{member}_{recv}({recv}):\\n    return {recv}.{member}()\\n"
          for recv in ("rows", "cache", "store", "queue", "items")
          for member in ("push", "merge", "scan")]
streams = [tokenize(code) for code in codes]
vocab = build_vocab(streams[::2])
matrix, _, _ = encode_streams(streams, vocab, 64, on_exhaust="recycle")
print(hashlib.sha256(vocab_to_text(vocab).encode()).hexdigest(),
      hashlib.sha256(matrix.tobytes()).hexdigest())
"""


def test_ids_do_not_depend_on_the_hash_seed():
    """Vocabulary file and ID matrix are byte-identical under two PYTHONHASHSEEDs.

    Components hash by identity and strings by a seeded hash, so any output
    that followed set or hash order would differ between these processes.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", _ENCODE_SYNTH], env=env,
                             capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1
