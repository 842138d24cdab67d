"""Vocabulary: range conformance, determinism, namespace reuse, round-trip."""
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vocab_oracle
from clcp.himg import encode_streams
from clcp.pylex import Component, Token, component_from_label, load_default_tables, tokenize
from clcp.synth import generate_pairs
from clcp.vocab import (
    DEFAULT_RANGE_TABLE,
    SYMBOL_POOL,
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


def _table(vocab, component):
    """``component``'s key -> ID view of the vocabulary's one fixed table."""
    return {key: id_ for (key, c), id_ in vocab.fixed.items() if c is component}


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
            assert ranges.bounds(comp) == ranges.bounds(Component.OPERATOR) == (
                11510, 11555, 11554)

    def test_builtin_ranges_are_all_fixed_and_user_scoped_all_scoped(self, ranges):
        # a corpus-keyed range's split is its fallback tail, see TestVocabFile
        assert ranges.bounds(Component.KEYWORD) == (1, 36, 35)
        assert ranges.bounds(Component.VARIABLE) == (7961, 7961, 9999)

    def test_bounds_of_a_component_with_no_range(self):
        with pytest.raises(VocabError, match="^no ID range for component Number$"):
            IdRanges(((Component.KEYWORD, 1, 35),)).bounds(Component.NUMBER)

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
        ids = sorted(_table(empty_vocab, Component.KEYWORD).values())
        assert ids == list(range(1, 36))

    def test_empty_corpus_has_only_builtin_maps(self, empty_vocab):
        assert _table(empty_vocab, Component.NUMBER) == {}
        assert all(not _table(empty_vocab, c)
                   for c in (Component.METHOD_CALL, Component.ATTRIBUTE_CALL))
        classes = _table(empty_vocab, Component.BUILTIN_CLASS)
        assert sorted(classes.values()) == list(range(36, 36 + len(classes)))
        assert max(classes.values()) <= 54

    def test_strip_abstraction_shares_one_id(self):
        a = tokenize("def fa(a_param):\n    return a_param.strip()\n")
        b = tokenize("def fb(address):\n    return address.strip()\n")
        vocab = build_vocab([a, b])
        strip_id = vocab.fixed["strip", Component.ATTRIBUTE_CALL]
        lo, split, _ = vocab.ranges.bounds(Component.ATTRIBUTE_CALL)
        assert lo <= strip_id < split
        assert vocab.lookup_lists[strip_id] == ("a_param.strip", "address.strip")

    def test_number_ids_by_frequency_then_lexicographic(self):
        a = tokenize("x = 7\ny = 7\nz = 3\nw = 5\n")
        vocab = build_vocab([a])
        lo, _, _ = vocab.ranges.bounds(Component.NUMBER)
        assert vocab.fixed["7", Component.NUMBER] == lo        # most frequent
        assert vocab.fixed["3", Component.NUMBER] == lo + 1    # tie broken lexicographically
        assert vocab.fixed["5", Component.NUMBER] == lo + 2

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
        assert ("\n", Component.NEWLINE) in vocab.fixed
        assert ("\t", Component.WHITESPACE) in vocab.fixed
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

    def test_rejects_a_table_for_a_user_scoped_component(self, empty_vocab):
        # a scope allocates Variable IDs; a fixed entry for ``a`` would be found
        # first, and 7961 would decode as ``a`` instead of ``v0``
        def add_variable(doc):
            doc["fixed"]["Variable"] = {"a": 7961}

        message = "vocabulary file has a fixed table for user-scoped Variable"
        with pytest.raises(VocabError, match=f"^{message}$"):
            vocab_from_text(self._edited(empty_vocab, add_variable))

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
         "Keyword 'def': ID 11600 outside its fixed range 1..35"),
        (lambda doc: doc["fixed"]["Keyword"].update({"return": 1}),
         "Keyword 'return': ID 1 already taken by Keyword 'False'"),
    ], ids=["unlisted-call-id", "id-outside-range", "id-used-twice"])
    def test_rejects_a_vocabulary_that_encodes_wrongly(self, edit, message):
        # 11600 lies in the Number range; 1 is the Keyword ID of ``False``
        vocab = build_vocab([tokenize("def fa(a_param):\n    return a_param.strip()\n")])
        with pytest.raises(VocabError, match=f"^{re.escape(message)}$"):
            vocab_from_text(self._edited(vocab, edit))

    @pytest.mark.parametrize("label,key,message", [
        ("AttributeCall", "b.strip", "a call key is a member name, without '.'"),
        ("MethodCall", "b.push", "a call key is a member name, without '.'"),
        ("Whitespace", "  ", "a whitespace key is one character"),
    ], ids=["dotted-attribute-call", "dotted-method-call", "whitespace-run"])
    def test_rejects_a_key_no_token_has(self, label, key, message):
        # calls are looked up by member name, and a whitespace run expands per
        # character, so such a key would hold an ID nothing is assigned
        vocab = build_vocab([tokenize("def push(a):\n    return a.strip() + 7\nb.push()\n")])

        def rekey(doc):
            table = doc["fixed"][label]
            table[key] = table.pop(next(iter(table)))

        entry = f"{label} {key!r}"
        with pytest.raises(VocabError, match=f"^{re.escape(f'{entry}: {message}')}$"):
            vocab_from_text(self._edited(vocab, rekey))

    @pytest.mark.parametrize("label,key,tail_start", [
        ("Number", "7", 13529), ("MethodCall", "push", 6829), ("AttributeCall", "strip", 11480),
    ])
    def test_rejects_a_corpus_keyed_id_in_the_fallback_tail(self, label, key, tail_start):
        # a scope allocates unseen keys from the tail, so a fixed ID there would
        # give an unseen key the same ID (``7`` and ``9`` both 13529)
        vocab = build_vocab([tokenize("def push(a):\n    return a.strip() + 7\nb.push()\n")])
        component = component_from_label(label)
        lo, split, _ = vocab.ranges.bounds(component)
        assert split == tail_start

        def move(id_):
            def edit(doc):
                old = doc["fixed"][label][key]
                doc["fixed"][label][key] = id_
                if str(old) in doc["lookup_lists"]:   # a call's list moves with its ID
                    doc["lookup_lists"][str(id_)] = doc["lookup_lists"].pop(str(old))
            return self._edited(vocab, edit)

        assert vocab_from_text(move(tail_start - 1)).fixed[key, component] == tail_start - 1
        message = (f"{label} {key!r}: ID {tail_start} outside its fixed range "
                   f"{lo}..{tail_start - 1}")
        with pytest.raises(VocabError, match=f"^{re.escape(message)}$"):
            vocab_from_text(move(tail_start))


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

    def test_unknown_exhaust_mode_is_named(self):
        with pytest.raises(ValueError,
                           match="^on_exhaust must be 'error' or 'recycle', got 'wrap'$"):
            NamespaceScope(on_exhaust="wrap")

    def test_recycle_mode_wraps(self):
        scope = NamespaceScope(on_exhaust="recycle")
        for i in range(2039):
            scope.allocate(Component.VARIABLE, f"v{i}")
        wrapped = scope.allocate(Component.VARIABLE, "extra")
        assert wrapped == 7961
        assert scope.recycled == {Component.VARIABLE}
        assert scope.allocate(Component.VARIABLE, "second_extra") == 7962
        assert scope.allocate(Component.VARIABLE, "extra") == 7961

    def test_unknown_builtin_text_is_named(self, empty_vocab):
        tok = Token("nope", Component.KEYWORD)
        with pytest.raises(VocabError, match="Keyword token 'nope'"):
            assign_ids([tok], empty_vocab, NamespaceScope())

    @pytest.mark.parametrize("bad", ["zero", "past_max_id"])
    def test_id_outside_the_ranges_is_named(self, bad):
        vocab = build_vocab([])
        bad_id = 0 if bad == "zero" else vocab.max_id + 1
        vocab.fixed["pass", Component.KEYWORD] = bad_id
        tokens = tokenize("def f():\n    pass\n    return 1\n")
        with pytest.raises(VocabError, match=f"assigned ID {bad_id} escapes"):
            assign_ids(tokens, vocab, NamespaceScope())

    def test_an_edit_after_first_use_takes_effect(self):
        # assign_ids reads the fixed table itself, not a copy taken on first use
        vocab = build_vocab([])
        tokens = tokenize("def f():\n    pass\n")
        assert vocab.fixed["pass", Component.KEYWORD] in assign_ids(tokens, vocab,
                                                                    NamespaceScope())
        vocab.fixed["pass", Component.KEYWORD] = 0
        with pytest.raises(VocabError, match="assigned ID 0 escapes"):
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
                lo, _, hi = ranges.bounds(tok.component)
                for id_ in ids:
                    assert lo <= id_ <= hi, (name, tok, id_)


def _outcome(assign, tokens, vocab, on_exhaust):
    """(IDs, recycled components), or the error's type and message instead of IDs."""
    scope = NamespaceScope(vocab.ranges, on_exhaust=on_exhaust)
    try:
        ids = assign(tokens, vocab, scope)
    except (VocabError, RangeExhausted) as err:
        ids = type(err), str(err)
    return ids, scope.recycled


def _tok(component):
    return lambda text: Token(text, component)


_TABLES = load_default_tables()
# a vocabulary corpus of seen numbers and call members; the streams below also
# draw unseen ones, which fall into a scope's fallback tail
_SEEN = [_tok(Component.NUMBER)("7"), _tok(Component.NUMBER)("1"),
         _tok(Component.METHOD_CALL)("a.push"), _tok(Component.ATTRIBUTE_CALL)("b.strip")]
_CALL_TEXTS = st.tuples(st.sampled_from(["", "a.", "self.rows."]),
                        st.sampled_from(["push", "strip", "merge", "scan"])).map("".join)
_STREAM_TOKENS = st.one_of(
    st.sampled_from(_TABLES.keywords).map(_tok(Component.KEYWORD)),
    st.sampled_from(_TABLES.symbols).map(lambda tc: Token(tc[0], tc[1])),
    st.just(Token("STR", Component.PLACEHOLDER)),
    st.tuples(st.sampled_from(" \t"), st.integers(1, 12)).map(
        lambda ck: Token(ck[0] * ck[1], Component.WHITESPACE)),
    st.sampled_from(_TABLES.classes).map(_tok(Component.BUILTIN_CLASS)),
    st.sampled_from(_TABLES.functions).map(_tok(Component.BUILTIN_METHOD)),
    st.sampled_from(_TABLES.dotted_functions).map(_tok(Component.BUILTIN_METH_CALL)),
    st.sampled_from(_TABLES.dotted_attributes).map(_tok(Component.BUILTIN_ATTRIBUTE)),
    st.sampled_from(_TABLES.dotted_attributes).map(_tok(Component.BUILTIN_ATTR_CALL)),
    st.sampled_from(["7", "1", "9", "42", "0x1f", "3.5"]).map(_tok(Component.NUMBER)),
    _CALL_TEXTS.map(_tok(Component.METHOD_CALL)),
    _CALL_TEXTS.map(_tok(Component.ATTRIBUTE_CALL)),
    st.sampled_from(["x", "y", "rows", "print"]).map(_tok(Component.VARIABLE)),
    st.sampled_from(["f", "push", "len"]).map(_tok(Component.METHOD)),
    st.sampled_from(["Node", "int"]).map(_tok(Component.CLASS)),
)


class TestAgainstOracle:
    """``assign_ids`` against the token-at-a-time loop in ``vocab_oracle``."""

    @pytest.mark.parametrize("corpus", ["golden", "synth"])
    @pytest.mark.parametrize("on_exhaust", ["error", "recycle"])
    def test_stored_corpora_match(self, stored_corpora, corpus, on_exhaust):
        # half the corpus builds the vocabulary, so the rest reaches the tails
        streams = stored_corpora[corpus]
        vocab = build_vocab(streams[::2])
        for tokens in streams:
            want = _outcome(vocab_oracle.assign_ids, tokens, vocab, on_exhaust)
            assert _outcome(assign_ids, tokens, vocab, on_exhaust) == want

    @settings(max_examples=300, deadline=None)
    @given(tokens=st.lists(_STREAM_TOKENS, max_size=80),
           n_unseen=st.integers(0, 40),
           on_exhaust=st.sampled_from(["error", "recycle"]),
           fault=st.sampled_from([None, "unknown-text", "zero", "past-max-id"]),
           data=st.data())
    def test_generated_streams_match(self, tokens, n_unseen, on_exhaust, fault, data):
        # up to 40 distinct unseen attribute-call members: the tail holds 30
        tokens = tokens + [_tok(Component.ATTRIBUTE_CALL)(f"o.step_{i}")
                           for i in range(n_unseen)]
        vocab = build_vocab([_SEEN])
        if fault is not None:
            # an unknown keyword, or ``pass`` given an ID outside the ranges
            text = "nope" if fault == "unknown-text" else "pass"
            tokens.append(_tok(Component.KEYWORD)(text))
            if fault != "unknown-text":
                vocab.fixed["pass", Component.KEYWORD] = (
                    0 if fault == "zero" else vocab.max_id + 1)
        tokens = data.draw(st.permutations(tokens))
        want = _outcome(vocab_oracle.assign_ids, tokens, vocab, on_exhaust)
        assert _outcome(assign_ids, tokens, vocab, on_exhaust) == want
        ids, _ = want
        if fault is None:
            assert isinstance(ids, list) or ids[0] is RangeExhausted
        elif on_exhaust == "recycle":
            bad_id = {"zero": 0, "past-max-id": vocab.max_id + 1}.get(fault)
            assert ids == (VocabError, "Keyword token 'nope' missing from its fixed table"
                           if bad_id is None else f"assigned ID {bad_id} escapes the table ranges")


def _row_tokens(tokens):
    """(component, text) per ID that ``assign_ids`` gives ``tokens``."""
    out = []
    for tok in tokens:
        if tok.component is Component.WHITESPACE:
            out.extend((tok.component, ch) for ch in tok.text)
        else:
            out.append((tok.component, tok.text))
    return out


class TestDecode:
    def test_pad_marker(self, empty_vocab):
        out = decode([0], empty_vocab)
        assert out[0].kind == "pad"
        assert out[0].text == "<PAD>"

    def test_out_of_range_id(self, empty_vocab):
        with pytest.raises(DecodeError, match="outside every component range"):
            decode([14000], empty_vocab)

    def test_unassigned_fixed_slot(self, empty_vocab):
        # the empty corpus gives the Number range no fixed IDs; the operator
        # pool leaves the top of its range unused
        lo, split, _ = empty_vocab.ranges.bounds(Component.NUMBER)
        assert split > lo
        op_hi = empty_vocab.ranges.bounds(Component.OPERATOR)[2]
        assert op_hi not in {i for c in SYMBOL_POOL + (Component.OPERATOR,)
                             for i in _table(empty_vocab, c).values()}
        for id_ in (lo, op_hi):
            with pytest.raises(DecodeError, match=f"^ID {id_} .* unassigned fixed slot$"):
                decode([7961, id_], empty_vocab)

    def test_round_trip_recovers_texts(self, golden_sources):
        # fixed IDs give back their text or lookup list; scoped IDs give the
        # canonical name of the text's first-appearance slot in its component
        prefix = {Component.CLASS: "C", Component.METHOD: "m", Component.VARIABLE: "v"}
        streams = {n: tokenize(src) for n, src in golden_sources.items()}
        vocab = build_vocab(streams.values())
        for name, tokens in streams.items():
            decoded = decode(assign_ids(tokens, vocab, NamespaceScope()), vocab)
            expanded = _row_tokens(tokens)
            assert len(decoded) == len(expanded), name
            slots = {c: {} for c in prefix}
            for (comp, text), d in zip(expanded, decoded):
                if comp in prefix:
                    slot = slots[comp].setdefault(text, len(slots[comp]))
                    assert (d.kind, d.component, d.texts) == (
                        "scoped", comp, (f"{prefix[comp]}{slot}",)), (name, text, d)
                elif d.kind == "ambiguous":
                    assert text in d.texts and d.texts == vocab.lookup_lists[d.id], (name, d)
                else:
                    assert (d.kind, d.texts) == ("exact", (text,)), (name, text, d)

    def test_call_composites_recover_through_lookup_lists(self):
        tokens = tokenize("def t(a_param):\n    return a_param.strip()\n")
        vocab = build_vocab([tokens, tokenize("address.strip()\n")])
        decoded = decode(assign_ids(tokens, vocab, NamespaceScope()), vocab)
        amb = [d for d in decoded if d.kind == "ambiguous"]
        assert amb and "a_param.strip" in amb[0].texts and "address.strip" in amb[0].texts

    def test_fallback_tail_ids_decode_as_scoped(self, empty_vocab):
        # no numbers or calls in the vocabulary: both go to the fallback tails
        tokens = tokenize("def f(a):\n    return a.strip() + 7 + 7 + 8\n")
        decoded = decode(assign_ids(tokens, empty_vocab, NamespaceScope()), empty_vocab)
        scoped = [(d.component, d.text) for d in decoded if d.kind == "scoped"]
        assert scoped == [(Component.METHOD, "m0"), (Component.VARIABLE, "v0"),
                          (Component.ATTRIBUTE_CALL, "ac0"), (Component.NUMBER, "n0"),
                          (Component.NUMBER, "n0"), (Component.NUMBER, "n1")]


def _assert_names_match_ids(decoded):
    """Within one row, scoped entries share a name exactly when they share an ID."""
    pairs = {(d.id, d.text) for d in decoded if d.kind == "scoped"}
    assert len(pairs) == len({i for i, _ in pairs}) == len({t for _, t in pairs})


@pytest.fixture(scope="module")
def stored_corpora(golden_streams):
    return {"golden": golden_streams,
            "synth": [tokenize(r.code) for r in generate_pairs(512, 0)]}


@pytest.mark.parametrize("corpus", ["golden", "synth"])
@pytest.mark.parametrize("vocab_from", ["all", "every-other", "none"])
def test_every_stored_id_decodes(stored_corpora, corpus, vocab_from):
    """Every ID of every ``encode_streams`` row decodes from the vocabulary alone;
    the smaller vocabularies push numbers and calls into the fallback tails."""
    streams = stored_corpora[corpus]
    vocab = build_vocab({"all": streams, "every-other": streams[::2], "none": []}[vocab_from])
    matrix, lens, _ = encode_streams(streams, vocab, 512)
    kinds, scoped = Counter(), set()
    for row, n, tokens in zip(matrix, lens, streams):
        decoded = decode(row, vocab)
        assert [d.id for d in decoded] == row.tolist()
        assert {d.kind for d in decoded[n:]} <= {"pad"}
        assert [d.component for d in decoded[:n]] == [c for c, _ in _row_tokens(tokens)[:n]]
        _assert_names_match_ids(decoded)
        kinds.update(d.kind for d in decoded)
        scoped.update(d.component for d in decoded if d.kind == "scoped")
    assert kinds["scoped"] and kinds["exact"]
    if vocab_from != "every-other":
        assert (Component.NUMBER in scoped) == (vocab_from == "none")


def test_recycled_row_still_decodes(empty_vocab):
    # one more distinct variable than the Variable range holds
    lo, _, hi = empty_vocab.ranges.bounds(Component.VARIABLE)
    src = "".join(f"x{i} = 1\n" for i in range(hi - lo + 2))
    tokens = tokenize(src)
    scope = NamespaceScope(on_exhaust="recycle")
    ids = assign_ids(tokens, empty_vocab, scope)
    assert scope.recycled == {Component.VARIABLE}
    matrix, _, _ = encode_streams([tokens], empty_vocab, len(ids), on_exhaust="recycle")
    assert matrix[0].tolist() == ids
    decoded = decode(matrix[0], empty_vocab)
    _assert_names_match_ids(decoded)
    names = [d.text for d in decoded if d.component is Component.VARIABLE]
    assert names[0] == names[-1] == "v0" and names[-2] == f"v{hi - lo}"


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
