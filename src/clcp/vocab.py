"""Numeric ID assignment for classified tokens.

Every component owns a contiguous, disjoint ID range.  ``Vocabulary.fixed``
is one ``(key, component) -> ID`` table, keyed like tokens: built-ins and the
operator pool in table order; numbers by text, and calls abstracted by member
name, in corpus-frequency order, leaving a scope-local tail for unseen keys.
User-defined tokens (classes, methods, variables) get namespace-scoped IDs that
restart in every scope.  ID 0 is the padding value and never assigned.

``decode`` reads an ID row back from the vocabulary alone: a fixed ID gives its
text or lookup list, and a scoped ID a canonical name for its slot in the scope.
"""
from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import is_
from pathlib import Path

from .pylex import Component, component_from_label, load_default_tables, member_key

PAD_ID = 0

#: Inclusive (lo, hi) per component for the Python vocabulary.
DEFAULT_RANGE_TABLE = (
    (Component.KEYWORD, 1, 35),
    (Component.BUILTIN_CLASS, 36, 54),
    (Component.CLASS, 55, 1584),
    (Component.BUILTIN_METHOD, 1585, 2698),
    (Component.METHOD, 2699, 4454),
    (Component.BUILTIN_METH_CALL, 4455, 6128),
    (Component.METHOD_CALL, 6129, 6929),
    (Component.BUILTIN_ATTRIBUTE, 6930, 7960),
    (Component.VARIABLE, 7961, 9999),
    (Component.BUILTIN_ATTR_CALL, 10000, 11270),
    (Component.ATTRIBUTE_CALL, 11271, 11509),
    (Component.OPERATOR, 11510, 11554),
    (Component.NUMBER, 11555, 13811),
)

#: Lexical classes that draw their IDs from the Operator range ("line breaks
#: and spaces are treated as symbols"; the placeholder rides along).
SYMBOL_POOL = (Component.SYMBOL, Component.WHITESPACE, Component.NEWLINE,
               Component.PLACEHOLDER)

#: User-defined components allocated per namespace scope.
USER_SCOPED = (Component.CLASS, Component.METHOD, Component.VARIABLE)

#: Components whose fixed IDs come from corpus statistics.
CORPUS_KEYED = (Component.METHOD_CALL, Component.ATTRIBUTE_CALL, Component.NUMBER)

#: The corpus-keyed components keyed by member name rather than by text.
_CALLS = (Component.METHOD_CALL, Component.ATTRIBUTE_CALL)


class RangeExhausted(RuntimeError):
    def __init__(self, component, capacity):
        super().__init__(f"{component.value} range exhausted (capacity {capacity})")
        self.component = component


class VocabError(ValueError):
    pass


class DecodeError(VocabError):
    pass


@dataclass(frozen=True)
class IdRanges:
    """Pairwise-disjoint inclusive ID ranges, one per table component.

    ``bounds(component)`` is ``(lo, split, hi)``: fixed IDs take ``lo..split-1``
    and a namespace scope allocates from ``split..hi``.  Built-in and
    operator-pool ranges are all fixed, user-scoped ones all scoped, and a
    corpus-keyed range leaves its last eighth, rounded up, to scopes as a
    fallback tail.  The symbol-pool components share Operator's bounds.
    """

    table: tuple[tuple[Component, int, int], ...] = DEFAULT_RANGE_TABLE

    def __post_init__(self):
        spans = sorted((lo, hi, c.value) for c, lo, hi in self.table)
        for (lo, hi, c), (lo2, hi2, c2) in zip(spans, spans[1:]):
            if lo2 <= hi:
                raise VocabError(f"ranges overlap: {c} and {c2}")
        if spans[0][0] <= PAD_ID:
            raise VocabError("ID 0 is reserved for padding")
        bounds = {}
        for c, lo, hi in self.table:
            split = hi + 1
            if c in USER_SCOPED:
                split = lo
            elif c in CORPUS_KEYED:
                split -= math.ceil((hi - lo + 1) / 8)
            bounds[c] = lo, split, hi
        if Component.OPERATOR in bounds:
            bounds = dict.fromkeys(SYMBOL_POOL, bounds[Component.OPERATOR]) | bounds
        object.__setattr__(self, "_bounds", bounds)
        object.__setattr__(self, "_max_id", spans[-1][1])

    def bounds(self, component):
        try:
            return self._bounds[component]
        except KeyError:
            raise VocabError(f"no ID range for component {component.value}") from None

    @property
    def max_id(self):
        return self._max_id

    def component_of(self, id_):
        for c, lo, hi in self.table:
            if lo <= id_ <= hi:
                return c
        raise DecodeError(f"ID {id_} lies outside every component range")


def _fixed_block(component, keys, ranges):
    lo, split, _ = ranges.bounds(component)
    if len(keys) > split - lo:
        raise RangeExhausted(component, split - lo)
    return {key: lo + i for i, key in enumerate(keys)}


def _top_keys(counter, limit):
    ordered = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    return [k for k, _ in ordered[:limit]]


def _corpus_key(tok):
    """Frequency key of a corpus-keyed token: a number's text, a call's member name."""
    return tok.text if tok.component is Component.NUMBER else member_key(tok)


@dataclass
class Vocabulary:
    """Deterministic token-to-ID maps honoring the component ranges.

    ``fixed`` maps ``(key, component)`` to the ID of every fixed entry, keyed
    exactly like tokens: built-in names, operator-pool symbols (whitespace per
    character, the placeholder as ``"STR"``), numbers by text and calls by
    member name.  No user-scoped component has an entry; scopes allocate those.
    ``lookup_lists`` maps each fixed call ID to the concrete texts it stands for.
    """

    ranges: IdRanges
    fixed: dict[tuple[str, Component], int]
    lookup_lists: dict[int, tuple[str, ...]]

    @property
    def max_id(self):
        return self.ranges.max_id


def build_vocab(token_streams, tables=None):
    """Build the corpus vocabulary in the default ranges; a pure function of its inputs.

    ``token_streams`` is an iterable of classified token lists, one per
    namespace (code snippet).  Built-in maps exist even for an empty corpus.
    """
    ranges = IdRanges()
    tables = tables or load_default_tables()

    fixed = {}
    for component, names in (
        (Component.KEYWORD, tables.keywords),
        (Component.BUILTIN_CLASS, tables.classes),
        (Component.BUILTIN_METHOD, tables.functions),
        (Component.BUILTIN_METH_CALL, tables.dotted_functions),
        (Component.BUILTIN_ATTRIBUTE, tables.dotted_attributes),
        (Component.BUILTIN_ATTR_CALL, tables.dotted_attributes),
    ):
        fixed |= _fixed_block(component, [(name, component) for name in names], ranges)
    # the symbol pool shares the Operator range, keyed by (text, component)
    fixed |= _fixed_block(Component.OPERATOR, tables.symbols, ranges)

    counts = {component: Counter() for component in CORPUS_KEYED}
    texts = defaultdict(set)
    for stream in token_streams:
        for tok in stream:
            counter = counts.get(tok.component)
            if counter is not None:
                key = _corpus_key(tok), tok.component
                counter[key] += 1
                texts[key].add(tok.text)
    for component in CORPUS_KEYED:
        lo, split, _ = ranges.bounds(component)
        fixed |= _fixed_block(component, _top_keys(counts[component], split - lo), ranges)
    lookup_lists = {id_: tuple(sorted(texts[key])) for key, id_ in fixed.items()
                    if key[1] in _CALLS}
    return Vocabulary(ranges, fixed, lookup_lists)


class NamespaceScope:
    """Per-namespace allocator for user-defined and fallback IDs.

    The same key always maps to the same ID within a scope.  A new key takes
    the next ID of the component's ``split..hi``, ``split + len(local) %
    capacity``, so fresh scopes start again at ``split`` and IDs are reused
    across namespaces.  Past ``capacity`` keys a scope raises RangeExhausted,
    or with ``on_exhaust="recycle"`` wraps to ``split`` and records the
    component in ``recycled``.
    """

    def __init__(self, ranges=None, on_exhaust="error"):
        if on_exhaust not in ("error", "recycle"):
            raise ValueError(f"on_exhaust must be 'error' or 'recycle', got {on_exhaust!r}")
        self.ranges = ranges or IdRanges()
        self.on_exhaust = on_exhaust
        self.recycled = set()
        self._local = {c: {} for c in USER_SCOPED + CORPUS_KEYED}

    def allocate(self, component, key):
        local = self._local[component]
        id_ = local.get(key)
        if id_ is None:
            _, split, hi = self.ranges.bounds(component)
            capacity = hi - split + 1
            if len(local) >= capacity:
                if self.on_exhaust == "error":
                    raise RangeExhausted(component, capacity)
                self.recycled.add(component)
            local[key] = id_ = split + len(local) % capacity
        return id_


def assign_ids(tokens, vocabulary, scope):
    """Map classified tokens to numeric IDs.

    A token is its own ``(text, component)`` key in ``vocabulary.fixed``, so
    every token is looked up as it is; only the misses are visited, and each
    distinct missing key is resolved once: a dotted call is looked up again by
    member name.  User-scoped tokens, and corpus-keyed ones with no fixed ID,
    take their IDs from ``scope``; a whitespace run expands to one ID per
    character so that decoding recovers the exact text.
    """
    fixed = vocabulary.fixed
    ids = list(map(fixed.get, tokens))
    resolved, runs = {}, []   # runs: indices of whitespace runs, expanded below
    for i in compress(count(), map(is_, ids, repeat(None))):
        key = tokens[i]
        id_ = resolved.get(key)
        if id_ is None:
            text, component = key
            if component in USER_SCOPED:
                id_ = scope.allocate(component, text)
            elif component in CORPUS_KEYED:
                corpus_key = _corpus_key(key)
                id_ = fixed.get((corpus_key, component))
                if id_ is None:
                    id_ = scope.allocate(component, corpus_key)
            elif component is Component.WHITESPACE:
                id_ = [fixed[ch, component] for ch in text]
            else:
                raise VocabError(f"{component.value} token {text!r} missing from its fixed table")
            resolved[key] = id_
        ids[i] = id_
        if type(id_) is list:
            runs.append(i)
    for i in reversed(runs):
        ids[i:i + 1] = ids[i]
    max_id = vocabulary.ranges.max_id
    if ids and (min(ids) < 1 or max(ids) > max_id):
        bad = next(id_ for id_ in ids if not 1 <= id_ <= max_id)
        raise VocabError(f"assigned ID {bad} escapes the table ranges")
    return ids


#: Canonical-name prefix of each component a namespace scope allocates from.
_SCOPED_PREFIX = {Component.CLASS: "C", Component.METHOD: "m", Component.VARIABLE: "v",
                  Component.METHOD_CALL: "mc", Component.ATTRIBUTE_CALL: "ac",
                  Component.NUMBER: "n"}


@dataclass(frozen=True)
class DecodedId:
    """One decoded ID: candidate texts plus how certain the mapping is.

    ``kind`` is "pad", "exact" (one fixed text), "ambiguous" (a fixed call ID's
    lookup list) or "scoped": an ID a namespace scope allocated, whose text
    is the canonical name of its slot.
    """

    id: int
    component: Component | None
    texts: tuple[str, ...]
    kind: str

    @property
    def text(self):
        return self.texts[0] if self.texts else ""


def decode(ids, vocabulary):
    """Decode an ID row with nothing but the vocabulary that encoded it.

    Abstracted call IDs decode to their lookup lists.  An ID at or above its
    component's split decodes to a canonical name, the component's prefix
    plus the ID's offset from the split (``v0``, ``m0``, ``C0``, ``n0``, ...).  A scope hands out IDs in first-appearance order, so
    within a row two tokens share a name exactly when they share an ID.  Any
    other ID outside the fixed tables raises DecodeError.
    """
    ranges = vocabulary.ranges
    fixed = {id_: key for key, id_ in vocabulary.fixed.items()}
    out = []
    for id_ in map(int, ids):
        if id_ == PAD_ID:
            out.append(DecodedId(id_, None, ("<PAD>",), "pad"))
        elif id_ in fixed:
            text, component = fixed[id_]
            lookup = vocabulary.lookup_lists.get(id_)
            out.append(DecodedId(id_, component, (text,), "exact") if lookup is None
                       else DecodedId(id_, component, lookup, "ambiguous"))
        else:
            component = ranges.component_of(id_)
            _, split, _ = ranges.bounds(component)
            if id_ < split:
                raise DecodeError(f"ID {id_} ({component.value}) is an unassigned fixed slot")
            out.append(DecodedId(id_, component, (f"{_SCOPED_PREFIX[component]}{id_ - split}",),
                                 "scoped"))
    return out


# -- serialization -------------------------------------------------------------

FORMAT_HEADER = "clcp-vocab"


def vocab_to_text(vocabulary):
    """Byte-deterministic JSON with sorted keys.

    ``ranges`` keeps the range table's order; ``fixed`` holds one key->ID
    table per component label, one for every component that is not
    user-scoped (built-ins, operator pool, numbers and calls);
    ``lookup_lists`` is keyed by the call ID as a string.
    """
    tables = {c.value: {} for c in Component if c not in USER_SCOPED}
    for (key, component), id_ in vocabulary.fixed.items():
        tables.setdefault(component.value, {})[key] = id_
    return json.dumps({
        "format": FORMAT_HEADER,
        "ranges": [[c.value, lo, hi] for c, lo, hi in vocabulary.ranges.table],
        "fixed": tables,
        "lookup_lists": {str(id_): texts for id_, texts in vocabulary.lookup_lists.items()},
    }, sort_keys=True, indent=0) + "\n"


def vocab_from_text(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_HEADER:
        raise VocabError("not a vocabulary file")
    try:
        for id_ in [*(b for _, *bounds in doc["ranges"] for b in bounds),
                    *(i for table in doc["fixed"].values() for i in table.values())]:
            if type(id_) is not int:
                raise VocabError(f"ID {id_!r} is not an integer")
        ranges = IdRanges(tuple((component_from_label(label), lo, hi)
                                for label, lo, hi in doc["ranges"]))
        tables = {component_from_label(label): table for label, table in doc["fixed"].items()}
        lookup_items = doc["lookup_lists"].items()
    except (KeyError, TypeError, AttributeError) as exc:
        raise VocabError(f"malformed vocabulary file: {exc!r}") from exc
    # a user-scoped entry would be found before the scope is asked
    if scoped := [c.value for c in USER_SCOPED if c in tables]:
        raise VocabError(f"vocabulary file has a fixed table for user-scoped {', '.join(scoped)}")
    missing = [c.value for c in Component if c not in USER_SCOPED and c not in tables]
    if missing:
        raise VocabError(f"vocabulary file has no fixed table for {', '.join(missing)}")
    fixed = {(key, component): id_ for component, table in tables.items()
             for key, id_ in table.items()}
    owners = {}   # ID -> the entry that holds it
    for (key, component), id_ in fixed.items():
        lo, split, _ = ranges.bounds(component)
        entry = f"{component.value} {key!r}"
        if not lo <= id_ < split:
            raise VocabError(f"{entry}: ID {id_} outside its fixed range {lo}..{split - 1}")
        if component in _CALLS and "." in key:
            raise VocabError(f"{entry}: a call key is a member name, without '.'")
        if component is Component.WHITESPACE and len(key) != 1:
            raise VocabError(f"{entry}: a whitespace key is one character")
        if owners.setdefault(id_, entry) != entry:
            raise VocabError(f"{entry}: ID {id_} already taken by {owners[id_]}")
    call_ids = {str(id_) for (_, component), id_ in fixed.items() if component in _CALLS}
    lookup_lists = {}
    for id_, texts in lookup_items:
        if not (id_ in call_ids and isinstance(texts, list) and texts
                and all(type(t) is str for t in texts)):
            raise VocabError(f"lookup list of ID {id_}: not texts of a fixed call ID: {texts!r}")
        lookup_lists[int(id_)] = tuple(texts)
    if unlisted := min(call_ids - doc["lookup_lists"].keys(), key=int, default=None):
        raise VocabError(f"{owners[int(unlisted)]}: ID {unlisted} has no lookup list")
    return Vocabulary(ranges, fixed, lookup_lists)


def save_vocab(vocabulary, path):
    Path(path).write_text(vocab_to_text(vocabulary), encoding="utf-8")


def load_vocab(path):
    return vocab_from_text(Path(path).read_text(encoding="utf-8"))
