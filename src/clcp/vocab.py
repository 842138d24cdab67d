"""Numeric ID assignment for classified tokens.

Every component owns a contiguous, disjoint ID range.  ``Vocabulary.fixed``
holds one text->ID table per component: built-ins and the operator pool in
table order; numbers, and calls abstracted by member name, in corpus-frequency
order, leaving a scope-local tail for unseen keys.  User-defined tokens
(classes, methods, variables) get namespace-scoped IDs that restart in every
scope.  ID 0 is the padding value and never assigned.
"""
from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from .pylex import (
    PLACEHOLDER_TEXT,
    Component,
    component_from_label,
    load_default_tables,
    member_key,
)

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
    """Pairwise-disjoint inclusive ID ranges, one per table component."""

    table: tuple[tuple[Component, int, int], ...] = DEFAULT_RANGE_TABLE

    def __post_init__(self):
        spans = sorted((lo, hi, c.value) for c, lo, hi in self.table)
        for (lo, hi, c), (lo2, hi2, c2) in zip(spans, spans[1:]):
            if lo2 <= hi:
                raise VocabError(f"ranges overlap: {c} and {c2}")
        if spans[0][0] <= PAD_ID:
            raise VocabError("ID 0 is reserved for padding")
        object.__setattr__(self, "_by_component", {c: (lo, hi) for c, lo, hi in self.table})
        object.__setattr__(self, "_max_id", spans[-1][1])
        # where a namespace scope allocates: a user-scoped component's whole
        # range, a corpus-keyed component's fallback tail
        object.__setattr__(self, "_scope_bounds", {
            c: (self.tail_start(c) if c in CORPUS_KEYED else lo, hi)
            for c, lo, hi in self.table if c in USER_SCOPED or c in CORPUS_KEYED})

    def range_for(self, component):
        if component in SYMBOL_POOL:
            component = Component.OPERATOR
        try:
            return self._by_component[component]
        except KeyError:
            raise VocabError(f"no ID range for component {component.value}") from None

    def capacity(self, component):
        lo, hi = self.range_for(component)
        return hi - lo + 1

    def fallback_tail(self, component):
        """Trailing slice of a corpus-keyed range reserved for scope-local IDs."""
        return math.ceil(self.capacity(component) / 8)

    def fixed_capacity(self, component):
        return self.capacity(component) - self.fallback_tail(component)

    def tail_start(self, component):
        lo, hi = self.range_for(component)
        return hi - self.fallback_tail(component) + 1

    def scope_bounds(self, component):
        """Inclusive (lo, hi) that a namespace scope allocates ``component`` from."""
        try:
            return self._scope_bounds[component]
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
    lo, _ = ranges.range_for(component)
    if len(keys) > ranges.capacity(component):
        raise RangeExhausted(component, ranges.capacity(component))
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

    ``fixed`` maps every component that is not user-scoped to its text->ID
    table: built-in names, operator-pool symbols (whitespace per character,
    the placeholder as ``"STR"``), numbers by text and calls by member name.
    ``lookup_lists`` maps each fixed call ID to the concrete texts it stands for.
    """

    ranges: IdRanges
    fixed: dict[Component, dict[str, int]]
    lookup_lists: dict[int, tuple[str, ...]]

    def __post_init__(self):
        self._reverse = {id_: (component, text) for component, table in self.fixed.items()
                         for text, id_ in table.items()}

    @property
    def max_id(self):
        return self.ranges.max_id

    def fixed_entry(self, id_):
        return self._reverse.get(id_)


def build_vocab(token_streams, tables=None):
    """Build the corpus vocabulary in the default ranges; a pure function of its inputs.

    ``token_streams`` is an iterable of classified token lists, one per
    namespace (code snippet).  Built-in maps exist even for an empty corpus.
    """
    ranges = IdRanges()
    tables = tables or load_default_tables()

    fixed = {component: _fixed_block(component, keys, ranges) for component, keys in (
        (Component.KEYWORD, tables.keywords),
        (Component.BUILTIN_CLASS, tables.classes),
        (Component.BUILTIN_METHOD, tables.functions),
        (Component.BUILTIN_METH_CALL, tables.dotted_functions),
        (Component.BUILTIN_ATTRIBUTE, tables.dotted_attributes),
        (Component.BUILTIN_ATTR_CALL, tables.dotted_attributes),
    )}
    # the symbol pool shares the Operator range, keyed by (text, component)
    pool = _fixed_block(Component.OPERATOR, tables.symbols, ranges)
    for component in (Component.OPERATOR, *SYMBOL_POOL):
        fixed[component] = {text: id_ for (text, c), id_ in pool.items() if c is component}

    counts = {component: Counter() for component in CORPUS_KEYED}
    texts = defaultdict(set)
    for stream in token_streams:
        for tok in stream:
            counter = counts.get(tok.component)
            if counter is not None:
                key = _corpus_key(tok)
                counter[key] += 1
                texts[tok.component, key].add(tok.text)
    for component in CORPUS_KEYED:
        fixed[component] = _fixed_block(
            component, _top_keys(counts[component], ranges.fixed_capacity(component)), ranges)
    lookup_lists = {id_: tuple(sorted(texts[component, key]))
                    for component in CORPUS_KEYED if component is not Component.NUMBER
                    for key, id_ in fixed[component].items()}
    return Vocabulary(ranges, fixed, lookup_lists)


class NamespaceScope:
    """Per-namespace allocator for user-defined and fallback IDs.

    The same key always maps to the same ID within a scope; fresh scopes
    restart every cursor, so IDs are reused across namespaces.
    """

    def __init__(self, ranges=None, on_exhaust="error"):
        if on_exhaust not in ("error", "recycle"):
            raise ValueError(f"on_exhaust must be 'error' or 'recycle', got {on_exhaust!r}")
        self.ranges = ranges or IdRanges()
        self.on_exhaust = on_exhaust
        self.recycled = set()
        self._cursors = {}
        self._local = {c: {} for c in USER_SCOPED + CORPUS_KEYED}
        self._texts = {}

    def allocate(self, component, key, concrete_text=None):
        local = self._local[component]
        id_ = local.get(key)
        if id_ is None:
            lo, hi = self.ranges.scope_bounds(component)
            cursor = self._cursors.get(component, lo)
            if cursor > hi:
                if self.on_exhaust == "error":
                    raise RangeExhausted(component, hi - lo + 1)
                cursor = lo
                self.recycled.add(component)
            local[key] = id_ = cursor
            self._cursors[component] = cursor + 1
        self._texts.setdefault(id_, set()).add(concrete_text or key)
        return id_

    def texts_for(self, id_):
        return self._texts.get(id_)


def assign_ids(tokens, vocabulary, scope):
    """Map classified tokens to numeric IDs.

    Whitespace run tokens expand to one ID per character so that decoding
    recovers the exact text.
    """
    ids = []
    append = ids.append
    fixed = vocabulary.fixed
    allocate = scope.allocate
    whitespace, placeholder = Component.WHITESPACE, Component.PLACEHOLDER
    for tok in tokens:
        component = tok.component
        if component is whitespace:
            table = fixed[component]
            ids.extend([table[ch] for ch in tok.text])
        elif component in USER_SCOPED:
            append(allocate(component, tok.text))
        elif component in CORPUS_KEYED:
            key = _corpus_key(tok)
            id_ = fixed[component].get(key)
            append(id_ if id_ is not None else allocate(component, key, concrete_text=tok.text))
        else:
            text = PLACEHOLDER_TEXT if component is placeholder else tok.text
            id_ = fixed.get(component, {}).get(text)
            if id_ is None:
                raise VocabError(f"{component.value} token {text!r} missing from its fixed table")
            append(id_)
    max_id = vocabulary.ranges.max_id
    if ids and (min(ids) < 1 or max(ids) > max_id):
        bad = next(id_ for id_ in ids if not 1 <= id_ <= max_id)
        raise VocabError(f"assigned ID {bad} escapes the table ranges")
    return ids


@dataclass(frozen=True)
class DecodedId:
    """One decoded ID: candidate texts plus how certain the mapping is."""

    id: int
    component: Component | None
    texts: tuple[str, ...]
    kind: str  # "pad" | "exact" | "ambiguous" | "scoped"

    @property
    def text(self):
        return self.texts[0] if self.texts else ""


def decode(ids, vocabulary, scope=None):
    """Recover token texts; abstracted call IDs decode to their lookup lists."""
    out = []
    for id_ in ids:
        if id_ == PAD_ID:
            out.append(DecodedId(id_, None, ("<PAD>",), "pad"))
            continue
        component = vocabulary.ranges.component_of(id_)
        fixed = vocabulary.fixed_entry(id_)
        if fixed is not None:
            fixed_component, text = fixed
            if id_ in vocabulary.lookup_lists:
                out.append(DecodedId(id_, fixed_component,
                                     vocabulary.lookup_lists[id_], "ambiguous"))
            else:
                out.append(DecodedId(id_, fixed_component, (text,), "exact"))
            continue
        texts = scope.texts_for(id_) if scope is not None else None
        if texts is None:
            raise DecodeError(f"ID {id_} ({component.value}) has no scope mapping")
        out.append(DecodedId(id_, component, tuple(sorted(texts)), "scoped"))
    return out


# -- serialization -------------------------------------------------------------

FORMAT_HEADER = "clcp-vocab"


def vocab_to_text(vocabulary):
    """Byte-deterministic JSON with sorted keys.

    ``ranges`` keeps the range table's order; ``fixed`` holds one text->ID
    table per component label (built-ins, operator pool, numbers and calls);
    ``lookup_lists`` is keyed by the call ID as a string.
    """
    return json.dumps({
        "format": FORMAT_HEADER,
        "ranges": [[c.value, lo, hi] for c, lo, hi in vocabulary.ranges.table],
        "fixed": {c.value: table for c, table in vocabulary.fixed.items()},
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
        fixed = {component_from_label(label): table for label, table in doc["fixed"].items()}
        lookup_items = doc["lookup_lists"].items()
    except (KeyError, TypeError, AttributeError) as exc:
        raise VocabError(f"malformed vocabulary file: {exc!r}") from exc
    missing = [c.value for c in Component if c not in USER_SCOPED and c not in fixed]
    if missing:
        raise VocabError(f"vocabulary file has no fixed table for {', '.join(missing)}")
    owners = {}   # ID -> the entry that holds it
    for component, table in fixed.items():
        lo, hi = ranges.range_for(component)
        for text, id_ in table.items():
            entry = f"{component.value} {text!r}"
            if not lo <= id_ <= hi:
                raise VocabError(f"{entry}: ID {id_} outside its range {lo}..{hi}")
            if owners.setdefault(id_, entry) != entry:
                raise VocabError(f"{entry}: ID {id_} already taken by {owners[id_]}")
    call_ids = {str(id_) for c in (Component.METHOD_CALL, Component.ATTRIBUTE_CALL)
                for id_ in fixed[c].values()}
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
