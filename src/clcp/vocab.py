"""Numeric ID assignment for classified tokens.

Every component owns a contiguous, disjoint ID range.  Built-in tokens get
fixed IDs in table order; user-defined tokens (classes, methods, variables)
get namespace-scoped IDs that restart in every scope; call composites are
abstracted by member name and carry reverse-lookup lists; number literals mix
a corpus-frequency fixed set with a scope-local tail.  ID 0 is the padding
value and never assigned.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .pylex import (
    Component,
    component_from_label,
    escape_token_text,
    load_default_tables,
    member_key,
    unescape_token_text,
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
        spans = sorted((lo, hi, c) for c, lo, hi in self.table)
        for (lo, hi, c), (lo2, hi2, c2) in zip(spans, spans[1:]):
            if lo2 <= hi:
                raise VocabError(f"ranges overlap: {c.value} and {c2.value}")
        if spans[0][0] <= PAD_ID:
            raise VocabError("ID 0 is reserved for padding")
        object.__setattr__(self, "_by_component", {c: (lo, hi) for c, lo, hi in self.table})

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

    @property
    def max_id(self):
        return max(hi for _, _, hi in self.table)

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


@dataclass
class Vocabulary:
    """Deterministic token-to-ID maps honoring the component ranges."""

    ranges: IdRanges
    builtins: dict[Component, dict[str, int]]
    numbers: dict[str, int]
    calls: dict[Component, dict[str, int]]
    lookup_lists: dict[int, tuple[str, ...]]
    version: str = "1"

    def __post_init__(self):
        rev = {}
        for component, table in self.builtins.items():
            for text, id_ in table.items():
                rev[id_] = (component, text)
        for text, id_ in self.numbers.items():
            rev[id_] = (Component.NUMBER, text)
        for component, table in self.calls.items():
            for key, id_ in table.items():
                rev[id_] = (component, key)
        self._reverse = rev

    @property
    def max_id(self):
        return self.ranges.max_id

    def fixed_entry(self, id_):
        return self._reverse.get(id_)


def build_vocab(token_streams, ranges=None, tables=None):
    """Build the corpus vocabulary; a pure function of its inputs.

    ``token_streams`` is an iterable of classified token lists, one per
    namespace (code snippet).  Built-in maps exist even for an empty corpus.
    """
    ranges = ranges or IdRanges()
    tables = tables or load_default_tables()

    builtins = {
        Component.KEYWORD: _fixed_block(Component.KEYWORD, tables.keywords, ranges),
        Component.BUILTIN_CLASS: _fixed_block(Component.BUILTIN_CLASS, tables.classes, ranges),
        Component.BUILTIN_METHOD: _fixed_block(Component.BUILTIN_METHOD, tables.functions, ranges),
        Component.BUILTIN_METH_CALL: _fixed_block(
            Component.BUILTIN_METH_CALL, tables.dotted_functions, ranges),
        Component.BUILTIN_ATTRIBUTE: _fixed_block(
            Component.BUILTIN_ATTRIBUTE, tables.dotted_attributes, ranges),
        Component.BUILTIN_ATTR_CALL: _fixed_block(
            Component.BUILTIN_ATTR_CALL, tables.dotted_attributes, ranges),
    }
    symbol_texts = [text for text, _ in tables.symbols]
    if len(symbol_texts) > ranges.capacity(Component.OPERATOR):
        raise RangeExhausted(Component.OPERATOR, ranges.capacity(Component.OPERATOR))
    op_lo, _ = ranges.range_for(Component.OPERATOR)
    for component in (Component.OPERATOR,) + tuple(SYMBOL_POOL):
        builtins[component] = {}
    for i, (text, component) in enumerate(tables.symbols):
        builtins[component][text] = op_lo + i

    number_counts = Counter()
    call_counts = {Component.METHOD_CALL: Counter(), Component.ATTRIBUTE_CALL: Counter()}
    call_texts = {Component.METHOD_CALL: {}, Component.ATTRIBUTE_CALL: {}}
    for stream in token_streams:
        for tok in stream:
            if tok.component is Component.NUMBER:
                number_counts[tok.text] += 1
            elif tok.component in call_counts:
                key = member_key(tok)
                call_counts[tok.component][key] += 1
                call_texts[tok.component].setdefault(key, set()).add(tok.text)

    numbers = {}
    lo, _ = ranges.range_for(Component.NUMBER)
    for i, key in enumerate(_top_keys(number_counts, ranges.fixed_capacity(Component.NUMBER))):
        numbers[key] = lo + i

    calls = {}
    lookup_lists = {}
    for component in (Component.METHOD_CALL, Component.ATTRIBUTE_CALL):
        lo, _ = ranges.range_for(component)
        table = {}
        for i, key in enumerate(_top_keys(call_counts[component],
                                          ranges.fixed_capacity(component))):
            table[key] = lo + i
            lookup_lists[lo + i] = tuple(sorted(call_texts[component][key]))
        calls[component] = table

    return Vocabulary(ranges, builtins, numbers, calls, lookup_lists)


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

    def _bounds(self, component):
        lo, hi = self.ranges.range_for(component)
        if component in CORPUS_KEYED:
            lo = self.ranges.tail_start(component)
        return lo, hi

    def allocate(self, component, key, concrete_text=None):
        local = self._local[component]
        id_ = local.get(key)
        if id_ is None:
            lo, hi = self._bounds(component)
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

    def metadata(self):
        return {"on_exhaust": self.on_exhaust,
                "recycled": sorted(c.value for c in self.recycled)}


def assign_ids(tokens, vocabulary, scope):
    """Map classified tokens to numeric IDs.

    Whitespace run tokens expand to one ID per character so that decoding
    recovers the exact text.
    """
    ids = []
    ranges = vocabulary.ranges
    for tok in tokens:
        component = tok.component
        if component is Component.WHITESPACE:
            table = vocabulary.builtins[Component.WHITESPACE]
            ids.extend(table[ch] for ch in tok.text)
            continue
        if component is Component.PLACEHOLDER:
            ids.append(vocabulary.builtins[Component.PLACEHOLDER]["STR"])
            continue
        if component is Component.NEWLINE:
            ids.append(vocabulary.builtins[Component.NEWLINE][tok.text])
            continue
        table = vocabulary.builtins.get(component)
        if table is not None and component not in CORPUS_KEYED:
            try:
                ids.append(table[tok.text])
            except KeyError:
                raise VocabError(
                    f"{component.value} token {tok.text!r} missing from builtin table"
                ) from None
            continue
        if component is Component.NUMBER:
            id_ = vocabulary.numbers.get(tok.text)
            ids.append(id_ if id_ is not None
                       else scope.allocate(component, tok.text))
            continue
        if component in (Component.METHOD_CALL, Component.ATTRIBUTE_CALL):
            key = member_key(tok)
            id_ = vocabulary.calls[component].get(key)
            ids.append(id_ if id_ is not None
                       else scope.allocate(component, key, concrete_text=tok.text))
            continue
        if component in USER_SCOPED:
            ids.append(scope.allocate(component, tok.text))
            continue
        raise VocabError(f"cannot assign an ID to component {component.value}")
    for id_ in ids:
        if not 1 <= id_ <= ranges.max_id:
            raise VocabError(f"assigned ID {id_} escapes the table ranges")
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
    """Byte-deterministic line format: sections in fixed order, sorted by ID.

    Builtin tables follow ``Component`` definition order.
    """
    lines = [f"{FORMAT_HEADER}\t{vocabulary.version}"]
    for component, lo, hi in vocabulary.ranges.table:
        lines.append(f"range\t{component.value}\t{lo}\t{hi}")
    for component, table in sorted(vocabulary.builtins.items()):
        for text, id_ in sorted(table.items(), key=lambda kv: kv[1]):
            lines.append(f"builtin\t{component.value}\t{escape_token_text(text)}\t{id_}")
    for text, id_ in sorted(vocabulary.numbers.items(), key=lambda kv: kv[1]):
        lines.append(f"number\t{escape_token_text(text)}\t{id_}")
    for component in (Component.METHOD_CALL, Component.ATTRIBUTE_CALL):
        for key, id_ in sorted(vocabulary.calls[component].items(), key=lambda kv: kv[1]):
            lines.append(f"call\t{component.value}\t{escape_token_text(key)}\t{id_}")
    for id_ in sorted(vocabulary.lookup_lists):
        for text in vocabulary.lookup_lists[id_]:
            lines.append(f"list\t{id_}\t{escape_token_text(text)}")
    return "\n".join(lines) + "\n"


def vocab_from_text(text):
    lines = text.splitlines()
    if not lines or not lines[0].startswith(FORMAT_HEADER + "\t"):
        raise VocabError("not a vocabulary file")
    version = lines[0].split("\t")[1]
    table = []
    builtins = {}
    numbers = {}
    calls = {Component.METHOD_CALL: {}, Component.ATTRIBUTE_CALL: {}}
    lookup = {}
    for line in lines[1:]:
        kind, *fields = line.split("\t")
        if kind == "range":
            label, lo, hi = fields
            table.append((component_from_label(label), int(lo), int(hi)))
        elif kind == "builtin":
            label, text, id_ = fields
            component = component_from_label(label)
            builtins.setdefault(component, {})[unescape_token_text(text)] = int(id_)
        elif kind == "number":
            text, id_ = fields
            numbers[unescape_token_text(text)] = int(id_)
        elif kind == "call":
            label, key, id_ = fields
            calls[component_from_label(label)][unescape_token_text(key)] = int(id_)
        elif kind == "list":
            id_, text = fields
            lookup.setdefault(int(id_), []).append(unescape_token_text(text))
        else:
            raise VocabError(f"unknown vocabulary line kind {kind!r}")
    lookup_lists = {k: tuple(v) for k, v in lookup.items()}
    return Vocabulary(IdRanges(tuple(table)), builtins, numbers, calls, lookup_lists,
                      version=version)


def save_vocab(vocabulary, path):
    Path(path).write_text(vocab_to_text(vocabulary), encoding="utf-8")


def load_vocab(path):
    return vocab_from_text(Path(path).read_text(encoding="utf-8"))
