"""Tokenizer for a Python subset, with component classification.

The front end turns source text into classified tokens in three stages:

* ``clean_code`` replaces every string literal with the placeholder ``STR``
  and removes comments, keeping line structure intact;
* ``lex`` splits cleaned text into tokens (keywords, operators, numbers,
  symbols, whitespace runs, newlines), classifying identifiers provisionally
  as Variable;
* ``classify`` fuses dotted composites (``a.strip``) into single tokens and
  resolves identifier components against the built-in tables.

The concatenation of token texts always reproduces the lexed source exactly.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources


class Component(enum.Enum):
    """Token categories; definition order is the canonical total order."""

    KEYWORD = "Keyword"
    BUILTIN_CLASS = "BuiltinClass"
    CLASS = "Class"
    BUILTIN_METHOD = "BuiltinMethod"
    METHOD = "Method"
    BUILTIN_METH_CALL = "BuiltinMethCall"
    METHOD_CALL = "MethodCall"
    BUILTIN_ATTRIBUTE = "BuiltinAttribute"
    VARIABLE = "Variable"
    BUILTIN_ATTR_CALL = "BuiltinAttrCall"
    ATTRIBUTE_CALL = "AttributeCall"
    OPERATOR = "Operator"
    NUMBER = "Number"
    SYMBOL = "Symbol"
    WHITESPACE = "Whitespace"
    NEWLINE = "Newline"
    PLACEHOLDER = "Placeholder"

    def __lt__(self, other):
        if not isinstance(other, Component):
            return NotImplemented
        return _COMPONENT_ORDER[self] < _COMPONENT_ORDER[other]


_COMPONENT_ORDER = {c: i for i, c in enumerate(Component)}
_BY_LABEL = {c.value: c for c in Component}


def component_from_label(label):
    try:
        return _BY_LABEL[label]
    except KeyError:
        raise ValueError(f"unknown component label {label!r}") from None


@dataclass(frozen=True)
class Token:
    """One lexical unit: text, component class, and (start, end) offsets."""

    text: str
    component: Component
    span: tuple[int, int]

    def is_significant(self):
        return self.component not in (Component.WHITESPACE, Component.NEWLINE)


class LexError(ValueError):
    def __init__(self, message, span):
        super().__init__(f"{message} at {span[0]}..{span[1]}")
        self.span = span


PLACEHOLDER_TEXT = "STR"


@dataclass(frozen=True)
class BuiltinTables:
    """Immutable name tables driving classification and fixed ID assignment."""

    keywords: tuple[str, ...]
    classes: tuple[str, ...]
    functions: tuple[str, ...]
    modules: frozenset[str]
    dotted_functions: tuple[str, ...]
    dotted_attributes: tuple[str, ...]
    symbols: tuple[tuple[str, Component], ...]

    def __post_init__(self):
        object.__setattr__(self, "_keyword_set", frozenset(self.keywords))
        object.__setattr__(self, "_class_set", frozenset(self.classes))
        object.__setattr__(self, "_function_set", frozenset(self.functions))
        object.__setattr__(self, "_dotted_function_set", frozenset(self.dotted_functions))
        object.__setattr__(self, "_dotted_attribute_set", frozenset(self.dotted_attributes))

    def is_keyword(self, text):
        return text in self._keyword_set


def _read_lines(name):
    text = resources.files("clcp.data").joinpath(name).read_text(encoding="utf-8")
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


_SYMBOL_ESCAPES = {"<SP>": " ", "<TAB>": "\t", "<NL>": "\n"}


@lru_cache(maxsize=1)
def load_default_tables():
    symbols = []
    for line in _read_lines("symbols.txt"):
        raw, label = line.split("\t")
        symbols.append((_SYMBOL_ESCAPES.get(raw, raw), component_from_label(label)))
    return BuiltinTables(
        keywords=tuple(_read_lines("keywords.txt")),
        classes=tuple(_read_lines("builtin_classes.txt")),
        functions=tuple(_read_lines("builtin_functions.txt")),
        modules=frozenset(_read_lines("builtin_modules.txt")),
        dotted_functions=tuple(_read_lines("builtin_dotted_functions.txt")),
        dotted_attributes=tuple(_read_lines("builtin_dotted_attributes.txt")),
        symbols=tuple(symbols),
    )


# -- step 1: cleaning ---------------------------------------------------------

_STRING_PREFIX = frozenset(
    p for p in ("r", "b", "u", "f", "rb", "br", "fr", "rf", "bf", "fb")
)
_IDENT_START = re.compile(r"[A-Za-z_]")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _scan_string(src, i):
    """Return the end index (exclusive) of the literal opening at src[i].

    Total: an unterminated single-quote literal runs to end of line, an
    unterminated triple-quote literal to end of input.
    """
    quote = src[i]
    if src[i:i + 3] in ('"""', "'''"):
        opener = src[i:i + 3]
        j = i + 3
        while j < len(src):
            if src[j] == "\\":
                j += 2
                continue
            if src.startswith(opener, j):
                return j + 3
            j += 1
        return len(src)
    j = i + 1
    while j < len(src):
        ch = src[j]
        if ch == "\\":
            j += 2
            continue
        if ch == quote:
            return j + 1
        if ch == "\n":
            return j
        j += 1
    return len(src)


def clean_code(src):
    """Replace every string literal with ``STR`` and drop comments.

    Line breaks outside literals are preserved; whitespace that only padded a
    removed comment is dropped with it.
    """
    src = src.lstrip("﻿").replace("\r\n", "\n").replace("\r", "\n")
    out = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "#":
            while out and out[-1] in (" ", "\t"):
                out.pop()
            while i < n and src[i] != "\n":
                i += 1
            continue
        if ch in "\"'":
            i = _scan_string(src, i)
            out.append(PLACEHOLDER_TEXT)
            continue
        if _IDENT_START.match(ch):
            m = _IDENT_RE.match(src, i)
            word = m.group()
            end = m.end()
            if end < n and src[end] in "\"'" and word.lower() in _STRING_PREFIX:
                i = _scan_string(src, end)
                out.append(PLACEHOLDER_TEXT)
                continue
            out.append(word)
            i = end
            continue
        out.append(ch)
        i += 1
    return "".join(out)


# -- step 2: lexing -------------------------------------------------------------

_MASTER_RE = re.compile(
    r"""
    (?P<string>
        (?:[rRbBuUfF]{1,2})?
        (?:\"\"\"(?:\\.|[^\\])*?\"\"\"|'''(?:\\.|[^\\])*?'''
          |\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*')
    )
  | (?P<number>
        0[xX][0-9a-fA-F_]+
      | 0[bB][01_]+
      | 0[oO][0-7_]+
      | \d[\d_]*\.\d[\d_]*(?:[eE][+-]?\d+)?
      | \d[\d_]*\.(?:[eE][+-]?\d+)?
      | \.\d[\d_]*(?:[eE][+-]?\d+)?
      | \d[\d_]*(?:[eE][+-]?\d+)?
    )
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<operator>\*\*|//|<<|>>|<=|>=|==|!=|:=|->|[-+*/%@&|^~<>=])
  | (?P<symbol>[()\[\]{},:;.])
  | (?P<space>\ +|\t+)
  | (?P<newline>\n)
    """,
    re.VERBOSE,
)


def lex(src, tables=None):
    """Tokenize cleaned source; identifiers come out as provisional Variables.

    Whitespace is emitted as maximal same-character runs and newlines one per
    character, so the concatenation of token texts reproduces ``src``.
    """
    tables = tables or load_default_tables()
    tokens = []
    pos, n = 0, len(src)
    while pos < n:
        m = _MASTER_RE.match(src, pos)
        if m is None:
            if src[pos] in "\"'":
                raise LexError("unterminated string literal", (pos, n))
            raise LexError(f"unexpected character {src[pos]!r}", (pos, pos + 1))
        kind = m.lastgroup
        text = m.group()
        span = (pos, m.end())
        if kind == "string":
            component = Component.PLACEHOLDER
        elif kind == "number":
            component = Component.NUMBER
        elif kind == "name":
            if tables.is_keyword(text):
                component = Component.KEYWORD
            elif text == PLACEHOLDER_TEXT:
                component = Component.PLACEHOLDER
            else:
                component = Component.VARIABLE
        elif kind == "operator":
            component = Component.OPERATOR
        elif kind == "symbol":
            component = Component.SYMBOL
        elif kind == "space":
            component = Component.WHITESPACE
        else:
            component = Component.NEWLINE
        tokens.append(Token(text, component, span))
        pos = m.end()
    return tokens


# -- step 3: classification ------------------------------------------------------


def _collect_def_names(tokens):
    names = set()
    prev = None
    for tok in tokens:
        if not tok.is_significant():
            continue
        if prev is not None and prev.component is Component.KEYWORD \
                and prev.text == "def" and tok.component is Component.VARIABLE:
            names.add(tok.text)
        prev = tok
    return names


def _next_significant(tokens, i):
    for j in range(i, len(tokens)):
        if tokens[j].is_significant():
            return tokens[j]
    return None


def _fuse_dotted(tokens, i):
    """Extend an identifier at index i over adjacent ``.ident`` pairs.

    Returns (segments, end_index_exclusive); len(segments) == 1 means no dot
    was consumed.
    """
    segments = [tokens[i].text]
    j = i + 1
    while j + 1 < len(tokens):
        dot, ident = tokens[j], tokens[j + 1]
        if dot.component is not Component.SYMBOL or dot.text != ".":
            break
        if ident.component is not Component.VARIABLE:
            break
        if tokens[j - 1].span[1] != dot.span[0] or dot.span[1] != ident.span[0]:
            break
        segments.append(ident.text)
        j += 2
    return segments, j


def classify(tokens, tables=None):
    """Resolve provisional Variable tokens into their final components.

    Dotted composites become single tokens classified by receiver root and
    member name; bare identifiers are checked against the built-in class and
    function tables.  Idempotent: tokens that already carry a final component
    pass through unchanged.
    """
    tables = tables or load_default_tables()
    def_names = _collect_def_names(tokens)
    out = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.component is not Component.VARIABLE:
            out.append(tok)
            i += 1
            continue
        prev = next((t for t in reversed(out) if t.is_significant()), None)
        if prev is not None and prev.component is Component.KEYWORD:
            if prev.text == "def":
                out.append(Token(tok.text, Component.METHOD, tok.span))
                i += 1
                continue
            if prev.text == "class":
                out.append(Token(tok.text, Component.CLASS, tok.span))
                i += 1
                continue
        after_dot = (prev is not None and prev.component is Component.SYMBOL
                     and prev.text == "." and prev.span[1] == tok.span[0])
        segments, end = _fuse_dotted(tokens, i)
        called = _is_call(_next_significant(tokens, end))
        if len(segments) > 1 or after_dot:
            text = ".".join(segments)
            span = (tok.span[0], tokens[end - 1].span[1])
            component = _classify_dotted(segments, called, after_dot, def_names, tables)
            out.append(Token(text, component, span))
            i = end
            continue
        out.append(Token(tok.text, _classify_bare(tok.text, called, tables), tok.span))
        i += 1
    return out


def _is_call(tok):
    return tok is not None and tok.component is Component.SYMBOL and tok.text == "("


def _classify_dotted(segments, called, after_dot, def_names, tables):
    root, member = segments[0], segments[-1]
    if after_dot or root == "self":
        return Component.ATTRIBUTE_CALL
    if root in tables.modules:
        path = ".".join(segments)
        if path in tables._dotted_function_set:
            return Component.BUILTIN_METH_CALL
        if path in tables._dotted_attribute_set:
            return Component.BUILTIN_ATTR_CALL if called else Component.BUILTIN_ATTRIBUTE
        return Component.ATTRIBUTE_CALL
    if called and member in def_names:
        return Component.METHOD_CALL
    return Component.ATTRIBUTE_CALL


def _classify_bare(text, called, tables):
    if text in tables._class_set:
        return Component.BUILTIN_CLASS
    if called and text in tables._function_set:
        return Component.BUILTIN_METHOD
    return Component.VARIABLE


def tokenize(src, tables=None):
    """clean_code -> lex -> classify in one call."""
    tables = tables or load_default_tables()
    return classify(lex(clean_code(src), tables), tables)


def member_key(token):
    """Abstraction key for a call composite: the name after the last dot."""
    return token.text.rsplit(".", 1)[-1]


# -- golden corpus format ----------------------------------------------------------

_TOKEN_ESCAPES = {"\\": "\\\\", "\n": "\\n", "\t": "\\t"}
_TOKEN_UNESCAPES = {"\\\\": "\\", "\\n": "\n", "\\t": "\t"}


def escape_token_text(text):
    for raw, esc in _TOKEN_ESCAPES.items():
        text = text.replace(raw, esc)
    return text


def unescape_token_text(text):
    out = []
    i = 0
    while i < len(text):
        pair = text[i:i + 2]
        if pair in _TOKEN_UNESCAPES:
            out.append(_TOKEN_UNESCAPES[pair])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def parse_token_lines(text):
    out = []
    pos = 0
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        label, _, raw = line.partition("\t")
        tok_text = unescape_token_text(raw)
        out.append(Token(tok_text, component_from_label(label), (pos, pos + len(tok_text))))
        pos += len(tok_text)
    return out
