"""Tokenizer for a Python subset, with component classification.

The front end turns source text into classified tokens in three stages:

* ``clean_code`` replaces every string literal with the placeholder ``STR``
  and removes comments, keeping line structure intact;
* ``lex`` splits cleaned text into tokens (keywords, operators, numbers,
  symbols, whitespace runs, newlines), classifying identifiers provisionally
  as Variable;
* ``classify`` fuses dotted composites (``a.strip``) into single tokens and
  resolves identifier components against the built-in tables.

A ``Token`` is a named tuple ``(text, component, span)``; whitespace and
newline tokens (``LAYOUT``) are the only ones that are not significant.  The
concatenation of token texts always reproduces the lexed source exactly.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import NamedTuple


class Component(enum.Enum):
    """Token categories."""

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

    # Every token and every dict lookup on the front end's path hashes a
    # Component; Enum's default hash runs Python code on the member name.
    # Members are singletons compared by identity, so the identity hash agrees.
    __hash__ = object.__hash__


_BY_LABEL = {c.value: c for c in Component}


def component_from_label(label):
    try:
        return _BY_LABEL[label]
    except KeyError:
        raise ValueError(f"unknown component label {label!r}") from None


class Token(NamedTuple):
    """One lexical unit: text, component class, and (start, end) offsets."""

    text: str
    component: Component
    span: tuple[int, int]


#: Components of layout tokens; every other token is significant.
LAYOUT = frozenset((Component.WHITESPACE, Component.NEWLINE))


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
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# A run of text copied unchanged: anything but a comment, a quote or an
# identifier directly followed by a quote (which may be a string prefix).
_PLAIN_RE = re.compile(r"(?:[^#\"'A-Za-z_]+|[A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_\"']))+")


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
    src = src.lstrip("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    out = []
    append = out.append
    plain = _PLAIN_RE.match
    i, n = 0, len(src)
    while i < n:
        m = plain(src, i)
        if m is not None:
            append(m.group())
            i = m.end()
            if i == n:
                break
        ch = src[i]
        if ch == "#":
            while out:
                piece = out[-1].rstrip(" \t")
                if piece:
                    out[-1] = piece
                    break
                out.pop()
            i = src.find("\n", i)
            if i < 0:
                i = n
            continue
        if ch in "\"'":
            i = _scan_string(src, i)
            append(PLACEHOLDER_TEXT)
            continue
        # an identifier followed by a quote
        end = _IDENT_RE.match(src, i).end()
        word = src[i:end]
        if word.lower() in _STRING_PREFIX:
            i = _scan_string(src, end)
            append(PLACEHOLDER_TEXT)
            continue
        append(word)
        i = end
    return "".join(out)


# -- step 2: lexing -------------------------------------------------------------

_MASTER_RE = re.compile(
    r"""
    (?P<number>
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


#: Component of every non-name group of ``_MASTER_RE``.
_GROUP_COMPONENT = {
    "number": Component.NUMBER,
    "operator": Component.OPERATOR,
    "symbol": Component.SYMBOL,
    "space": Component.WHITESPACE,
    "newline": Component.NEWLINE,
}


def lex(src, tables=None):
    """Tokenize cleaned source; identifiers come out as provisional Variables.

    Whitespace is emitted as maximal same-character runs and newlines one per
    character, so the concatenation of token texts reproduces ``src``.
    A quote or ``#`` (``clean_code`` leaves none) is an unexpected character.
    """
    keywords = (tables or load_default_tables())._keyword_set
    group_component = _GROUP_COMPONENT
    keyword, placeholder, variable = Component.KEYWORD, Component.PLACEHOLDER, Component.VARIABLE
    tokens = []
    append = tokens.append
    pos = 0
    for m in _MASTER_RE.finditer(src):
        span = m.span()
        if span[0] != pos:   # finditer skipped a character no group matches
            break
        text = m.group()
        kind = m.lastgroup
        if kind == "name":
            component = (keyword if text in keywords else
                         placeholder if text == PLACEHOLDER_TEXT else variable)
        else:
            component = group_component[kind]
        append(Token(text, component, span))
        pos = span[1]
    if pos < len(src):
        raise LexError(f"unexpected character {src[pos]!r}", (pos, pos + 1))
    return tokens


# -- step 3: classification ------------------------------------------------------


def _collect_def_names(tokens):
    names = set()
    prev = None
    for tok in tokens:
        if tok.component in LAYOUT:
            continue
        if prev is not None and prev.component is Component.KEYWORD \
                and prev.text == "def" and tok.component is Component.VARIABLE:
            names.add(tok.text)
        prev = tok
    return names


def _next_significant(tokens, i):
    for j in range(i, len(tokens)):
        if tokens[j].component not in LAYOUT:
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
    variable, keyword, symbol = Component.VARIABLE, Component.KEYWORD, Component.SYMBOL
    out = []
    append = out.append
    prev = None   # the last significant token of out
    i, n = 0, len(tokens)
    while i < n:
        tok = tokens[i]
        component = tok.component
        if component is not variable:
            append(tok)
            if component not in LAYOUT:
                prev = tok
            i += 1
            continue
        if prev is not None and prev.component is keyword:
            if prev.text == "def":
                prev = Token(tok.text, Component.METHOD, tok.span)
                append(prev)
                i += 1
                continue
            if prev.text == "class":
                prev = Token(tok.text, Component.CLASS, tok.span)
                append(prev)
                i += 1
                continue
        after_dot = (prev is not None and prev.component is symbol
                     and prev.text == "." and prev.span[1] == tok.span[0])
        segments, end = _fuse_dotted(tokens, i)
        called = _is_call(_next_significant(tokens, end))
        if len(segments) > 1 or after_dot:
            text = ".".join(segments)
            span = (tok.span[0], tokens[end - 1].span[1])
            component = _classify_dotted(segments, called, after_dot, def_names, tables)
        else:
            text, span = tok.text, tok.span
            component = _classify_bare(text, called, tables)
        prev = Token(text, component, span)
        append(prev)
        i = end
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

_TOKEN_UNESCAPES = {"\\\\": "\\", "\\n": "\n", "\\t": "\t"}


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
