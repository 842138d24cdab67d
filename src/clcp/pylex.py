"""Tokenizer for a Python subset, with component classification.

The front end turns source text into classified tokens in three stages:

* ``clean_code`` replaces every string literal with the placeholder ``STR``
  and removes comments, keeping line structure intact;
* ``lex`` splits cleaned text into tokens (keywords, operators, numbers,
  symbols, whitespace runs, newlines) in one regex pass, classifying
  identifiers provisionally as Variable;
* ``classify`` visits only those Variables: it fuses dotted composites
  (``a.strip``) into single tokens and resolves identifier components against
  the built-in tables.

A ``Token`` is a named tuple ``(text, component)``, exactly its key in the
vocabulary's fixed table; whitespace and newline tokens (``LAYOUT``) are the
only ones that are not significant.  The concatenation of ``lex``'s token texts
always reproduces the lexed source exactly, so a token's offsets are the
running sum of the texts before it.
"""
from __future__ import annotations

import enum
import re
import string
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import compress, repeat
from operator import is_, itemgetter
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
    """One lexical unit: its text and component class."""

    text: str
    component: Component


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
        object.__setattr__(self, "_text_component", {  # lex's text -> component table
            **dict(self.symbols), PLACEHOLDER_TEXT: Component.PLACEHOLDER,
            **dict.fromkeys(self.keywords, Component.KEYWORD)})
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
# A run of text copied unchanged: anything but a comment, a quote, a backslash
# or an identifier directly followed by a quote (which may be a string prefix).
_PLAIN_RE = re.compile(r"(?:[^#\"'\\A-Za-z_]+|[A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_\"']))+")


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

    Line breaks outside literals are preserved, except that a backslash
    continuation joins its two lines, as Python's tokenizer does; whitespace
    that only padded a removed comment is dropped with it.
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
        if ch == "\\":
            if src.startswith("\n", i + 1):
                i += 2
            else:   # no continuation: lex rejects it
                append(ch)
                i += 1
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

# The token grammar.  The first branch that matches wins.  Two branches share
# a first character with the symbols: a number may start with ``.`` and the
# operator ``:=`` with ``:``, so numbers and operators are tried before symbols;
# names and layout come first because they are the most common tokens.
_TOKEN_RE = re.compile(
    r"""
        [A-Za-z_][A-Za-z0-9_]*
      | \ +|\n|\t+
      | 0[xX][0-9a-fA-F_]+
      | 0[bB][01_]+
      | 0[oO][0-7_]+
      | \d[\d_]*\.\d[\d_]*(?:[eE][+-]?\d+)?
      | \d[\d_]*\.(?:[eE][+-]?\d+)?
      | \.\d[\d_]*(?:[eE][+-]?\d+)?
      | \d[\d_]*(?:[eE][+-]?\d+)?
      | \*\*|//|<<|>>|<=|>=|==|!=|:=|->|[-+*/%@&|^~<>=]
      | [()\[\]{},:;.]
    """,
    re.VERBOSE,
)

#: Component of a token absent from the text table, by its first character: a
#: name or a whitespace run; any other such token is a number (``\d`` also
#: matches non-ASCII digits).
_FIRST_CHAR_COMPONENT = {
    **dict.fromkeys(string.ascii_letters + "_", Component.VARIABLE),
    " ": Component.WHITESPACE, "\t": Component.WHITESPACE,
}


def lex(src, tables=None):
    """Tokenize cleaned source in one regex pass; identifiers come out as Variables.

    Whitespace is emitted as maximal same-character runs and newlines one per
    character, so the token texts tile ``src``.  A token's component is that of
    its text in the tables (keywords, ``STR``, operators, symbols, single layout
    characters), else a name or a whitespace run by its first character, else
    Number.  A character no token starts with, such as a quote or ``#``
    (``clean_code`` leaves none), raises ``LexError`` at the first offset where
    the matched texts stop tiling ``src``; only then are offsets computed.
    """
    texts = _TOKEN_RE.findall(src)
    if sum(map(len, texts)) != len(src):   # findall skipped a character
        pos = 0
        for text in texts:
            if not src.startswith(text, pos):
                break
            pos += len(text)
        raise LexError(f"unexpected character {src[pos]!r}", (pos, pos + 1))
    components = map((tables or load_default_tables())._text_component.get, texts,
                     map(_FIRST_CHAR_COMPONENT.get, map(itemgetter(0), texts),
                         repeat(Component.NUMBER)))
    # tuple.__new__ builds each Token in C, skipping Token's Python-level __new__
    return list(map(tuple.__new__, repeat(Token), zip(texts, components)))


# -- step 3: classification ------------------------------------------------------


def classify(tokens, tables=None):
    """Resolve provisional Variable tokens into their final components.

    Only Variable tokens are visited.  A name after ``def`` is a Method and one
    after ``class`` a Class.  A name directly followed by ``.name`` pairs fuses
    with them into one composite token, classified by receiver root and member
    name (a called member that some ``def`` of the input names is a
    MethodCall), as is a name directly after a ``.``.  "Directly" means
    neighbouring in ``tokens``, with no layout token between; on ``lex`` output,
    neighbouring tokens are adjacent in the source.  A bare name is checked
    against the built-in class and function tables; "called" means the next
    significant token is ``(``.  Every token whose component does not change
    is passed through as the same object, so the function is idempotent.
    """
    tables = tables or load_default_tables()
    texts = list(map(itemgetter(0), tokens))
    comps = list(map(itemgetter(1), tokens))
    variable, keyword, symbol = Component.VARIABLE, Component.KEYWORD, Component.SYMBOL
    n = len(tokens)
    names = list(compress(range(n), map(is_, comps, repeat(variable))))
    # Index of the significant input token before each name, or -1.  It stands
    # for the last significant output token: a fused or resolved name is never
    # a keyword or a ``.``, the only tokens the rules look back at.
    prevs = []
    for i in names:
        p = i - 1
        while p >= 0 and comps[p] in LAYOUT:
            p -= 1
        prevs.append(p)
    def_names = {texts[i] for i, p in zip(names, prevs)
                 if p >= 0 and texts[p] == "def" and comps[p] is keyword}
    out, done = [], 0   # tokens[done:] are not in out yet
    for i, p in zip(names, prevs):
        if i < done:   # fused into the composite before it
            continue
        prev_text = texts[p] if p >= 0 else None
        if prev_text in ("def", "class") and comps[p] is keyword:
            end, text = i + 1, texts[i]
            component = Component.METHOD if prev_text == "def" else Component.CLASS
        else:
            end = i + 1
            while (end + 1 < n and texts[end] == "." and comps[end] is symbol
                   and comps[end + 1] is variable):
                end += 2
            nxt = end
            while nxt < n and comps[nxt] in LAYOUT:
                nxt += 1
            called = nxt < n and texts[nxt] == "(" and comps[nxt] is symbol
            after_dot = p == i - 1 and prev_text == "." and comps[p] is symbol
            if end > i + 1 or after_dot:
                segments = texts[i:end:2]
                text = ".".join(segments)
                component = _classify_dotted(segments, called, after_dot, def_names, tables)
            else:
                text = texts[i]
                component = _classify_bare(text, called, tables)
                if component is variable:
                    continue
        out += tokens[done:i]
        out.append(Token(text, component))
        done = end
    out += tokens[done:]
    return out


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

