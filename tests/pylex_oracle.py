"""Reference lexer and classifier: one token at a time, for differential tests.

A straightforward ``finditer`` lexer and a token-by-token classifier over the
same grammar and rules as ``clcp.pylex.lex`` and ``clcp.pylex.classify``.  It
is slow and kept only as an independent oracle.
"""
from __future__ import annotations

import re

from clcp.pylex import (
    LAYOUT,
    PLACEHOLDER_TEXT,
    Component,
    LexError,
    Token,
    _classify_bare,
    _classify_dotted,
    clean_code,
    load_default_tables,
)

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

_GROUP_COMPONENT = {
    "number": Component.NUMBER,
    "operator": Component.OPERATOR,
    "symbol": Component.SYMBOL,
    "space": Component.WHITESPACE,
    "newline": Component.NEWLINE,
}


def lex(src, tables=None):
    keywords = (tables or load_default_tables()).keywords
    tokens = []
    pos = 0
    for m in _MASTER_RE.finditer(src):
        if m.start() != pos:   # finditer skipped a character no group matches
            break
        text, kind = m.group(), m.lastgroup
        if kind == "name":
            component = (Component.KEYWORD if text in keywords else
                         Component.PLACEHOLDER if text == PLACEHOLDER_TEXT else
                         Component.VARIABLE)
        else:
            component = _GROUP_COMPONENT[kind]
        tokens.append(Token(text, component))
        pos = m.end()
    if pos < len(src):
        raise LexError(f"unexpected character {src[pos]!r}", (pos, pos + 1))
    return tokens


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
    segments = [tokens[i].text]
    j = i + 1
    while j + 1 < len(tokens):
        dot, ident = tokens[j], tokens[j + 1]
        if dot.component is not Component.SYMBOL or dot.text != ".":
            break
        if ident.component is not Component.VARIABLE:
            break
        segments.append(ident.text)
        j += 2
    return segments, j


def classify(tokens, tables=None):
    tables = tables or load_default_tables()
    def_names = _collect_def_names(tokens)
    out = []
    prev = None   # the last significant token of out
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.component is not Component.VARIABLE:
            out.append(tok)
            if tok.component not in LAYOUT:
                prev = tok
            i += 1
            continue
        if prev is not None and prev.component is Component.KEYWORD \
                and prev.text in ("def", "class"):
            component = Component.METHOD if prev.text == "def" else Component.CLASS
            prev = Token(tok.text, component)
            out.append(prev)
            i += 1
            continue
        # only a ``.`` directly before the name, with no layout between
        after_dot = out[-1:] == [Token(".", Component.SYMBOL)]
        segments, end = _fuse_dotted(tokens, i)
        nxt = _next_significant(tokens, end)
        called = nxt is not None and nxt.component is Component.SYMBOL and nxt.text == "("
        if len(segments) > 1 or after_dot:
            text = ".".join(segments)
            component = _classify_dotted(segments, called, after_dot, def_names, tables)
        else:
            text = tok.text
            component = _classify_bare(text, called, tables)
        prev = Token(text, component)
        out.append(prev)
        i = end
    return out


def tokenize(src, tables=None):
    tables = tables or load_default_tables()
    return classify(lex(clean_code(src), tables), tables)
