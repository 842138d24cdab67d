"""Lexer front end: cleaning, tokenization, classification."""
import ast
import sysconfig
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pylex_oracle
from clcp.pylex import (
    LAYOUT,
    Component,
    LexError,
    Token,
    clean_code,
    classify,
    lex,
    load_default_tables,
    member_key,
    tokenize,
)


def sig(tokens):
    return [(t.component.value, t.text) for t in tokens if t.component not in LAYOUT]


class TestCleanCode:
    def test_messy_print_string(self):
        assert clean_code('print("a#$%~!")') == "print(STR)"

    def test_identity_when_nothing_messy(self):
        assert clean_code("x = 1") == "x = 1"

    def test_string_and_comment(self):
        assert clean_code('s = "hello"  # greet') == "s = STR"

    def test_comment_only_line_keeps_line_break(self):
        assert clean_code("a = 1  # one\nb = 2\n") == "a = 1\nb = 2\n"

    def test_triple_quoted_docstring(self):
        src = 'def f():\n    """Doc."""\n    return 1\n'
        assert clean_code(src) == "def f():\n    STR\n    return 1\n"

    def test_prefixed_and_escaped_strings(self):
        assert clean_code(r'p = r"C:\x"') == "p = STR"
        assert clean_code("q = f'{a}'") == "q = STR"
        assert clean_code('r2 = "a\\"b"') == "r2 = STR"

    def test_hash_inside_string_is_not_a_comment(self):
        assert clean_code('u = "a#b" + c') == "u = STR + c"

    def test_unterminated_string_is_total(self):
        assert clean_code('x = "oops\ny = 1\n') == "x = STR\ny = 1\n"

    def test_crlf_normalized(self):
        assert clean_code("a = 1\r\nb = 2\r\n") == "a = 1\nb = 2\n"

    def test_backslash_continuation_joins_lines(self):
        src = "x = 1 + \\\n    2\n"
        assert clean_code(src) == "x = 1 +     2\n"
        assert tokenize(src) == tokenize("x = 1 +     2\n")
        # in a literal it stays the literal's; a comment ending in one joins nothing
        assert clean_code('s = "a\\\nb" + \\\n c\n') == "s = STR +  c\n"
        assert clean_code("a = 1  # C:\\\nb = 2\n") == "a = 1\nb = 2\n"

    def test_stray_backslash_is_left_for_lex(self):
        assert clean_code("x = \\ 1") == "x = \\ 1"
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("x = \\ 1")

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(
        ['"', "'", '"""', "'''", "#", "\\", "\n", "\r", " ", "x", "uu", "r", "b",
         "f", "Rb", "u", "=", "1"]), max_size=40).map("".join))
    def test_output_holds_no_quote_or_comment(self, src):
        # lex has no string or comment grammar: it relies on this
        cleaned = clean_code(src)
        assert not set("\"'#") & set(cleaned), (src, cleaned)


class TestLex:
    def test_empty_input(self):
        assert lex("") == []

    def test_spec_shape(self):
        tokens = lex("def f():\n  return 1")
        assert [(t.component.value, t.text) for t in tokens] == [
            ("Keyword", "def"), ("Whitespace", " "), ("Variable", "f"),
            ("Symbol", "("), ("Symbol", ")"), ("Symbol", ":"), ("Newline", "\n"),
            ("Whitespace", "  "), ("Keyword", "return"), ("Whitespace", " "),
            ("Number", "1"),
        ]

    def test_comparison_operator(self):
        assert [(t.component.value, t.text) for t in lex("a>b")] == [
            ("Variable", "a"), ("Operator", ">"), ("Variable", "b")]

    def test_augmented_assign_splits(self):
        kinds = [t.text for t in lex("x //= 2") if t.component is Component.OPERATOR]
        assert kinds == ["//", "="]

    def test_numbers(self):
        texts = [t.text for t in lex("1 2.5 .5 1. 2e3 0xff 0b10 1_000")
                 if t.component is Component.NUMBER]
        assert texts == ["1", "2.5", ".5", "1.", "2e3", "0xff", "0b10", "1_000"]

    def test_round_trip_concatenation(self):
        src = "def f(a, b):\n    c = a + b\n    return c * 2\n"
        assert "".join(t.text for t in lex(src)) == src

    def test_walrus_is_one_operator(self):
        assert [(t.component.value, t.text) for t in lex("a := 1")] == [
            ("Variable", "a"), ("Whitespace", " "), ("Operator", ":="),
            ("Whitespace", " "), ("Number", "1")]

    def test_non_ascii_digit_is_a_number(self):
        assert lex("\u0663") == [Token("\u0663", Component.NUMBER)]

    def test_raw_quote_is_an_unexpected_character(self):
        # lex takes cleaned source, which holds no quote
        with pytest.raises(LexError, match="unexpected character") as err:
            lex('x = "oops')
        assert err.value.span == (4, 5)

    def test_long_space_run_is_one_token(self):
        assert lex(" " * 100) == [Token(" " * 100, Component.WHITESPACE)]

    def test_long_tab_run_is_one_token(self):
        assert lex("x\t" + "\t" * 9) == [Token("x", Component.VARIABLE),
                                         Token("\t" * 10, Component.WHITESPACE)]

    def test_token_is_its_text_and_component(self):
        # exactly the (text, component) key of a vocabulary's fixed table
        assert Token._fields == ("text", "component")
        assert lex("def") == [("def", Component.KEYWORD)]

    def test_texts_tile_the_source(self):
        src = "a = b + 12\n"
        pos = 0
        for t in lex(src):
            assert t.text and src.startswith(t.text, pos)
            pos += len(t.text)
        assert pos == len(src)


class TestClassify:
    def test_attribute_call_composite(self):
        tokens = tokenize("address.strip()")
        assert sig(tokens) == [("AttributeCall", "address.strip"),
                               ("Symbol", "("), ("Symbol", ")")]

    def test_builtin_method(self):
        assert sig(tokenize("print(x)")) == [
            ("BuiltinMethod", "print"), ("Symbol", "("), ("Variable", "x"),
            ("Symbol", ")")]

    def test_class_definition(self):
        assert sig(tokenize("class Foo:")) == [
            ("Keyword", "class"), ("Class", "Foo"), ("Symbol", ":")]

    def test_method_definition(self):
        assert ("Method", "f") in sig(tokenize("def f():\n    pass\n"))

    def test_builtin_dotted_function_and_attribute(self):
        toks = sig(tokenize("y = math.sqrt(math.pi)"))
        assert ("BuiltinMethCall", "math.sqrt") in toks
        assert ("BuiltinAttribute", "math.pi") in toks

    def test_builtin_attr_call_needs_call_suffix(self):
        assert ("BuiltinAttrCall", "datetime.datetime") in sig(
            tokenize("d = datetime.datetime(2020, 1, 1)"))
        assert ("BuiltinAttribute", "datetime.datetime") in sig(
            tokenize("d = datetime.datetime"))

    def test_self_qualified_is_attribute_call(self):
        assert ("AttributeCall", "self.total") in sig(tokenize("self.total = 1"))

    def test_method_call_on_known_def(self):
        src = "def helper(x):\n    return x\n\ndef outer(o):\n    return o.helper(1)\n"
        assert ("MethodCall", "o.helper") in sig(tokenize(src))

    def test_unknown_member_is_attribute_call(self):
        assert ("AttributeCall", "o.helper") in sig(tokenize("o.helper(1)"))

    def test_uncalled_builtin_function_stays_variable(self):
        assert ("Variable", "len") in sig(tokenize("k = sorted(xs, key=len)"))

    def test_classify_idempotent(self):
        tables = load_default_tables()
        tokens = tokenize("def f(a):\n    return a.strip() + math.sqrt(2)\n", tables)
        assert classify(tokens, tables) == tokens

    def test_member_key_strips_receiver(self):
        tok = next(t for t in tokenize("a.b.strip()") if t.component is
                   Component.ATTRIBUTE_CALL)
        assert member_key(tok) == "strip"


# Sources over a code alphabet: keywords, a self receiver, module roots and
# their members, built-in names, the string placeholder, plain names, numbers
# (one of them a non-ASCII digit), dots, calls, operators (``:=`` among them),
# layout runs and characters no token starts with.
_CODE_PIECES = st.one_of(
    st.sampled_from(["def", "class", "return", "not", "None", "lambda", "self", "self.",
                     "os", "os.path", ".path", ".join", "math.pi", "len", "print", "int",
                     "STR", "x", "f", "a_1", "0", "7", "0x1f", "2.", ".5", "1e3", ".", "().",
                     "\u0663", "(", ")", "[", ",", ":", "=", ":=", "+", "**", "->",
                     "\n", "$", "?", "\u00e9"]),
    st.integers(1, 100).map(" ".__mul__),
    st.integers(1, 10).map("\t".__mul__),
)


def _outcome(stage, arg):
    """A stage's tokens, or the message and span of the LexError it raised."""
    try:
        return stage(arg)
    except LexError as err:
        return str(err), err.span


class TestAgainstReference:
    """The bulk lexer and classifier against a token-at-a-time reference."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_CODE_PIECES, max_size=60).map("".join))
    # composites right after a ``.``: on a module root, and on a def's name
    @example("g().os.path.join(a)")
    @example("def f(): STR.x.f()")
    @example("if (n := f(x)):")
    def test_every_stage_matches(self, src):
        tokens = _outcome(lex, src)
        assert tokens == _outcome(pylex_oracle.lex, src)
        if isinstance(tokens, list):
            # without layout, names and dots that had spaces between them become
            # neighbours, so fusion and the after-a-dot rule see new pairs
            for seq in (tokens, [t for t in tokens if t.component not in LAYOUT]):
                assert classify(seq) == pylex_oracle.classify(seq)
        assert _outcome(tokenize, src) == _outcome(pylex_oracle.tokenize, src)


# Standard-library modules whose functions hold backslash continuations outside
# literals on Python 3.10 and 3.11 (csv.Sniffer.sniff, shlex.shlex.pop_source,
# string.Formatter._vformat, textwrap.dedent, warnings.filterwarnings).
CONTINUATION_MODULES = ("csv", "shlex", "string", "textwrap", "warnings")


def test_every_function_in_stdlib_modules_tokenizes():
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    continued = 0
    for name in CONTINUATION_MODULES:
        src = (stdlib / f"{name}.py").read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                code = ast.get_source_segment(src, node)
                continued += "\\\n" in code
                assert tokenize(code), f"{name}.{node.name}"
    assert continued >= len(CONTINUATION_MODULES)


class TestGoldenCorpus:
    def test_hand_tokenization_oracle(self, golden_token_pairs):
        assert len(golden_token_pairs) >= 20
        for name, (src, expected) in golden_token_pairs.items():
            got = tokenize(src)
            assert [(t.component, t.text) for t in got] == \
                   [(t.component, t.text) for t in expected], f"{name} mismatch"

    def test_round_trip_over_corpus(self, golden_sources):
        assert len(golden_sources) >= 200
        for name, src in golden_sources.items():
            cleaned = clean_code(src)
            tokens = lex(cleaned)
            assert "".join(t.text for t in tokens) == cleaned, name

    def test_no_provisional_identifiers_escape(self, golden_token_pairs):
        # on the hand corpus, surviving Variables are exactly the hand-marked ones
        for name, (src, expected) in golden_token_pairs.items():
            got_vars = [t.text for t in tokenize(src) if t.component is Component.VARIABLE]
            want_vars = [t.text for t in expected if t.component is Component.VARIABLE]
            assert got_vars == want_vars, name
