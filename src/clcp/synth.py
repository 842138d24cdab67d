"""Template-generated (code, description) pairs for desk-scale experiments.

Each operation has one code shape built from distinctive fixed-ID tokens
(builtins, operators, literals) and a family of single-sentence descriptions
sharing a core term.  Train and held-out instantiations draw from disjoint
identifier pools and disjoint phrasing/noun slices, so held-out pairs are
unseen combinations of seen vocabulary.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .ingest import PairRecord


@dataclass(frozen=True)
class OpTemplate:
    slug: str
    kind: str          # value | bool
    code: str          # format slots: f, x, xs, a, b, v, i, t, k
    core: str          # format slot: noun, k


# Entities inside one component carry adjacent IDs (that is the point of the
# encoding), so ops must differ in token *structure*, not merely in which
# operator or builtin they mention: distinct line counts, call nesting, and
# cross-component patterns keep every pair of templates far apart as images.
OPS = (
    OpTemplate("maximum", "value",
               "def {f}({xs}):\n    return max({xs})\n",
               "the maximum of {noun}"),
    OpTemplate("minimum", "value",
               "def {f}({xs}):\n    {v} = min({xs})\n    return {v}\n",
               "the minimum of {noun}"),
    OpTemplate("total", "value",
               "def {f}({xs}):\n    {v} = 0\n    for {i} in {xs}:\n"
               "        {v} = {v} + {i}\n    return {v}\n",
               "the sum of {noun}"),
    OpTemplate("length", "value",
               "def {f}({xs}):\n    return len(list({xs}))\n",
               "the length of {noun}"),
    OpTemplate("sorted_copy", "value",
               "def {f}({xs}):\n    {v} = sorted({xs})\n    return list({v})\n",
               "{noun} in sorted order"),
    OpTemplate("reversed_copy", "value",
               "def {f}({xs}):\n    return {xs}[::-1]\n",
               "{noun} in reverse order"),
    OpTemplate("absolute", "value",
               "def {f}({x}):\n    if {x} < 0:\n        return 0 - {x}\n    return {x}\n",
               "the absolute value of {noun}"),
    OpTemplate("rounded", "value",
               "def {f}({x}):\n    return int({x} + 0.5)\n",
               "{noun} rounded to the nearest integer"),
    OpTemplate("double", "value",
               "def {f}({x}):\n    return {x} + {x}\n",
               "the double of {noun}"),
    OpTemplate("square", "value",
               "def {f}({x}):\n    {v} = {x} * {x}\n    return {v}\n",
               "the square of {noun}"),
    OpTemplate("halve", "value",
               "def {f}({x}):\n    return {x} / 2\n",
               "half of {noun}"),
    OpTemplate("increment", "value",
               "def {f}({x}):\n    return 1 + {x}\n",
               "{noun} increased by one"),
    OpTemplate("decrement", "value",
               "def {f}({x}):\n    {v} = {x} - 1\n    return int({v})\n",
               "{noun} decreased by one"),
    OpTemplate("negate", "value",
               "def {f}({x}):\n    return -{x}\n",
               "the negation of {noun}"),
    OpTemplate("first_item", "value",
               "def {f}({xs}):\n    return {xs}[0]\n",
               "the first element of {noun}"),
    OpTemplate("last_item", "value",
               "def {f}({xs}):\n    {v} = {xs}[-1]\n    return {v}\n",
               "the last element of {noun}"),
    OpTemplate("average", "value",
               "def {f}({xs}):\n    return sum({xs}) / len({xs})\n",
               "the average of {noun}"),
    OpTemplate("distinct", "value",
               "def {f}({xs}):\n    {v} = set({xs})\n    return sorted({v})\n",
               "the distinct values of {noun}"),
    OpTemplate("count_target", "value",
               "def {f}({xs}, {t}):\n    {v} = 0\n    for {i} in {xs}:\n"
               "        if {i} == {t}:\n            {v} = {v} + 1\n    return {v}\n",
               "how many times the target occurs in {noun}"),
    OpTemplate("contains", "bool",
               "def {f}({xs}, {t}):\n    return {t} in {xs}\n",
               "{noun} contains the target"),
    OpTemplate("is_empty", "bool",
               "def {f}({xs}):\n    return len({xs}) == 0\n",
               "{noun} is empty"),
    OpTemplate("is_even", "bool",
               "def {f}({x}):\n    if {x} % 2 == 0:\n        return True\n    return False\n",
               "{noun} is even"),
    OpTemplate("is_odd", "bool",
               "def {f}({x}):\n    return {x} % 2 == 1\n",
               "{noun} is odd"),
    OpTemplate("is_positive", "bool",
               "def {f}({x}):\n    return not {x} <= 0\n",
               "{noun} is positive"),
    OpTemplate("paired", "value",
               "def {f}({a}, {b}):\n    return list(zip({a}, {b}))\n",
               "the elementwise pairs of the two lists"),
    OpTemplate("enumerated", "value",
               "def {f}({xs}):\n    return list(enumerate({xs}))\n",
               "the items of {noun} with their positions"),
    OpTemplate("count_up", "value",
               "def {f}({x}):\n    {v} = range(0, {x})\n    return list({v})\n",
               "the integers from zero up to {noun}"),
    OpTemplate("cube", "value",
               "def {f}({x}):\n    return {x} * {x} * {x}\n",
               "the cube of {noun}"),
    OpTemplate("square_root", "value",
               "def {f}({x}):\n    return math.sqrt({x})\n",
               "the square root of {noun}"),
    OpTemplate("floor_value", "value",
               "def {f}({x}):\n    {v} = math.floor({x})\n    return int({v})\n",
               "the floor of {noun}"),
    OpTemplate("ceiling_value", "value",
               "def {f}({x}):\n    return int(math.ceil({x}))\n",
               "the ceiling of {noun}"),
    OpTemplate("hypotenuse", "value",
               "def {f}({a}, {b}):\n    {v} = {a} * {a} + {b} * {b}\n"
               "    return math.sqrt({v})\n",
               "the hypotenuse of the two sides"),
    OpTemplate("larger_of_two", "value",
               "def {f}({a}, {b}):\n    if {a} > {b}:\n        return {a}\n    return {b}\n",
               "the larger of the two numbers"),
    OpTemplate("smaller_of_two", "value",
               "def {f}({a}, {b}):\n    if {a} < {b}:\n        return {a}\n"
               "    else:\n        return {b}\n",
               "the smaller of the two numbers"),
    OpTemplate("addition", "value",
               "def {f}({a}, {b}):\n    return {a} + {b}\n",
               "the addition of the two numbers"),
    OpTemplate("difference", "value",
               "def {f}({a}, {b}):\n    {v} = {a} - {b}\n    return {v}\n",
               "the difference of the two numbers"),
    OpTemplate("product", "value",
               "def {f}({a}, {b}):\n    {v} = {a}\n    {v} = {v} * {b}\n    return {v}\n",
               "the product of the two numbers"),
    OpTemplate("quotient", "value",
               "def {f}({a}, {b}):\n    {v} = float({a})\n    return {v} / {b}\n",
               "the quotient of the two numbers"),
    OpTemplate("remainder", "value",
               "def {f}({a}, {b}):\n    while {a} >= {b}:\n        {a} = {a} - {b}\n"
               "    return {a}\n",
               "the remainder of the first number modulo the second"),
)

_VALUE_PREFIX = ("return", "compute", "get", "find", "give back", "produce")
_BOOL_PREFIX = ("check whether", "tell whether", "test if", "determine whether",
                "report whether", "decide if")
_LIST_NOUNS = ("a list", "the list", "the given list", "the input values",
               "the sequence", "the provided items", "an array", "the collection")
_SCALAR_NOUNS = ("a number", "the value", "the input number", "a given value",
                 "the argument", "an input", "the quantity", "the operand")

_POOLS = {
    "train": {
        "f": ("compute", "process", "derive", "resolve", "produce_fn",
              "obtain", "gather", "measure"),
        "xs": ("items", "values", "numbers", "entries", "data"),
        "x": ("value", "num", "amount", "figure", "quantity"),
        "a": ("lhs", "first_num", "alpha", "p"),
        "b": ("rhs", "second_num", "beta", "q"),
        "v": ("result", "acc", "tally"),
        "i": ("item", "elem", "entry"),
        "t": ("target", "needle", "wanted"),
        "prefix": (0, 4),   # slice of the prefix tuple
        "noun": (0, 5),
    },
    "heldout": {
        "f": ("handle", "examine", "inspect", "assemble"),
        "xs": ("series", "bundle", "collection"),
        "x": ("magnitude", "scalar_in"),
        "a": ("left_part", "top"),
        "b": ("right_part", "bottom"),
        "v": ("holder", "keeper"),
        "i": ("member", "thing"),
        "t": ("sought", "goal"),
        "prefix": (4, 6),
        "noun": (5, 8),
    },
}


def _scalar_noun(op):
    return op.code.count("{xs}") == 0 and op.code.count("{a}") == 0


def _instantiate(op, rng, pools):
    slots = {name: rng.choice(pools[name]) for name in ("f", "xs", "x", "a", "b",
                                                        "v", "i", "t")}
    code = op.code.format(**slots)
    prefixes = _VALUE_PREFIX if op.kind == "value" else _BOOL_PREFIX
    lo, hi = pools["prefix"]
    prefix = prefixes[rng.randrange(lo, hi)]
    nouns = _SCALAR_NOUNS if _scalar_noun(op) else _LIST_NOUNS
    lo, hi = pools["noun"]
    noun = nouns[rng.randrange(lo, hi)]
    doc = f"{prefix} {op.core.format(noun=noun)}"
    return code, doc


def generate_pairs(n, seed, split="train"):
    """n pairs cycling through the operations, seeded and deterministic."""
    if split not in _POOLS:
        raise ValueError(f"split must be one of {sorted(_POOLS)}, got {split!r}")
    rng = random.Random(seed)
    pools = _POOLS[split]
    records = []
    for idx in range(n):
        op = OPS[idx % len(OPS)]
        code, doc = _instantiate(op, rng, pools)
        records.append(PairRecord(f"synth-{split}-{seed}-{idx:05d}", code, doc))
    return records


def generate_family(n_train, n_test, seed):
    """Disjointly instantiated train and held-out pools over the same ops."""
    return (generate_pairs(n_train, seed, "train"),
            generate_pairs(n_test, seed + 1, "heldout"))
