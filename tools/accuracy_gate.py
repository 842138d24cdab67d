"""Seeded zero-shot accuracy gate: does a change keep synthetic accuracy?

Trains lp3, gp3 and rn3 on ``synth.generate_family(512, 64, seed)`` for seeds
0-4 (default config, 2 epochs, patience 3), scores each model with
``zeval.evaluate_pairs`` in the code2text direction, once per source tree, and
compares the trees seed by seed:

    python3 tools/accuracy_gate.py BEFORE_TREE AFTER_TREE

A tree is a checkout of this repository; each is measured in its own process
that imports ``clcp`` from ``<tree>/src``, with BLAS pinned to one thread.  The
output is a markdown table of per-seed accuracies and differences, then one
row per family.  The rule was fixed before the gate was first used: the gate
fails, with exit status 1, if any family's mean accuracy falls by more than one
paired standard error (the standard deviation of its per-seed differences over
the square root of the number of seeds).  When every difference is 0 the error
is 0, and the gate passes.  A run takes about 45 s per tree on one core.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

FAMILIES = ("lp", "gp", "rn")
SEEDS = range(5)
TRAIN_PAIRS, TEST_PAIRS = 512, 64


def measure():
    """Accuracy per family and seed for the ``clcp`` on ``sys.path``."""
    from clcp import encoders, synth, training, zeval

    acc = {family: [] for family in FAMILIES}
    for seed in SEEDS:
        train_pairs, test_pairs = synth.generate_family(TRAIN_PAIRS, TEST_PAIRS, seed)
        for family in FAMILIES:
            config = encoders.config_for_family(family, 3, max_epochs=2, patience=3,
                                                seed=seed)
            result = training.train(train_pairs, config)
            acc[family].append(zeval.evaluate_pairs(
                result.model, result.vocab, result.text_vocab, test_pairs,
                "code2text").acc)
    return acc


def measure_tree(tree):
    src = Path(tree).resolve() / "src"
    if not (src / "clcp").is_dir():
        raise SystemExit(f"{tree}: no src/clcp in this tree")
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--measure"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def compare(before, after):
    """Markdown lines and whether every family passes the rule."""
    lines = ["| family | seed | before | after | diff |", "|---|---|---|---|---|"]
    for family in FAMILIES:
        for seed, b, a in zip(SEEDS, before[family], after[family]):
            lines.append(f"| {family} | {seed} | {b:.4f} | {a:.4f} | {a - b:+.4f} |")
    lines += ["", "| family | mean before | mean after | mean diff | paired SE | verdict |",
              "|---|---|---|---|---|---|"]
    passed = True
    for family in FAMILIES:
        diffs = [a - b for b, a in zip(before[family], after[family])]
        mean = statistics.fmean(diffs)
        se = statistics.stdev(diffs) / math.sqrt(len(diffs))
        ok = mean >= -se
        passed &= ok
        lines.append(f"| {family} | {statistics.fmean(before[family]):.4f} | "
                     f"{statistics.fmean(after[family]):.4f} | {mean:+.4f} | {se:.4f} | "
                     f"{'pass' if ok else 'FAIL'} |")
    return lines, passed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE",
                        help="the source tree before the change, then after it")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if len(args.trees) != 2:
        parser.error("give two trees: BEFORE_TREE AFTER_TREE")
    lines, passed = compare(*(measure_tree(tree) for tree in args.trees))
    print("\n".join(lines))
    print(f"\ngate: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
