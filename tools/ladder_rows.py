"""Seeded ablation-ladder rows: does a change keep every row of the bench ladder?

Builds the ``ladder`` benchmark workload's inputs for seed 601 through this
checkout's ``bench/workloads.py`` (``Ladder.setup``), runs
``zeval.run_ablations(..., workers=1)`` on them once per source tree, and
compares the trees row by row:

    python3 tools/ladder_rows.py BEFORE_TREE AFTER_TREE

A tree is a checkout of this repository; each is measured in its own process
that imports ``clcp`` from ``<tree>/src``, with BLAS pinned to one thread.  A
row is its (config_id, train_size, regime, L, correct, failed); the flags
``run_ablations`` returns are compared as a whole.  The output is
``identical``, or one line per row that differs and one for the flags, and
then the exit status is 1.  A numeric change may move rows for a stated
reason, so this is a report beside the accuracy gate, not a gate.  A run takes
a few seconds per tree on one core.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 601
ROW_FIELDS = ("config_id", "train_size", "regime", "L", "correct", "failed")


def measure():
    """Rows and flags of the bench ladder for the ``clcp`` on ``sys.path``."""
    from clcp import zeval
    from workloads import Ladder

    ladder = Ladder()
    ladder.setup(SEED)
    cells, flags = zeval.run_ablations(ladder.records, ladder.plan,
                                       base_config=ladder.base, workers=1)
    rows = [[getattr(r, name) for name in ROW_FIELDS] for cell in cells for r in cell.cells]
    return {"rows": rows, "flags": flags}


def measure_tree(tree):
    src = Path(tree).resolve() / "src"
    if not (src / "clcp").is_dir():
        raise SystemExit(f"{tree}: no src/clcp in this tree")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(BENCH))),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--measure"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def compare(before, after):
    """Lines naming each row that differs, by its (config_id, train_size,
    regime), and the flags if they differ, or ``["identical"]``; and whether
    everything matched, row order included."""
    old, new = ({tuple(row[:3]): row for row in side["rows"]} for side in (before, after))
    lines = [f"{' '.join(map(str, key))}: before {old.get(key)}, after {new.get(key)}"
             for key in dict.fromkeys([*old, *new]) if old.get(key) != new.get(key)]
    if not lines and before["rows"] != after["rows"]:
        lines.append("the same rows in another order or number")
    if before["flags"] != after["flags"]:
        lines.append(f"flags: before {before['flags']}, after {after['flags']}")
    return lines or ["identical"], not lines


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
    before, after = (measure_tree(tree) for tree in args.trees)
    lines, same = compare(before, after)
    print(f"{len(before['rows'])} rows before, {len(after['rows'])} after")
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
