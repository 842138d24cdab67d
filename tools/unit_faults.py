"""Page faults per benchmark unit: does a change map fewer fresh pages?

Builds each benchmark workload's inputs for seed 601 through this checkout's
``bench/workloads.py`` and runs its units once per source tree, measuring each
unit with ``resource.getrusage(RUSAGE_SELF)`` and a wall clock:

    python3 tools/unit_faults.py BEFORE_TREE AFTER_TREE

A tree is a checkout of this repository; each run is its own process that
imports ``clcp`` from ``<tree>/src``, with BLAS pinned to one thread.  A unit
is the benchmark's ``run_unit``, with its speed probe, and the cyclic
collector runs between units, as in ``bench/run.py``.  After 3 warm-up units
the next 5 are measured; the output is a markdown table of each workload's
median minor page faults, system milliseconds and wall milliseconds per
unit, before and after.  A fault is the first touch of a page the allocator
has just mapped, so the count shows memory the program allocates afresh
rather than reuses.  Counts and times move with the machine and the
allocator, so this is a report, not a gate.  A run takes about ten seconds
per tree on one core.
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
WARMUP_UNITS = 3
UNITS = 5
COLUMNS = (("faults", "minor faults", 0), ("sys_ms", "sys ms", 1), ("wall_ms", "wall ms", 1))


def measure():
    """Median faults, system ms and wall ms per unit of each workload, for the
    ``clcp`` on ``sys.path``."""
    import gc
    import resource
    import statistics
    import time

    from probe import SpeedProbe
    from workloads import WORKLOADS

    medians = {}
    for name, make in WORKLOADS.items():
        workload = make()
        workload.setup(SEED)
        probe = SpeedProbe(numpy=workload.RUNS_NDNN)
        units = []
        for index in range(WARMUP_UNITS + UNITS):
            before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            result = workload.run_unit(probe)
            wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
            del result   # released outside the measure, as the benchmark does
            gc.collect()
            if index >= WARMUP_UNITS:
                units.append({"faults": after.ru_minflt - before.ru_minflt,
                              "sys_ms": 1e3 * (after.ru_stime - before.ru_stime),
                              "wall_ms": 1e3 * wall})
        medians[name] = {key: statistics.median(u[key] for u in units)
                         for key, _, _ in COLUMNS}
    return medians


def measure_tree(tree):
    src = Path(tree).resolve() / "src"
    if not (src / "clcp").is_dir():
        raise SystemExit(f"{tree}: no src/clcp in this tree")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(BENCH))),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--measure"], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def table(before, after):
    """Markdown lines: one row per workload, a before and after column per measure."""
    head = [f"{label} {side}" for _, label, _ in COLUMNS for side in ("before", "after")]
    lines = [f"| workload | {' | '.join(head)} |", "|---" * (len(head) + 1) + "|"]
    for name in after:
        cells = [f"{side[name][key]:.{digits}f}"
                 for key, _, digits in COLUMNS for side in (before, after)]
        lines.append(f"| {name} | {' | '.join(cells)} |")
    return lines


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
    print(f"median per unit over {UNITS} units after {WARMUP_UNITS} warm-up units, "
          f"seed {SEED}")
    print("\n".join(table(before, after)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
