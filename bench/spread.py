"""Run one workload under several seeds and report each metric's spread.

    python3 bench/spread.py --workload ladder --seeds 1-10 --seconds 20 [--trace 1]

Runs are sequential, one process at a time.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile range as a share of the median, and it fails if any run was
not correct.  ``--json`` writes every run's result for later comparison.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in list(result["metrics"].items())[:4]),
              flush=True)

    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                         "trace": args.trace, "runs": runs}, indent=1))
    if not all(r["correct"] for r in runs):
        sys.exit("some runs were not correct")


if __name__ == "__main__":
    main()
