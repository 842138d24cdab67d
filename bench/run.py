"""clcp benchmark: one workload, one closed-loop caller, JSON result on the last line.

Usage, from the repository root:

    python3 bench/run.py --workload encode --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` alternates traced and untraced units of the same work and
reports the per-layer metrics, the tracing overhead, and writes every span to
``.bench_out/``.  See ``bench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import os

# Pin BLAS before numpy loads: default threading made train-step timings
# spread by a third between runs.  One thread is within any machine's nproc.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 9


def _import_program():
    """Import clcp from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import clcp
    except ImportError as exc:
        sys.exit(f"cannot import clcp from {src}: {exc}")
    if not Path(clcp.__file__).resolve().is_relative_to(src):
        sys.exit(f"clcp imported from {clcp.__file__}, outside {src}")


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


def run_units(workload, seconds, problems, setup, probe, tracer=None):
    """Closed loop: one unit at a time until ``seconds`` have passed.

    ``setup()`` re-runs the workload's set-up; after each unit it is called
    as often as needed to spread ``SETUP_REPS`` set-ups evenly over the run,
    so their median does not rest on one moment of a shared machine.

    Each unit's outputs are checked as soon as it ends, outside its timing,
    and then released.  Autodiff graphs can sit in reference cycles until the
    cyclic collector runs, so collecting between units keeps one unit's
    garbage from raising the next unit's memory peak.

    With a tracer, units come in traced/untraced pairs of equal work, each
    pair in the opposite order to the last, so the overhead is measured on
    like work without favouring whichever side runs first.
    """
    # one untimed unit first, so lazy set-up inside the program is paid
    warmup = workload.run_unit(probe)
    problems += workload.check_unit(warmup)
    warmup.outputs = None
    gc.collect()
    traced, plain = [], []
    began = time.perf_counter()
    order = (True, False)
    while True:
        if tracer is not None:
            order = order[::-1]
        for use_tracer in (order if tracer is not None else (False,)):
            if use_tracer:
                with tracer.installed():
                    result = workload.run_unit(probe)
                tracer.end_unit()
            else:
                result = workload.run_unit(probe)
            problems += workload.check_unit(result)
            result.outputs = None
            gc.collect()
            (traced if use_tracer else plain).append(result)
        elapsed = time.perf_counter() - began
        setup(min(SETUP_REPS, 1 + int((SETUP_REPS - 1) * elapsed / seconds)))
        if elapsed >= seconds:
            setup(SETUP_REPS)
            return warmup, traced, plain


def main(argv=None):
    _import_program()
    import metrics
    from probe import SpeedProbe
    from tracer import Tracer
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    workload = WORKLOADS[args.workload]()
    probe = SpeedProbe(numpy=workload.RUNS_NDNN)
    problems, setup_times = [], []

    def setup(reps):
        """Run timed set-ups until ``reps`` have been made, checking each.

        Each is ``(seconds, probe_seconds)``, with the machine probed on
        either side of it, as for the pieces of a unit.
        """
        while len(setup_times) < reps:
            gc.collect()
            before = probe()
            start = time.perf_counter()
            workload.setup(args.seed)
            seconds = time.perf_counter() - start
            setup_times.append((seconds, (before + probe()) / 2))
            problems.extend(workload.check_setup())

    setup(1)
    tracer = Tracer() if args.trace else None
    warmup, traced, plain = run_units(workload, args.seconds, problems, setup, probe, tracer)
    units = [warmup] + traced + plain
    reference = units[0].fingerprint
    if any(r.fingerprint != reference for r in units):
        problems.append("units of identical work gave different results"
                        + (" (traced vs untraced)" if tracer else ""))

    if tracer is None:
        values = metrics.end_to_end(plain, setup_times)
        wall = metrics.wall_clock(plain, setup_times)
        print("wall clock, not bounded metrics (see bench/README.md): " + ", ".join(
            f"{name} {value:.6g} {unit}" for name, (value, unit) in wall.items())
            + f", peak_rss_mb {metrics.peak_rss_mb():.1f} MB", flush=True)
    else:
        if tracer.truncation_mismatches:
            problems.append(f"truncation recount mismatches: {tracer.truncation_mismatches[:3]}")
        values = metrics.per_layer(tracer, traced, plain, setup_times)
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(out, {"workload": args.workload, "seed": args.seed, "env": env,
                           "metrics": values})
        print(f"spans written to {out.relative_to(ROOT)}", flush=True)

    for problem in dict.fromkeys(problems):
        print(f"CHECK FAILED: {problem}", flush=True)
    for name, (value, unit) in values.items():
        print(f"{name:36s} {value:>14.6g} {unit}", flush=True)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in units),
        "failed": sum(r.failed for r in units),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
