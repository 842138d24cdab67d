"""Reduce unit results and spans to the benchmark's named metrics.

Every function returns ``{name: (value, unit)}`` with the same names on every
workload; a layer that does no work on a workload reports 0.
"""
from __future__ import annotations

import math
import resource
import statistics

import numpy as np

from probe import scaled

#: The ndnn ops reported per step; the tracer times every public ndnn function.
REPORTED_OPS = ("conv1d", "max_pool1d", "global_max_pool1d", "batch_norm1d", "relu",
                "matmul", "add", "narrow", "embedding", "l2_normalize", "log_softmax")


def piece_median_rate(units, scale=True):
    """Items per second of a unit made of each piece's median time.

    With ``scale``, each piece's time is first put in seconds of the
    reference machine by the probes on either side of it (``probe.scaled``),
    which takes out the shared machine's changing speed; without, it is wall
    time.

    A unit is a fixed sequence of pieces (an encode batch, the stretch of a
    training run up to each optimizer step, one (family, delta) row of the
    ladder) and every unit repeats them.  Other tenants of a shared machine
    slow it by a third or more, and quiet moments that run faster come and go
    within seconds.  Each piece's median over the whole run follows neither;
    a piece's shortest time rests on the luckiest moment of the run, and in
    tuning runs it read up to 40% above the median and moved 10% between the
    halves of one run.
    """
    times, items = {}, {}
    for r in units:
        for key, n, seconds, probe_seconds in r.samples:
            times.setdefault(key, []).append(
                scaled(seconds, probe_seconds) if scale else seconds)
            items[key] = n
    if not times:
        return 0.0
    return sum(items.values()) / sum(statistics.median(t) for t in times.values())


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(units, setup_times):
    """The bounded metrics, in seconds of the reference machine."""
    return {
        "setup_s": (statistics.median(scaled(s, p) for s, p in setup_times), "s"),
        "items_per_ref_s": (piece_median_rate(units), "1/s"),
    }


def wall_clock(units, setup_times):
    """The same estimates in wall time, and the probe's median time."""
    probes = [p for r in units for *_, p in r.samples] + [p for _, p in setup_times]
    return {
        "wall.setup_s": (statistics.median(s for s, _ in setup_times), "s"),
        "wall.items_per_s": (piece_median_rate(units, scale=False), "1/s"),
        "wall.probe_ms": (1e3 * statistics.median(probes), "ms"),
    }


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it (50 at least)."""
    return max(50, math.floor(100 * (1 - 10 / n))) if n else 50


def per_layer(tracer, traced, plain, setup_times):
    totals = tracer.totals()
    units = tracer.units
    steps = totals.get("ndnn.Adam.step", (0, 0, 0))[0]

    def calls(name):
        return totals.get(name, (0, 0, 0))[0]

    def per_call(name, scale):
        n, incl, _ = totals.get(name, (0, 0, 0))
        return incl / n / scale if n else 0.0

    def self_per_call(name, scale):
        n, _, own = totals.get(name, (0, 0, 0))
        return own / n / scale if n else 0.0

    def per_step(name, index, scale):
        return totals.get(name, (0, 0, 0))[index] / steps / scale if steps else 0.0

    def per_unit(count):
        return tracer.counts.get(count, 0) / units

    out = {}
    for stage in ("clean_code", "lex", "classify"):
        out[f"pylex.{stage}.us"] = (self_per_call(f"pylex.{stage}", 1e3), "us")
    classified = calls("pylex.classify")
    out["pylex.tokens_per_snippet"] = (
        tracer.counts["pylex.tokens"] / classified if classified else 0.0, "count")
    out["textclean.clean_corpus.ms"] = (per_call("textclean.clean_corpus", 1e6), "ms")
    out["textclean.rule_hits"] = (per_unit("textclean.rule_hits"), "count")
    out["vocab.build_vocab.ms"] = (per_call("vocab.build_vocab", 1e6), "ms")
    out["vocab.assign_ids.us"] = (per_call("vocab.assign_ids", 1e3), "us")
    out["vocab.recycled_scopes"] = (per_unit("vocab.recycled_scopes"), "count")
    out["himg.encode_corpus.ms"] = (per_call("himg.encode_corpus", 1e6), "ms")
    out["himg.truncated"] = (per_unit("himg.truncated"), "count")
    out["himg.images_to_batch.ms"] = (per_call("himg.images_to_batch", 1e6), "ms")

    for op in REPORTED_OPS:
        out[f"ndnn.{op}.fwd_ms"] = (per_step(f"ndnn.{op}", 2, 1e6), "ms")
        out[f"ndnn.{op}.bwd_ms"] = (per_step(f"ndnn.{op}.bwd", 2, 1e6), "ms")
        out[f"ndnn.{op}.calls"] = (calls(f"ndnn.{op}") / steps if steps else 0.0, "count")
    out["ndnn.Adam.step.ms"] = (per_call("ndnn.Adam.step", 1e6), "ms")

    out["encoders.code_forward.ms"] = (per_call("encoders.code_forward", 1e6), "ms")
    out["encoders.text_forward.ms"] = (per_call("encoders.text_forward", 1e6), "ms")
    out["encoders.text_encode_batch.ms"] = (per_call("encoders.text_encode_batch", 1e6),
                                            "ms")

    out["training.prepare_pairs.ms"] = (per_call("training.prepare_pairs", 1e6), "ms")
    step_ms = tracer.step_ms
    pct = tail_percentile(len(step_ms))
    out["training.step_ms.p50"] = (statistics.median(step_ms) if step_ms else 0.0, "ms")
    out["training.step_ms.tail"] = (float(np.percentile(step_ms, pct)) if step_ms else 0.0,
                                    "ms")
    out["training.step_ms.tail_pct"] = (pct, "%")
    out["training.step_ms.n"] = (len(step_ms), "count")
    out["training.step.fwd_ms"] = (per_step("training.step.fwd", 1, 1e6), "ms")
    out["training.step.bwd_ms"] = (per_step("training.step.bwd", 1, 1e6), "ms")
    out["training.step.opt_ms"] = (per_step("ndnn.Adam.step", 1, 1e6), "ms")
    quality = traced[0].quality
    out["training.val_loss"] = (quality.get("val_loss", 0.0), "nats")

    cells = [(e - s) / 1e9 for name, s, e in zip(tracer.names, tracer.starts, tracer.ends)
             if name == "zeval.cell"]
    out["zeval.cell_s.p50"] = (statistics.median(cells) if cells else 0.0, "s")
    out["zeval.evaluate_pairs.ms"] = (per_call("zeval.evaluate_pairs", 1e6), "ms")
    out["zeval.prep_share"] = (_share_inside(tracer, "training.prepare_pairs", "zeval.cell"),
                               "fraction")
    unique = tracer.counts.get("pylex.unique_sources", 0)
    out["zeval.tokenize_per_unique"] = (
        tracer.counts.get("pylex.tokenize_calls", 0) / unique if unique else 0.0, "ratio")
    out["zeval.zs_acc"] = (quality.get("zs_acc", 0.0), "fraction")

    out.update(wall_clock(plain, setup_times))
    out["run.peak_rss_mb"] = (peak_rss_mb(), "MB")
    # same estimator as items_per_s, so shared-core noise cancels the same way
    overhead = piece_median_rate(plain) / piece_median_rate(traced) - 1
    out["trace.overhead_pct"] = (100 * overhead, "%")
    out["trace.spans_per_unit"] = (len(tracer.names) / units, "count")
    return out


def _share_inside(tracer, inner, outer):
    """Time in ``inner`` spans nested under ``outer`` spans, over ``outer`` time."""
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    outer_ns = sum(e - s for n, s, e in zip(names, starts, ends) if n == outer)
    if not outer_ns:
        return 0.0
    inner_ns = 0
    for i, name in enumerate(names):
        if name != inner:
            continue
        j = parents[i]
        while j >= 0 and names[j] != outer:
            j = parents[j]
        if j >= 0:
            inner_ns += ends[i] - starts[i]
    return inner_ns / outer_ns
