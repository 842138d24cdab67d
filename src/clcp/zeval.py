"""Zero-shot matching evaluation, the size-ladder runner, and ablations.

Accuracy is top-1 pair matching over L held-out pairs; random matching scores
EA = 1/L.  The ladder trains one model per (train size, config) cell and
evaluates two regimes: a fixed test size and a test size growing with the
ladder.  Ladder sizes here are desk-scale stand-ins for the full-corpus runs
(30k..456k train, 50..1000 test); pass your own SamplePlan to change scale.
"""
from __future__ import annotations

import csv
import io
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .encoders import ModelConfig, apply_ablation, config_for_family
from .ingest import sample_split
from .textclean import clean_corpus
from .training import prepare_pairs, train

logger = logging.getLogger(__name__)

DELTAS = ("none", "+BN", "-Pool", "-Init")
FAMILIES = ("lp", "gp", "rn")
_CELL_FIELDS = ("blocks", "arch", "pooling", "use_bn", "use_pooling", "use_he_init")


@dataclass
class EvalResult:
    """One matching evaluation over L pairs."""

    L: int
    correct: int
    acc: float
    ea: float
    config_id: str = ""
    variant: str = "raw"
    direction: str = "code2text"
    train_size: int = 0
    regime: str = "fixed"
    seed: int = 0
    failed: str = ""

    def __post_init__(self):
        if self.L != 0 and abs(self.ea * self.L - 1.0) >= 1e-12:
            raise ValueError(f"ea must be 1/L: got ea={self.ea} for L={self.L}")


def zero_shot_match(code_emb, text_emb, direction="code2text"):
    """Argmax matching of normalized embedding batches; ties take the lowest index."""
    code_emb = np.asarray(code_emb)
    text_emb = np.asarray(text_emb)
    if code_emb.shape != text_emb.shape:
        raise ValueError(f"embedding batches differ: {code_emb.shape} vs {text_emb.shape}")
    n = code_emb.shape[0]
    sim = code_emb @ text_emb.T
    if direction == "code2text":
        preds = sim.argmax(axis=1)
    elif direction == "text2code":
        preds = sim.argmax(axis=0)
    else:
        raise ValueError(f"direction must be code2text or text2code, got {direction!r}")
    correct = int((preds == np.arange(n)).sum())
    return EvalResult(L=n, correct=correct, acc=correct / n, ea=1.0 / n,
                      direction=direction)


def evaluate_pairs(model, vocabulary, text_vocab, pairs, direction="code2text"):
    """Embed held-out pairs with a trained bundle and match them."""
    data = prepare_pairs(pairs, model.config, vocab=vocabulary, text_vocab=text_vocab)
    model.set_training(False)
    code = model.encode_code(data.code_batch).data
    text = model.encode_text(data.text_ids).data
    return zero_shot_match(code, text, direction)


@dataclass
class _Cell:
    """One ladder cell's inputs; picklable for worker processes."""

    config: ModelConfig
    train_records: list
    fixed_test: list
    growing_test: list
    variant: str
    train_size: int
    direction: str


def _run_cell(cell):
    """One ladder cell: train at a size, evaluate both regimes."""
    config, variant, train_size = cell.config, cell.variant, cell.train_size
    results = []
    try:
        outcome = train(cell.train_records, config)

        def score(test_records):
            return evaluate_pairs(outcome.model, outcome.vocab, outcome.text_vocab,
                                  test_records, cell.direction)

        fixed = score(cell.fixed_test)
        # on the first rung both regimes hold the same test list: score it once
        growing = (fixed if cell.growing_test is cell.fixed_test
                   else score(cell.growing_test))
        for regime, res in (("fixed", fixed), ("growing", growing)):
            results.append(replace(res, config_id=config.config_id(), variant=variant,
                                   train_size=train_size, regime=regime,
                                   seed=config.seed))
    except Exception as exc:  # cell failures must not sink the ladder
        logger.warning("cell %s@%d failed: %s", config.config_id(), train_size, exc)
        failed = EvalResult(L=1, correct=0, acc=0.0, ea=1.0,
                            config_id=config.config_id(), variant=variant,
                            train_size=train_size, failed=str(exc))
        results.append(failed)
    return results


def run_ladder(records, plan, configs, variant="raw", direction="code2text",
               workers=1, zero_shot=True):
    """Train-and-evaluate every (train size, config) cell of the ladder.

    ``variant="cleaned"`` applies the description-cleaning pipeline to the
    corpus first.  Cells run independently (in processes when workers > 1);
    a failed cell is marked and the ladder continues.
    """
    if variant == "cleaned":
        records, _ = clean_corpus(records)
    elif variant != "raw":
        raise ValueError(f"variant must be 'raw' or 'cleaned', got {variant!r}")
    split = sample_split(records, plan, zero_shot=zero_shot)
    fixed_size = plan.test_sizes[0]
    fixed_test = split.test_subset(fixed_size)
    jobs = []
    for size_idx, train_size in enumerate(plan.train_sizes):
        train_records = split.train_subset(train_size)
        growing_size = plan.test_sizes[min(size_idx, len(plan.test_sizes) - 1)]
        growing_test = (fixed_test if growing_size == fixed_size
                        else split.test_subset(growing_size))
        for config in configs:
            jobs.append(_Cell(config, train_records, fixed_test, growing_test, variant,
                              train_size, direction))
    results = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for cell in pool.map(_run_cell, jobs):
                results.extend(cell)
    else:
        for job in jobs:
            results.extend(_run_cell(job))
    return results


@dataclass
class AblationCell:
    """Mean accuracy of one (family, delta) across the ladder, vs its base."""

    family: str
    blocks: int
    delta: str
    mean_acc: float
    diff_vs_base: float
    cells: list


def run_ablations(records, plan, families=FAMILIES, blocks=3, deltas=DELTAS,
                  variant="raw", base_config=None, workers=1, zero_shot=True):
    """The {family} x {none, +BN, -Pool, -Init} matrix over the ladder.

    Each cell takes every ``base_config`` field except the ones it sets itself.
    Returns (cells, flags): flags report whether the expected qualitative
    directions were observed; they are never asserted.
    """
    overrides = {}
    if base_config is not None:
        overrides = {f.name: getattr(base_config, f.name) for f in fields(ModelConfig)
                     if f.name not in _CELL_FIELDS}
    cells = []
    mean_by_key = {}
    ea = 1.0 / plan.test_sizes[0]
    for family in families:
        for delta in deltas:
            config = apply_ablation(config_for_family(family, blocks, **overrides),
                                    delta)
            results = run_ladder(records, plan, [config], variant=variant,
                                 workers=workers, zero_shot=zero_shot)
            fixed = [r for r in results if r.regime == "fixed" and not r.failed]
            mean_acc = float(np.mean([r.acc for r in fixed])) if fixed else float("nan")
            mean_by_key[(family, delta)] = mean_acc
            cells.append(AblationCell(family, blocks, delta, mean_acc, 0.0, results))
    for cell in cells:
        base = mean_by_key.get((cell.family, "none"), float("nan"))
        cell.diff_vs_base = cell.mean_acc - base
    flags = {
        "pool_removal_hurts": all(
            mean_by_key.get((f, "-Pool"), 0) < mean_by_key.get((f, "none"), 0)
            for f in families if (f, "-Pool") in mean_by_key),
        "init_removal_hurts": all(
            mean_by_key.get((f, "-Init"), 0) < mean_by_key.get((f, "none"), 0)
            for f in families if (f, "-Init") in mean_by_key),
        "bn_addition_hurts": all(
            mean_by_key.get((f, "+BN"), 0) < mean_by_key.get((f, "none"), 0)
            for f in families if (f, "+BN") in mean_by_key),
        "lp_minus_pool_below_chance":
            mean_by_key.get(("lp", "-Pool"), float("inf")) < ea,
    }
    return cells, flags


# -- reporting ---------------------------------------------------------------

_CSV_FIELDS = ("config_id", "variant", "direction", "regime", "train_size", "L",
               "correct", "acc", "ea", "seed", "failed")


def results_to_csv(results):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_FIELDS)
    for r in results:
        writer.writerow([getattr(r, f) for f in _CSV_FIELDS])
    return buf.getvalue()


def render_results_table(results):
    headers = ["config", "variant", "regime", "train", "L", "acc", "ea", "status"]
    rows = [[r.config_id, r.variant, r.regime, str(r.train_size), str(r.L),
             f"{r.acc:.4f}", f"{r.ea:.4f}", r.failed or "ok"] for r in results]
    return _render_table(headers, rows)


def render_ablation_table(cells):
    headers = ["family", "blocks", "delta", "mean_acc", "diff_vs_base"]
    rows = [[c.family, str(c.blocks), c.delta, f"{c.mean_acc:.4f}",
             f"{c.diff_vs_base:+.4f}"] for c in cells]
    return _render_table(headers, rows)


def _render_table(headers, rows):
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines) + "\n"
