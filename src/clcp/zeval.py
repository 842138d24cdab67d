"""Zero-shot matching evaluation, the size-ladder runner, and ablations.

Accuracy is top-1 pair matching over L held-out pairs; random matching scores
EA = 1/L.  The ladder trains one model per (train size, config) cell and
evaluates two regimes: a fixed test size and a test size growing with the
ladder.  Ladder sizes here are desk-scale stand-ins for the full-corpus runs
(30k..456k train, 50..1000 test); pass your own SamplePlan to change scale.

Cells share a ``LadderState``: the split, cut (and cleaned) once, each snippet
tokenized once, and per train size the vocabularies, the encoded train subset
and the encoded growing test list, which a cell embeds once; its leading rows
are the fixed list.  Configs with one ``network_key`` train once per train size.
``run_ablations`` shares one state across its rows, so memory holds every train
size's prepared arrays for the whole run.
"""
from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace

import numpy as np

from .encoders import (ABLATIONS, FAMILIES, ModelConfig, apply_ablation, config_for_family,
                       network_key)
from .ingest import sample_split
from .textclean import clean_corpus
from .training import fit, prepare_pairs

logger = logging.getLogger(__name__)

DELTAS = ("none", *ABLATIONS)
_CELL_FIELDS = ("family", "blocks", *(flag for flag, _ in ABLATIONS.values()))


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
    if n == 0:
        raise ValueError("the held-out embedding batches are empty")
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
    if not pairs:
        raise ValueError("the held-out pair list is empty")
    data = prepare_pairs(pairs, model.config, vocab=vocabulary, text_vocab=text_vocab)
    return zero_shot_match(*_embed(model, data), direction)


def _embed(model, data):
    """Code and text embeddings, ``batch_size`` pairs at a time to bound activations."""
    model.set_training(False)
    step = model.config.batch_size
    chunks = [slice(start, start + step) for start in range(0, len(data.text_ids), step)]
    code = np.concatenate([model.encode_code(data.code_batch[c]).data for c in chunks])
    text = np.concatenate([model.encode_text(data.text_ids[c]).data for c in chunks])
    return code, text


class LadderState:
    """What the cells of ladders over one corpus and plan share; see above."""

    def __init__(self, records, plan, variant="raw", zero_shot=True):
        if variant == "cleaned":
            records, _ = clean_corpus(records)
        elif variant != "raw":
            raise ValueError(f"variant must be 'raw' or 'cleaned', got {variant!r}")
        self.split = sample_split(records, plan, zero_shot=zero_shot)
        self.rows = {}         # (network key, sizes, direction) -> the cell's rows
        self.pool = None       # a process pool lent to every run_ladder call
        self._tokens = {}      # snippet -> tokens
        self._prepared = {}

    def prepared(self, train_size, test_size, config):
        """(train data, test data), kept per config fields prepare_pairs reads; a
        failure's message stands in, with no test data if the train data failed."""
        key = train_size, test_size, config.image_len, config.text_vocab, config.text_max_len
        if key not in self._prepared:
            train = test = None
            try:
                train = prepare_pairs(self.split.train_subset(train_size), config,
                                      tokens=self._tokens)
                test = prepare_pairs(self.split.test_subset(test_size), config, train.vocab,
                                     train.text_vocab, self._tokens)
            except Exception as exc:  # each cell it feeds gets a failed row
                train, test = (str(exc), None) if train is None else (train, str(exc))
            self._prepared[key] = train, test
        return self._prepared[key]


@dataclass
class _Cell:
    """One ladder cell's inputs; picklable for worker processes."""

    config: ModelConfig
    train_data: object    # PreparedData, or the message its preparation failed with
    test_data: object     # the growing test list, likewise
    fixed_size: int
    variant: str
    train_size: int
    direction: str


def _ready(data):
    if isinstance(data, str):
        raise RuntimeError(data)
    return data


def _run_cell(cell):
    """One ladder cell: train at a size, then score both regimes from one embedding."""
    config, variant, train_size = cell.config, cell.variant, cell.train_size
    results = []
    try:
        outcome = fit(_ready(cell.train_data), config)
        code, text = _embed(outcome.model, _ready(cell.test_data))
        n = cell.fixed_size
        for regime, res in (("fixed", zero_shot_match(code[:n], text[:n], cell.direction)),
                            ("growing", zero_shot_match(code, text, cell.direction))):
            results.append(replace(res, config_id=config.config_id(), variant=variant,
                                   train_size=train_size, regime=regime, seed=config.seed))
    except Exception as exc:  # cell failures must not sink the ladder
        logger.warning("cell %s@%d failed: %s", config.config_id(), train_size, exc)
        failed = EvalResult(L=1, correct=0, acc=0.0, ea=1.0,
                            config_id=config.config_id(), variant=variant,
                            direction=cell.direction, train_size=train_size,
                            seed=config.seed, failed=str(exc))
        results.append(failed)
    return results


def run_ladder(records, plan, configs, variant="raw", direction="code2text",
               workers=1, zero_shot=True, shared=None):
    """Train-and-evaluate every (train size, config) cell of the ladder.

    ``variant="cleaned"`` applies the description-cleaning pipeline to the
    corpus first.  Cells run independently (in processes when workers > 1);
    a failed cell is marked and the ladder continues.

    ``shared``, a LadderState built from the same four inputs, carries the
    prepared data and rows of earlier calls; without one the call builds its
    own.  A config with the ``network_key`` of a cell already run at its sizes
    trains nothing: it reports that cell's rows under its own config id.
    Workers come from ``shared.pool`` if set, else from a pool for this call.
    """
    shared = shared or LadderState(records, plan, variant, zero_shot)
    keys, todo = [], {}
    for size_idx, train_size in enumerate(plan.train_sizes):
        test_size = plan.test_sizes[min(size_idx, len(plan.test_sizes) - 1)]
        for config in configs:
            key = (network_key(config), train_size, test_size, direction)
            keys.append((key, config.config_id()))
            if key not in shared.rows and key not in todo:
                todo[key] = _Cell(config, *shared.prepared(train_size, test_size, config),
                                  plan.test_sizes[0], variant, train_size, direction)
    if workers > 1 and todo:
        with nullcontext(shared.pool) if shared.pool else ProcessPoolExecutor(workers) as pool:
            shared.rows.update(zip(todo, pool.map(_run_cell, todo.values())))
    else:
        shared.rows.update((key, _run_cell(cell)) for key, cell in todo.items())
    return [replace(row, config_id=config_id) for key, config_id in keys
            for row in shared.rows[key]]


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
    With workers > 1, the cells of every row run in one process pool.
    Returns (cells, flags): flags report whether the expected qualitative
    directions were observed, or None where the run held nothing to compare;
    they are never asserted.
    """
    overrides = {}
    if base_config is not None:
        overrides = {f.name: getattr(base_config, f.name) for f in fields(ModelConfig)
                     if f.name not in _CELL_FIELDS}
    shared = LadderState(records, plan, variant, zero_shot)
    cells = []
    mean_by_key = {}
    ea = 1.0 / plan.test_sizes[0]
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        shared.pool = pool
        for family in families:
            for delta in deltas:
                config = apply_ablation(config_for_family(family, blocks, **overrides),
                                        delta)
                results = run_ladder(records, plan, [config], variant=variant,
                                     workers=workers, zero_shot=zero_shot, shared=shared)
                fixed = [r for r in results if r.regime == "fixed" and not r.failed]
                mean_acc = float(np.mean([r.acc for r in fixed])) if fixed else float("nan")
                mean_by_key[(family, delta)] = mean_acc
                cells.append(AblationCell(family, blocks, delta, mean_acc, 0.0, results))
    for cell in cells:
        base = mean_by_key.get((cell.family, "none"), float("nan"))
        cell.diff_vs_base = cell.mean_acc - base
    # "+BN" -> bn_addition_hurts, "-Pool" -> pool_removal_hurts, ...; None
    # when no family ran both the ablation and its base
    flags = {}
    for delta in ABLATIONS:
        pairs = [(mean_by_key[(f, delta)], mean_by_key[(f, "none")]) for f in families
                 if (f, delta) in mean_by_key and (f, "none") in mean_by_key]
        key = f"{delta[1:].lower()}_{'addition' if delta[0] == '+' else 'removal'}_hurts"
        flags[key] = all(acc < base for acc, base in pairs) if pairs else None
    lp_no_pool = mean_by_key.get(("lp", "-Pool"))
    flags["lp_minus_pool_below_chance"] = None if lp_no_pool is None else lp_no_pool < ea
    return cells, flags
