"""Zero-shot matching evaluation, the size-ladder runner, and ablations.

Accuracy is top-1 pair matching over L held-out pairs; random matching scores
EA = 1/L.  The ladder trains one model per (train size, config) cell and
evaluates two regimes: a fixed test size and a test size growing with the
ladder.  Ladder sizes here are desk-scale stand-ins for the full-corpus runs
(30k..456k train, 50..1000 test); pass your own SamplePlan to change scale.

Cells share a ``LadderState``: the zero-shot train and test pools of the
records as given (clean them first for cleaned docs), whose prefixes are the
ladder's samples, each snippet tokenized once, and per train size the
vocabularies, the encoded train sample and the encoded growing test list, which
a cell embeds once; its leading rows are the fixed list.  Configs with one
``network_key`` train once per train size.  Cells run in this process, not in
a pool, also share their initial weights: the state draws each distinct code
and text encoder (``draw_key``) once, and every cell starts from a copy of
those arrays, the bits its own draw would give.  ``run_ablations`` shares one
state, and its process pool if any, across its rows, so memory holds every
train size's prepared arrays and the drawn weights of every distinct encoder
for the whole run; on the default config the largest are at most two -Pool
projections, lp's and rn's, of about 8 MB each.  The state dies with the call
that made it.
"""
from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .encoders import (ABLATIONS, FAMILIES, CodeEncoder, ConfigError, ModelConfig,
                       TextEncoder, apply_ablation, config_for_family, draw_key, network_key)
from .ingest import sample_split
from .training import fit, prepare_pairs

logger = logging.getLogger(__name__)

DELTAS = ("none", *ABLATIONS)
_CELL_FIELDS = ("family", *(flag for flag, _ in ABLATIONS.values()))


@dataclass
class EvalResult:
    """One matching evaluation over L pairs."""

    L: int
    correct: int
    config_id: str = ""
    direction: str = "code2text"
    train_size: int = 0
    regime: str = "fixed"
    seed: int = 0
    failed: str = ""

    @property
    def acc(self):
        return self.correct / self.L

    @property
    def ea(self):
        """The chance level: random matching scores 1/L."""
        return 1.0 / self.L


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
    return EvalResult(L=n, correct=correct, direction=direction)


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

    def __init__(self, records, plan):
        self.plan = plan
        self.train, self.test = sample_split(records, plan)
        self.rows = {}         # (network key, sizes) -> the cell's rows
        self.pool = None       # run_ablations' process pool, lent to every run_ladder call
        self._tokens = {}      # snippet -> tokens
        self._prepared = {}
        self._drawn = {}       # draw_key -> an encoder's drawn arrays

    def prepared(self, train_size, test_size, config):
        """(train data, test data), kept per config fields prepare_pairs reads; a
        failure's message stands in, with no test data if the train data failed."""
        key = train_size, test_size, config.image_len, config.text_vocab, config.text_max_len
        if key not in self._prepared:
            train = test = None
            try:
                train = prepare_pairs(self.train[:train_size], config, tokens=self._tokens)
                test = prepare_pairs(self.test[:test_size], config, train.vocab,
                                     train.text_vocab, self._tokens)
            except Exception as exc:  # each cell it feeds gets a failed row
                train, test = (str(exc), None) if train is None else (train, str(exc))
            self._prepared[key] = train, test
        return self._prepared[key]

    def initial(self, config, train):
        """``CLCPModel``'s ``initial`` for a cell of ``config`` on ``train``
        data, each encoder drawn once per ``draw_key``; the cells only read it.
        None, and the cell draws its own, when cells run in the pool, since
        pickling the arrays to a worker costs more than drawing them there; or
        when the train data failed or the code encoder cannot be built, and the
        cell then fails as it would anyway."""
        if self.pool or isinstance(train, str):
            return None
        initial = []
        for make in (partial(CodeEncoder, config),
                     partial(TextEncoder, config, train.text_vocab.size)):
            try:
                key = draw_key(make(draw=False))
            except ConfigError:
                return None
            if key not in self._drawn:
                self._drawn[key] = [w.data for w in make().drawn]
            initial.append(self._drawn[key])
        return tuple(initial)


@dataclass
class _Cell:
    """One ladder cell's inputs; picklable for worker processes."""

    config: ModelConfig
    train_data: object    # PreparedData, or the message its preparation failed with
    test_data: object     # the growing test list, likewise
    initial: object       # LadderState.initial's, or None to draw
    fixed_size: int
    train_size: int


def _ready(data):
    if isinstance(data, str):
        raise RuntimeError(data)
    return data


def _run_cell(cell):
    """One ladder cell: train at a size, then score both regimes from one embedding."""
    config, train_size = cell.config, cell.train_size
    results = []
    try:
        outcome = fit(_ready(cell.train_data), config, initial=cell.initial)
        code, text = _embed(outcome.model, _ready(cell.test_data))
        n = cell.fixed_size
        for regime, res in (("fixed", zero_shot_match(code[:n], text[:n])),
                            ("growing", zero_shot_match(code, text))):
            results.append(replace(res, config_id=config.config_id(), train_size=train_size,
                                   regime=regime, seed=config.seed))
    except Exception as exc:  # cell failures must not sink the ladder
        logger.warning("cell %s@%d failed: %s", config.config_id(), train_size, exc)
        results.append(EvalResult(L=1, correct=0, config_id=config.config_id(),
                                  train_size=train_size, seed=config.seed, failed=str(exc)))
    return results


def run_ladder(records, plan, configs, shared=None):
    """Train-and-evaluate every (train size, config) cell of the ladder, code2text.

    The records go in as given; clean them first for cleaned docs.  Cells run
    independently, in ``shared.pool``'s processes if one is lent (only
    ``run_ablations`` lends one), else here, one after another; a failed cell
    is marked and the ladder continues.

    ``shared``, a LadderState built from the same records, carries the
    prepared data and rows of earlier calls; without one the call builds its
    own; a state built with another plan raises a ValueError.  A config with
    the ``network_key`` of a cell already run at its sizes trains nothing: it
    reports that cell's rows under its own config id.
    """
    shared = shared or LadderState(records, plan)
    if shared.plan != plan:
        raise ValueError(f"plan: the shared state has {shared.plan!r}, this call {plan!r}")
    keys, todo = [], {}
    for size_idx, train_size in enumerate(plan.train_sizes):
        test_size = plan.test_sizes[min(size_idx, len(plan.test_sizes) - 1)]
        for config in configs:
            key = (network_key(config), train_size, test_size)
            keys.append((key, config.config_id()))
            if key not in shared.rows and key not in todo:
                train, test = shared.prepared(train_size, test_size, config)
                todo[key] = _Cell(config, train, test, shared.initial(config, train),
                                  plan.test_sizes[0], train_size)
    cell_map = shared.pool.map if shared.pool else map
    shared.rows.update(zip(todo, cell_map(_run_cell, todo.values())))
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


def run_ablations(records, plan, families=FAMILIES, deltas=DELTAS, base_config=None,
                  workers=1):
    """The {family} x {none, +BN, -Pool, -Init} matrix over the ladder.

    Each cell takes every ``base_config`` field (``ModelConfig()``'s if none),
    ``blocks`` included, except the family and ablation flags it sets itself.
    Rows share one LadderState; with workers > 1, it lends every row one
    process pool.
    Returns (cells, flags): flags report whether the expected qualitative
    directions were observed, or None where the run held nothing to compare;
    they are never asserted.
    """
    base_config = base_config or ModelConfig()
    overrides = {f.name: getattr(base_config, f.name) for f in fields(ModelConfig)
                 if f.name not in _CELL_FIELDS}
    shared = LadderState(records, plan)
    cells = []
    mean_by_key = {}
    ea = 1.0 / plan.test_sizes[0]
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        shared.pool = pool
        for family in families:
            for delta in deltas:
                config = apply_ablation(config_for_family(family, **overrides), delta)
                results = run_ladder(records, plan, [config], shared=shared)
                fixed = [r for r in results if r.regime == "fixed" and not r.failed]
                mean_acc = float(np.mean([r.acc for r in fixed])) if fixed else float("nan")
                mean_by_key[(family, delta)] = mean_acc
                cells.append(AblationCell(family, config.blocks, delta, mean_acc, 0.0, results))
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
