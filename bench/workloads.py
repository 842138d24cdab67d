"""Inputs, units of work and output checks for each benchmark workload.

Every workload builds its inputs from ``synth`` under the run's seed in
``setup``; the program only sees the generated records.  ``run_unit`` does one
unit of work and returns one timing sample per piece of it, each
``(piece, items, seconds, probe_seconds)`` from a ``probe.PieceClock``, where
every unit repeats the same pieces;
``check_unit`` inspects the unit's outputs afterwards, outside any timed or
traced region, and returns a list of problems.  ``fingerprint`` holds the
unit's deterministic results, which every unit of a run, traced or not, must
reproduce bit for bit.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

import numpy as np

from clcp import encoders, ingest, pylex, synth, textclean, training, vocab, zeval
from clcp.himg import encode_corpus
from clcp.ndnn.optim import Adam
from probe import PieceClock


@dataclass
class UnitResult:
    samples: list            # (piece, items, seconds, probe_seconds) per piece of the unit
    attempted: int
    failed: int
    fingerprint: tuple
    outputs: object = field(default=None, repr=False)
    quality: dict = field(default_factory=dict)


# -- encode ------------------------------------------------------------------------

ENCODE_BATCH = 64
ENCODE_BATCHES = 12

_DECORATION = ("{doc}.\nSee https://docs.example.org/ops/{slug}.html for details &amp; "
               "caveats.\n\nParameters\n----------\n{arg} : list of numbers\n"
               "    the input values\n\n>>> {name}([3, 1, 2])\n3\n")

# Every block of 16 modules has these properties in a seeded order, so each
# seed has the same mix of lengths, dispatchers and decorated docs and only
# the content differs.
_BLOCK_SIZES = (1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6, 6, 8, 8, 10, 12)   # functions
_BLOCK_DISPATCH_CALLS = (28, 52)   # two modules per block get a dispatcher
_BLOCK_DECORATED = 6               # modules per block with a decorated doc


def _module(pool, start, count, dispatch_calls, decorated, seed, index):
    """Concatenate synth functions into one module, optionally with a dispatcher."""
    parts = pool[start:start + count]
    code = "\n\n".join(r.code.rstrip("\n") for r in parts) + "\n"
    doc = "; ".join(r.doc for r in parts[:3])
    if dispatch_calls:
        # many distinct member calls exhaust a scope's fallback ID tail
        body = "".join(f"    obj.step_{seed}_{index}_{j}()\n" for j in range(dispatch_calls))
        code += f"\n\ndef dispatch(obj):\n{body}"
    if decorated:
        name = parts[0].code.split("(", 1)[0].split()[-1]
        doc = _DECORATION.format(doc=doc, slug=parts[0].id.rsplit("-", 1)[1],
                                 arg="values", name=name)
    return ingest.PairRecord(f"module-{seed}-{index:04d}", code, doc)


def encode_records(seed):
    """Modules of 1-12 synth functions, some with dispatchers or decorated docs."""
    rng = random.Random(seed)
    n = ENCODE_BATCH * ENCODE_BATCHES
    block = len(_BLOCK_SIZES)
    pool = synth.generate_pairs(n // block * sum(_BLOCK_SIZES), seed, "train")
    records, start = [], 0
    for first in range(0, n, block):
        sizes = rng.sample(_BLOCK_SIZES, block)
        dispatch = dict(zip(rng.sample(range(block), len(_BLOCK_DISPATCH_CALLS)),
                            _BLOCK_DISPATCH_CALLS))
        decorated = set(rng.sample(range(block), _BLOCK_DECORATED))
        for k, count in enumerate(sizes):
            records.append(_module(pool, start, count, dispatch.get(k, 0), k in decorated,
                                   seed, first + k))
            start += count
    return records


class Encode:
    """clean_corpus -> prepare_pairs over batches of mixed-length modules."""

    RUNS_NDNN = False   # picks the speed probe's kind of work

    def __init__(self):
        self._recounts = 0

    def setup(self, seed):
        pylex.load_default_tables()
        records = encode_records(seed)
        self.config = encoders.ModelConfig()
        self.batches = [records[i:i + ENCODE_BATCH]
                        for i in range(0, len(records), ENCODE_BATCH)]

    def run_unit(self, probe):
        clock, outputs, failed = PieceClock(probe), [], 0
        clock.start()
        for index, batch in enumerate(self.batches):
            cleaned, _ = textclean.clean_corpus(batch)
            data = training.prepare_pairs(cleaned, self.config)
            clock.mark(index, len(batch))
            failed += len(batch) - len(cleaned)
            outputs.append((cleaned, data))
        fingerprint = tuple(_digest(data.code_batch, data.text_ids)
                            for _, data in outputs)
        return UnitResult(clock.samples, sum(len(b) for b in self.batches), failed,
                          fingerprint, outputs)

    def check_setup(self):
        return []

    def check_unit(self, result):
        problems = []
        for cleaned, data in result.outputs:
            problems += _check_batch(data, self.config)
            if any("http" in r.doc or ">>>" in r.doc or "----" in r.doc for r in cleaned):
                problems.append("a cleaned doc still carries removable text")
        # the independent recount is slow, so each unit recounts the next batch
        cleaned, data = result.outputs[self._recounts % len(result.outputs)]
        self._recounts += 1
        return problems + _check_truncation(cleaned, data, self.config)


# -- train-lp / train-rn ------------------------------------------------------------

TRAIN_PAIRS = 256
TEST_PAIRS = 64
TRAIN_EPOCHS = 1


class Train:
    """train() for a fixed number of epochs, then evaluate_pairs on held-out pairs."""

    RUNS_NDNN = True

    def __init__(self, family):
        self.family = family

    def setup(self, seed):
        pylex.load_default_tables()
        self.train_pairs, self.test_pairs = synth.generate_family(TRAIN_PAIRS, TEST_PAIRS,
                                                                  seed)
        # patience beyond max_epochs disables early stopping
        self.config = encoders.config_for_family(self.family, 3, max_epochs=TRAIN_EPOCHS,
                                                 patience=TRAIN_EPOCHS + 1)
        self.data = training.prepare_pairs(self.train_pairs, self.config)
        # building the model is set-up too, so a slower constructor shows in setup_s
        training.CLCPModel(self.config, self.data.text_vocab.size)

    def pairs_per_run(self):
        """Pairs one train() call steps: all but a trailing singleton batch."""
        n = len(self.train_pairs)
        n_train = n - int(round(n * self.config.val_fraction))
        singleton = 1 if n_train % self.config.batch_size == 1 else 0
        return (n_train - singleton) * self.config.max_epochs

    def run_unit(self, probe):
        clock = PieceClock(probe)
        step = Adam.step

        def timed_step(optimizer, named_params):
            out = step(optimizer, named_params)
            clock.mark(len(clock.samples), 0)
            return out

        # optimizer steps split a training run into short pieces, timed alone
        Adam.step = timed_step
        clock.start()
        try:
            result = training.train(self.train_pairs, self.config, vocab=self.data.vocab,
                                    text_vocab=self.data.text_vocab)
        except training.TrainingAborted:
            return UnitResult([], 1, 1, ("aborted",))
        finally:
            Adam.step = step
        clock.mark(len(clock.samples), 0)
        samples = clock.samples
        samples[0] = (0, self.pairs_per_run(), *samples[0][2:])
        ev = zeval.evaluate_pairs(result.model, result.vocab, result.text_vocab,
                                  self.test_pairs)
        val_loss = result.metrics[-1]["val_loss"]
        return UnitResult(samples, 1, 0, (val_loss, ev.acc, ev.correct), result,
                          {"val_loss": val_loss, "zs_acc": ev.acc})

    def check_unit(self, result):
        if result.outputs is None:
            return ["training aborted"]
        problems = []
        metrics = result.outputs.metrics
        if len(metrics) != self.config.max_epochs:
            problems.append(f"ran {len(metrics)} epochs, expected {self.config.max_epochs}")
        for entry in metrics:
            if not (math.isfinite(entry["train_loss"]) and math.isfinite(entry["val_loss"])):
                problems.append(f"non-finite loss at epoch {entry['epoch']}")
        if not 0.0 <= result.quality["zs_acc"] <= 1.0:
            problems.append("accuracy outside [0, 1]")
        return problems

    def check_setup(self):
        return _check_batch(self.data, self.config) + _check_truncation(
            self.train_pairs, self.data, self.config)


# -- ladder ---------------------------------------------------------------------------

LADDER_PLAN = ((16, 32), (16, 32))    # train sizes, test sizes
LADDER_EPOCHS = 1


class Ladder:
    """run_ablations over lp/gp/rn x {none, +BN, -Pool, -Init} on a two-size plan."""

    RUNS_NDNN = True

    def setup(self, seed):
        pylex.load_default_tables()
        # the ladder samples its nested subsets from a corpus many times larger
        self.records = (synth.generate_pairs(1000, seed, "train")
                        + synth.generate_pairs(600, seed + 1, "heldout"))
        self.plan = ingest.SamplePlan(*LADDER_PLAN, seed)
        ingest.sample_split(self.records, self.plan)   # fails early on a bad plan
        self.base = encoders.ModelConfig(max_epochs=LADDER_EPOCHS,
                                         patience=LADDER_EPOCHS + 1)

    def check_setup(self):
        return []

    def cells_per_run(self):
        return len(zeval.FAMILIES) * len(zeval.DELTAS) * len(self.plan.train_sizes)

    def run_unit(self, probe):
        clock = PieceClock(probe)
        run_ladder = zeval.run_ladder

        def timed_run_ladder(records, plan, configs, **kwargs):
            out = run_ladder(records, plan, configs, **kwargs)
            clock.mark(configs[0].config_id(), len(plan.train_sizes))
            return out

        # run_ablations calls run_ladder once per (family, delta): a row ends a piece
        zeval.run_ladder = timed_run_ladder
        clock.start()
        try:
            cells, _ = zeval.run_ablations(self.records, self.plan, base_config=self.base,
                                           workers=1)
        finally:
            zeval.run_ladder = run_ladder
        clock.mark("tail", 0)
        samples = clock.samples
        results = [r for c in cells for r in c.cells]
        failed = len({(r.config_id, r.train_size) for r in results if r.failed})
        fixed = [r.acc for r in results if r.regime == "fixed" and not r.failed]
        fingerprint = tuple((r.config_id, r.train_size, r.regime, r.correct, r.failed)
                            for r in results)
        return UnitResult(samples, self.cells_per_run(), failed,
                          fingerprint, cells,
                          {"zs_acc": float(np.mean(fixed)) if fixed else 0.0})

    def check_unit(self, result):
        problems = []
        results = [r for c in result.outputs for r in c.cells]
        keys = [(r.config_id, r.train_size, r.regime) for r in results]
        expected = self.cells_per_run() * 2
        if len(keys) != expected or len(set(keys)) != expected:
            problems.append(f"{len(keys)} results ({len(set(keys))} distinct), "
                            f"expected one per cell and regime: {expected}")
        for r in results:
            if r.failed:
                problems.append(f"cell {r.config_id}@{r.train_size} failed: {r.failed}")
            elif not 0.0 <= r.acc <= 1.0:
                problems.append(f"cell {r.config_id}@{r.train_size}: accuracy {r.acc}")
        return problems


WORKLOADS = {
    "encode": Encode,
    "train-lp": lambda: Train("lp"),
    "train-rn": lambda: Train("rn"),
    "ladder": Ladder,
}


# -- shared checks ------------------------------------------------------------------------


def _digest(*arrays):
    return tuple(hashlib.sha1(a.tobytes()).hexdigest() for a in arrays)


def _check_batch(data, config):
    """Normalized images in [0, 1] (IDs in [0, max_id]); text IDs in the vocabulary."""
    problems = []
    batch = data.code_batch
    if batch.shape[1:] != (1, config.image_len):
        problems.append(f"code batch shape {batch.shape}")
    if not np.isfinite(batch).all() or batch.min() < 0.0 or batch.max() > 1.0:
        problems.append("image values outside [0, 1]")
    if data.text_ids.min() < 0 or data.text_ids.max() >= data.text_vocab.size:
        problems.append("text ids outside the text vocabulary")
    return problems


def _check_truncation(records, data, config):
    """Re-encode with an independent pass and compare IDs and truncation counts."""
    problems = []
    tables = pylex.load_default_tables()
    matrix, _, truncated = encode_corpus([r.code for r in records], data.vocab,
                                         config.image_len, tables, on_exhaust="recycle")
    if int(matrix.max()) > data.vocab.max_id:
        problems.append(f"image ID {int(matrix.max())} above max_id {data.vocab.max_id}")
    independent = 0
    for rec in records:
        scope = vocab.NamespaceScope(data.vocab.ranges, on_exhaust="recycle")
        ids = vocab.assign_ids(pylex.tokenize(rec.code, tables), data.vocab, scope)
        independent += int(len(ids) > config.image_len)
    if truncated != independent:
        problems.append(f"encode_corpus reports {truncated} truncated images, "
                        f"recount gives {independent}")
    expected = matrix.astype(np.float32) / np.float32(data.vocab.max_id)
    if not np.array_equal(expected[:, None, :], data.code_batch):
        problems.append("prepared image batch differs from a direct encode_corpus")
    return problems
