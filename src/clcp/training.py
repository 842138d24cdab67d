"""Contrastive training: symmetric cross-entropy over batch similarity.

Each step embeds a batch of (code, text) pairs with both encoders, scales the
cosine-similarity matrix by a learnable logit scale, and averages row-wise
and column-wise cross-entropy against the diagonal.  Training logs one JSON
object per epoch and early-stops on validation loss.
"""
from __future__ import annotations

import json
import logging
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import ndnn
from .encoders import (
    CodeEncoder,
    ConfigError,
    ModelConfig,
    TextEncoder,
    TextVocabulary,
    record_from_json,
)
from .himg import encode_streams, images_to_batch
from .ndnn import Tensor
from .ndnn.checkpoint import _check_members, load_arrays, save_arrays
from .ndnn.optim import zero_grads
from .pylex import load_default_tables, tokenize
from .vocab import build_vocab, load_vocab, save_vocab

logger = logging.getLogger(__name__)

CHECKPOINT_NAME = "checkpoint.npz"
CONFIG_NAME = "config.json"
VOCAB_NAME = "vocab.json"
TEXT_VOCAB_NAME = "textvocab.json"
METRICS_NAME = "metrics.jsonl"


def similarity_matrix(code_emb, text_emb, logit_scale):
    """scale * (C @ T^T) for normalized embedding batches."""
    return ndnn.matmul(code_emb, ndnn.transpose(text_emb, (1, 0))) * logit_scale


def clip_loss(sim):
    """Symmetric cross-entropy over an N x N similarity matrix.

    Row targets and column targets are both the diagonal; the two
    cross-entropies are averaged.  N=1 gives exactly 0.
    """
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise ndnn.ShapeError(f"similarity matrix must be square, got {sim.shape}")
    rows = ndnn.diagonal(ndnn.log_softmax(sim, axis=1))
    cols = ndnn.diagonal(ndnn.log_softmax(sim, axis=0))
    return (ndnn.tmean(rows) + ndnn.tmean(cols)) * (-0.5)


class CLCPModel:
    """Both encoders plus the learnable logit scale."""

    def __init__(self, config, text_vocab_size):
        self.config = config
        self.code_encoder = CodeEncoder(config)
        self.text_encoder = TextEncoder(config, text_vocab_size)
        self.log_scale = Tensor(np.array([np.log(config.temperature_init)],
                                         dtype=np.float32), requires_grad=True)

    def logit_scale(self):
        return ndnn.clip_max(ndnn.exp(self.log_scale), self.config.temperature_max)

    @property
    def temperature(self):
        return float(self.logit_scale().data[0])

    def encode_code(self, batch):
        return ndnn.l2_normalize(self.code_encoder.forward(Tensor(batch)), axis=1)

    def encode_text(self, ids):
        return ndnn.l2_normalize(self.text_encoder.forward(ids), axis=1)

    def pair_loss(self, code_batch, text_ids):
        sim = similarity_matrix(self.encode_code(code_batch),
                                self.encode_text(text_ids), self.logit_scale())
        return clip_loss(sim), sim

    def named_params(self):
        params = [(f"code.{n}", p) for n, p in self.code_encoder.named_params()]
        params += [(f"text.{n}", p) for n, p in self.text_encoder.named_params()]
        params.append(("logit_scale", self.log_scale))
        return params

    def named_buffers(self):
        return [(f"code.{n}", b) for n, b in self.code_encoder.named_buffers()]

    def set_training(self, flag):
        """Switch batch norm's statistics and gradient recording together.

        With ``flag`` false no parameter requires grad, so a forward records
        no tape and frees each op's inputs as soon as the next op has run.
        """
        self.code_encoder.set_training(flag)
        for _, p in self.named_params():
            p.requires_grad = flag

    def snapshot(self):
        arrays = {name: p.data.copy() for name, p in self.named_params()}
        arrays.update((name, buf.copy()) for name, buf in self.named_buffers())
        return arrays

    def load_snapshot(self, arrays):
        """Copy every parameter and buffer in place, after checking them all."""
        targets = [(name, p.data) for name, p in self.named_params()] + self.named_buffers()
        _check_members(arrays, [(name, dst.shape) for name, dst in targets])
        for name, dst in targets:
            dst[...] = arrays[name]   # in place, casting to dst's dtype: layers hold dst


@dataclass
class TrainState:
    """Loop counters a checkpoint saves beside the parameters, buffers and Adam state.

    The checkpoint holds them as one JSON object, its ``"state"`` member, read
    back by ``record_from_json``.  The generator state and the epoch permutation
    are not saved, so a checkpoint restores the model and optimizer but cannot
    resume the run.
    """

    step: int = 0
    epoch: int = 0
    seed: int = 0
    best_val: float = float("inf")
    best_epoch: int = -1
    aborted: bool = False


@dataclass
class TrainResult:
    model: CLCPModel
    state: TrainState
    metrics: list[dict]
    vocab: object
    text_vocab: TextVocabulary
    out_dir: Path | None = None


class TrainingAborted(RuntimeError):
    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


def _save_checkpoint(path, model, optimizer, state):
    arrays = [(n, p.data) for n, p in model.named_params()] + model.named_buffers()
    arrays += sorted(optimizer.state_arrays().items())
    arrays.append(("state", np.array(json.dumps(asdict(state)))))
    save_arrays(path, arrays)


def _parse_state(member):
    try:
        return record_from_json(TrainState, member.item())
    except ConfigError as exc:
        raise ValueError(f"state member is not a TrainState record: {exc}") from None


def load_checkpoint(path, model, optimizer=None):
    """Load ``path`` into ``model`` and ``optimizer``; returns the saved TrainState.

    Every member is checked before anything is written, so a damaged
    checkpoint raises a ValueError naming the file and changes nothing.
    """
    arrays = load_arrays(path)
    try:
        _check_members(arrays, [("state", ())])
        state = _parse_state(arrays["state"])
        if optimizer is not None:
            optimizer.check_state_arrays(arrays, model.named_params())
        model.load_snapshot(arrays)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    if optimizer is not None:
        optimizer.load_state_arrays(arrays)
    return state


@dataclass
class PreparedData:
    code_batch: np.ndarray   # (N, 1, L) float32
    text_ids: np.ndarray     # (N, T) int64
    vocab: object
    text_vocab: TextVocabulary
    code_truncated: int      # snippets longer than image_len
    text_truncated: int      # docs longer than text_max_len


def prepare_pairs(pairs, config, vocab=None, text_vocab=None, tokens=None):
    """Tokenize each distinct snippet once, build vocabularies if absent, and
    tensorize.  ``tokens`` maps snippets to their tokens and gains the new ones."""
    tables = load_default_tables()
    tokens = {} if tokens is None else tokens
    for r in pairs:
        if r.code not in tokens:
            tokens[r.code] = tokenize(r.code, tables)
    streams = [tokens[r.code] for r in pairs]
    docs = [r.doc for r in pairs]
    if vocab is None:
        vocab = build_vocab(streams, tables=tables)
    if text_vocab is None:
        text_vocab = TextVocabulary.build(docs, max_size=config.text_vocab)
    matrix, _, code_truncated = encode_streams(streams, vocab, config.image_len,
                                               on_exhaust="recycle")
    text_ids, text_truncated = text_vocab.encode_batch(docs, config.text_max_len)
    return PreparedData(images_to_batch(matrix, vocab.max_id), text_ids, vocab,
                        text_vocab, code_truncated, text_truncated)


def train(pairs, config, out_dir=None, vocab=None, text_vocab=None):
    """Train CLCP on a list of PairRecords: ``prepare_pairs``, then ``fit``."""
    data = prepare_pairs(pairs, config, vocab=vocab, text_vocab=text_vocab)
    return fit(data, config, out_dir)


def fit(data, config, out_dir=None):
    """Train CLCP on prepared pairs; returns the best-validation model.

    The validation split is a seeded fraction of the pairs; when it rounds to
    zero the training set doubles as validation (tiny overfit runs).  A NaN
    loss aborts the run, keeping the last good checkpoint.  ``data`` is only read.
    """
    if len(data.text_ids) < 2:
        raise ValueError("training needs at least 2 pairs")
    if config.batch_size == 1:
        warnings.warn("batch size 1 makes the contrastive loss degenerate at 0",
                      stacklevel=2)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(data.text_ids))
    n_val = int(round(len(order) * config.val_fraction))
    val_idx = order[:n_val]
    train_idx = order[n_val:]
    if len(train_idx) < 2:
        raise ValueError("validation split leaves fewer than 2 training pairs")

    model = CLCPModel(config, data.text_vocab.size)
    optimizer = ndnn.Adam(config.lr)
    params = model.named_params()
    state = TrainState(seed=config.seed)
    metrics = []
    if out_dir is not None:
        config.save(out_dir / CONFIG_NAME)
        save_vocab(data.vocab, out_dir / VOCAB_NAME)
        data.text_vocab.save(out_dir / TEXT_VOCAB_NAME)
        # a run's metrics start empty; each epoch appends one line
        (out_dir / METRICS_NAME).write_text("", encoding="utf-8")

    def train_step(idx):
        # the graph, with every op's saved inputs, dies on return, so it is
        # freed before the next step's forward builds its own
        model.set_training(True)
        loss, _ = model.pair_loss(data.code_batch[idx], data.text_ids[idx])
        value = float(loss.data)
        if not np.isfinite(value):
            raise ndnn.NumericError("loss became non-finite")
        zero_grads(params)
        loss.backward()
        optimizer.step(params)
        return value

    def validation_loss():
        idx = val_idx if len(val_idx) else train_idx
        model.set_training(False)
        total, count = 0.0, 0
        for start in range(0, len(idx), config.batch_size):
            chunk = idx[start:start + config.batch_size]
            loss, _ = model.pair_loss(data.code_batch[chunk], data.text_ids[chunk])
            total += float(loss.data) * len(chunk)
            count += len(chunk)
        return total / count

    best_snapshot = model.snapshot()
    result = TrainResult(model, state, metrics, data.vocab, data.text_vocab, out_dir)
    if out_dir is not None:
        _save_checkpoint(out_dir / CHECKPOINT_NAME, model, optimizer, state)
    for epoch in range(config.max_epochs):
        state.epoch = epoch
        perm = rng.permutation(train_idx)
        total, count = 0.0, 0
        for start in range(0, len(perm), config.batch_size):
            chunk = perm[start:start + config.batch_size]
            if len(chunk) < 2 and len(perm) > 1:
                continue  # a trailing singleton batch carries no signal
            try:
                value = train_step(chunk)
            except ndnn.NumericError as exc:
                state.aborted = True
                model.load_snapshot(best_snapshot)
                raise TrainingAborted(
                    f"{exc} at epoch {epoch} step {state.step}; "
                    f"last good checkpoint retained", result) from exc
            state.step += 1
            total += value * len(chunk)
            count += len(chunk)
        train_loss = total / max(count, 1)
        val_loss = validation_loss()
        entry = {"epoch": epoch, "step": state.step, "train_loss": train_loss,
                 "val_loss": val_loss, "temperature": model.temperature}
        metrics.append(entry)
        logger.info("epoch %d: train %.4f val %.4f temp %.2f",
                    epoch, train_loss, val_loss, model.temperature)
        if out_dir is not None:
            with open(out_dir / METRICS_NAME, "a", encoding="utf-8") as f:
                f.write(json.dumps(entry) + "\n")
        if val_loss < state.best_val:
            state.best_val = val_loss
            state.best_epoch = epoch
            best_snapshot = model.snapshot()
            if out_dir is not None:
                _save_checkpoint(out_dir / CHECKPOINT_NAME, model, optimizer, state)
        elif epoch - state.best_epoch >= config.patience:
            logger.info("early stop at epoch %d (no improvement for %d epochs)",
                        epoch, epoch - state.best_epoch)
            break
    model.load_snapshot(best_snapshot)
    model.set_training(False)
    return result


def load_run(run_dir):
    """Rebuild a trained model bundle from a run directory: ``config.json``,
    ``vocab.json``, ``textvocab.json``, ``checkpoint.npz`` and, if present,
    ``metrics.jsonl``.  A damaged file raises a ValueError naming it."""
    run_dir = Path(run_dir)
    try:
        config = ModelConfig.load(path := run_dir / CONFIG_NAME)
        vocabulary = load_vocab(path := run_dir / VOCAB_NAME)
        text_vocab = TextVocabulary.load(path := run_dir / TEXT_VOCAB_NAME)
        path = run_dir / CONFIG_NAME   # e.g. an image_len too short for the blocks
        model = CLCPModel(config, text_vocab.size)
        metrics = []
        if (path := run_dir / METRICS_NAME).exists():
            metrics = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            if bad := [n for n, entry in enumerate(metrics, 1) if not isinstance(entry, dict)]:
                raise ValueError(f"line {bad[0]} is not a JSON object")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    state = load_checkpoint(run_dir / CHECKPOINT_NAME, model)
    model.set_training(False)
    return TrainResult(model, state, metrics, vocabulary, text_vocab, run_dir)
