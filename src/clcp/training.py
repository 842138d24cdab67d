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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ndnn
from .encoders import (
    CodeEncoder,
    ModelConfig,
    TextEncoder,
    TextVocabulary,
    embed,
)
from .himg import encode_streams, images_to_batch
from .ndnn import Tensor
from .pylex import load_default_tables, tokenize
from .vocab import build_vocab, load_vocab, save_vocab

logger = logging.getLogger(__name__)

CHECKPOINT_NAME = "checkpoint.ndnc"
CONFIG_NAME = "config.cfg"
VOCAB_NAME = "vocab.tsv"
TEXT_VOCAB_NAME = "textvocab.tsv"
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

    def __init__(self, config, text_vocab_size, rng=None):
        config.validate()
        self.config = config
        rng = rng or np.random.default_rng(config.seed)
        self.code_encoder = CodeEncoder(config, rng)
        self.text_encoder = TextEncoder(config, text_vocab_size,
                                        np.random.default_rng(config.seed + 101))
        self.log_scale = Tensor(np.array([np.log(config.temperature_init)],
                                         dtype=np.float32), requires_grad=True)

    def logit_scale(self):
        return ndnn.clip_max(ndnn.exp(self.log_scale), self.config.temperature_max)

    @property
    def temperature(self):
        return float(min(np.exp(self.log_scale.data[0]), self.config.temperature_max))

    def encode_code(self, batch):
        return embed(self.code_encoder, batch)

    def encode_text(self, ids):
        return embed(self.text_encoder, ids)

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
        self.code_encoder.set_training(flag)
        self.text_encoder.set_training(flag)

    def snapshot(self):
        arrays = {name: p.data.copy() for name, p in self.named_params()}
        arrays.update((name, buf.copy()) for name, buf in self.named_buffers())
        return arrays

    def load_snapshot(self, arrays):
        params = [(name, p.data) for name, p in self.named_params()]
        for name, dst in params + self.named_buffers():
            src = arrays[name]
            if src.shape != dst.shape:
                raise ValueError(f"checkpoint shape mismatch for {name}: "
                                 f"{src.shape} vs {dst.shape}")
            dst[...] = src   # in place, casting to dst's dtype: layers hold dst


@dataclass
class TrainState:
    """Everything needed to restore a run exactly at fixed precision."""

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
    arrays.append(("state.step", np.array([state.step], dtype=np.int64)))
    arrays.append(("state.epoch", np.array([state.epoch], dtype=np.int64)))
    arrays.append(("state.seed", np.array([state.seed], dtype=np.int64)))
    arrays.append(("state.best_val", np.array([state.best_val], dtype=np.float64)))
    arrays.append(("state.best_epoch", np.array([state.best_epoch], dtype=np.int64)))
    ndnn.save_arrays(path, arrays)


def load_checkpoint(path, model, optimizer=None):
    arrays = ndnn.load_arrays(path)
    model.load_snapshot({n: a for n, a in arrays.items()
                         if not n.startswith(("adam.", "state."))})
    if optimizer is not None:
        opt_arrays = {n: a for n, a in arrays.items() if n.startswith("adam.")}
        if opt_arrays:
            optimizer.load_state_arrays(opt_arrays)
    state = TrainState(
        step=int(arrays["state.step"][0]),
        epoch=int(arrays["state.epoch"][0]),
        seed=int(arrays["state.seed"][0]),
        best_val=float(arrays["state.best_val"][0]),
        best_epoch=int(arrays["state.best_epoch"][0]),
    )
    return state


@dataclass
class PreparedData:
    code_batch: np.ndarray   # (N, 1, L) float32
    text_ids: np.ndarray     # (N, T) int64
    vocab: object
    text_vocab: TextVocabulary
    code_truncated: int      # snippets longer than image_len
    text_truncated: int      # docs longer than text_max_len


def prepare_pairs(pairs, config, vocab=None, text_vocab=None):
    """Tokenize each snippet once, build vocabularies if absent, and tensorize."""
    tables = load_default_tables()
    streams = [tokenize(r.code, tables) for r in pairs]
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
    """Train CLCP on a list of PairRecords; returns the best-validation model.

    The validation split is a seeded fraction of the pairs; when it rounds to
    zero the training set doubles as validation (tiny overfit runs).  A NaN
    loss aborts the run, keeping the last good checkpoint.
    """
    config.validate()
    if len(pairs) < 2:
        raise ValueError("training needs at least 2 pairs")
    if config.batch_size == 1:
        warnings.warn("batch size 1 makes the contrastive loss degenerate at 0",
                      stacklevel=2)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(pairs))
    n_val = int(round(len(pairs) * config.val_fraction))
    val_idx = order[:n_val]
    train_idx = order[n_val:]
    if len(train_idx) < 2:
        raise ValueError("validation split leaves fewer than 2 training pairs")

    data = prepare_pairs(pairs, config, vocab=vocab, text_vocab=text_vocab)
    model = CLCPModel(config, data.text_vocab.size)
    optimizer = ndnn.make_optimizer(config.optimizer, config.lr)
    params = model.named_params()
    state = TrainState(seed=config.seed)
    metrics = []
    if out_dir is not None:
        config.save(out_dir / CONFIG_NAME)
        save_vocab(data.vocab, out_dir / VOCAB_NAME)
        data.text_vocab.save(out_dir / TEXT_VOCAB_NAME)
        # a run's metrics start empty; each epoch appends one line
        (out_dir / METRICS_NAME).write_text("", encoding="utf-8")

    def batch_loss(idx, train_mode):
        model.set_training(train_mode)
        loss, _ = model.pair_loss(data.code_batch[idx], data.text_ids[idx])
        return loss

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
    stale = 0
    for epoch in range(config.max_epochs):
        state.epoch = epoch
        perm = rng.permutation(train_idx)
        total, count = 0.0, 0
        for start in range(0, len(perm), config.batch_size):
            chunk = perm[start:start + config.batch_size]
            if len(chunk) < 2 and len(perm) > 1:
                continue  # a trailing singleton batch carries no signal
            try:
                loss = batch_loss(chunk, train_mode=True)
                value = float(loss.data)
                if not np.isfinite(value):
                    raise ndnn.NumericError("loss became non-finite")
                ndnn.zero_grads(params)
                loss.backward()
                optimizer.step(params)
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
            stale = 0
            if out_dir is not None:
                _save_checkpoint(out_dir / CHECKPOINT_NAME, model, optimizer, state)
        else:
            stale += 1
            if stale >= config.patience:
                logger.info("early stop at epoch %d (no improvement for %d epochs)",
                            epoch, stale)
                break
    model.load_snapshot(best_snapshot)
    model.set_training(False)
    return result


def load_run(run_dir):
    """Rebuild a trained model bundle from a run directory."""
    run_dir = Path(run_dir)
    config = ModelConfig.load(run_dir / CONFIG_NAME)
    vocabulary = load_vocab(run_dir / VOCAB_NAME)
    text_vocab = TextVocabulary.load(run_dir / TEXT_VOCAB_NAME)
    model = CLCPModel(config, text_vocab.size)
    state = load_checkpoint(run_dir / CHECKPOINT_NAME, model)
    model.set_training(False)
    metrics = []
    metrics_path = run_dir / METRICS_NAME
    if metrics_path.exists():
        metrics = [json.loads(line)
                   for line in metrics_path.read_text(encoding="utf-8").splitlines()]
    return TrainResult(model, state, metrics, vocabulary, text_vocab, run_dir)
