"""Encoder architectures mapping code images and descriptions to one space.

Three code-encoder families share one config record: ``lp`` (conv blocks with
local pooling), ``gp`` (same, but the last block pools globally), and ``rn``
(1D residual blocks with a global pool).  The text side is a small
from-scratch transformer over a word-level vocabulary; ``text_layers=0``
degenerates to a mean of embeddings, which trains fast at desk scale.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import ndnn
from .ndnn import Tensor


class ConfigError(ValueError):
    pass


@dataclass
class ModelConfig:
    """Architecture plus training hyperparameters; one flat record."""

    # code encoder
    blocks: int = 3
    kernel: int = 5
    stride: int = 1
    pool_window: int = 2
    pool_stride: int = 2
    pool_mode: str = "max"       # max | avg
    pooling: str = "local"       # local | global
    arch: str = "block"          # block | residual
    use_bn: bool = False
    use_pooling: bool = True
    use_he_init: bool = True
    channels: tuple[int, ...] = ()   # empty -> 16 doubling, capped at 128
    embed_dim: int = 64
    image_len: int = 512
    # text encoder
    text_vocab: int = 2000
    text_embed: int = 64
    text_layers: int = 0
    text_heads: int = 4
    text_ff: int = 128
    text_max_len: int = 32
    # contrastive head and optimization
    temperature_init: float = 1.0 / 0.07
    temperature_max: float = 100.0
    optimizer: str = "adam"
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 5
    val_fraction: float = 0.05
    seed: int = 0

    def validate(self):
        if not 3 <= self.blocks <= 7:
            raise ConfigError(f"blocks: must be in 3..7, got {self.blocks}")
        if self.arch not in ("block", "residual"):
            raise ConfigError(f"arch: must be 'block' or 'residual', got {self.arch!r}")
        if self.pooling not in ("local", "global"):
            raise ConfigError(f"pooling: must be 'local' or 'global', got {self.pooling!r}")
        if self.pool_mode not in ("max", "avg"):
            raise ConfigError(f"pool_mode: must be 'max' or 'avg', got {self.pool_mode!r}")
        if self.embed_dim < 8:
            raise ConfigError(f"embed_dim: must be >= 8, got {self.embed_dim}")
        if self.kernel < 1 or self.stride < 1:
            raise ConfigError("kernel/stride: must be >= 1")
        if self.text_embed % self.text_heads:
            raise ConfigError("text_heads: must divide text_embed")
        if self.text_vocab < 2:
            raise ConfigError(
                f"text_vocab: must be >= 2 (pad + OOV), got {self.text_vocab}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer: must be 'adam' or 'sgd', got {self.optimizer!r}")
        return self

    def channel_plan(self):
        if self.channels:
            if len(self.channels) != self.blocks:
                raise ConfigError(
                    f"channels: expected {self.blocks} entries, got {len(self.channels)}")
            return tuple(self.channels)
        return tuple(min(16 * 2 ** i, 128) for i in range(self.blocks))

    def family(self):
        if self.arch == "residual":
            return "rn"
        return "gp" if self.pooling == "global" else "lp"

    def config_id(self):
        tags = [f"{self.family()}{self.blocks}"]
        if self.use_bn:
            tags.append("+BN")
        if not self.use_pooling:
            tags.append("-Pool")
        if not self.use_he_init:
            tags.append("-Init")
        return "".join(tags)

    # flat key=value file, every field addressable
    def to_text(self):
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "channels":
                value = ",".join(str(c) for c in value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    def save(self, path):
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def from_text(cls, text):
        known = {f.name: f for f in fields(cls)}
        kwargs = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in known:
                raise ConfigError(f"{key}: unknown config field")
            kwargs[key] = _parse_field(key, raw)
        return cls(**kwargs)

    @classmethod
    def load(cls, path):
        return cls.from_text(Path(path).read_text(encoding="utf-8"))


def _parse_field(name, raw):
    if name == "channels":
        return tuple(int(x) for x in raw.split(",") if x) if raw else ()
    proto = getattr(ModelConfig(), name)
    if isinstance(proto, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    if isinstance(proto, int):
        return int(raw)
    if isinstance(proto, float):
        return float(raw)
    return raw


def config_for_family(family, blocks=3, **overrides):
    """Convenience constructor for the lp / gp / rn baselines."""
    if family == "lp":
        cfg = ModelConfig(blocks=blocks, arch="block", pooling="local", **overrides)
    elif family == "gp":
        cfg = ModelConfig(blocks=blocks, arch="block", pooling="global", **overrides)
    elif family == "rn":
        cfg = ModelConfig(blocks=blocks, arch="residual", pooling="global", **overrides)
    else:
        raise ConfigError(f"family: must be lp, gp, or rn, got {family!r}")
    return cfg.validate()


def apply_ablation(config, delta):
    """Return a copy of ``config`` with one ablation flag flipped."""
    from dataclasses import replace
    if delta == "none":
        return replace(config)
    if delta == "+BN":
        return replace(config, use_bn=True)
    if delta == "-Pool":
        return replace(config, use_pooling=False)
    if delta == "-Init":
        return replace(config, use_he_init=False)
    raise ConfigError(f"delta: unknown ablation {delta!r}")


# -- the code encoder: a list of named stages ---------------------------------


@dataclass
class _ConvStage:
    """[conv -> [bn] -> relu] -> [pool]: an lp/gp block, rn's input conv, or
    rn's closing global pool (no conv)."""

    conv: ndnn.Conv1dLayer | None = None
    bn: ndnn.BatchNorm1dLayer | None = None
    pool: ndnn.Pool1dLayer | None = None

    def lengths(self, length):
        if self.conv is not None:
            length = ndnn.conv_out_len(length, self.conv.kernel, self.conv.stride)
        if self.pool is None:
            return length, length
        if self.pool.scope == "global":
            return length, 1
        return length, ndnn.conv_out_len(length, self.pool.window, self.pool.stride)

    def forward(self, h):
        if self.conv is not None:
            h = self.conv.forward(h)
            if self.bn is not None:
                h = self.bn.forward(h)
            h = ndnn.relu(h)
        if self.pool is not None:
            h = self.pool.forward(h)
        return h


@dataclass
class _ResidualStage:
    """conv1 -> [bn1] -> relu -> conv2, plus a 1x1 shortcut cropped to its
    length, then [bn2] -> relu."""

    conv1: ndnn.Conv1dLayer
    conv2: ndnn.Conv1dLayer
    shortcut: ndnn.Conv1dLayer
    bn1: ndnn.BatchNorm1dLayer | None = None
    bn2: ndnn.BatchNorm1dLayer | None = None

    def lengths(self, length):
        series = ndnn.conv_out_len(length, self.conv1.kernel, self.conv1.stride)
        series = ndnn.conv_out_len(series, self.conv2.kernel, self.conv2.stride)
        return series, series

    def forward(self, h):
        series = self.conv1.forward(h)
        if self.bn1 is not None:
            series = self.bn1.forward(series)
        series = self.conv2.forward(ndnn.relu(series))
        skip = ndnn.narrow(self.shortcut.forward(h), 2, 0, series.shape[2])
        merged = series + skip
        if self.bn2 is not None:
            merged = self.bn2.forward(merged)
        return ndnn.relu(merged)


def _stages(config, rng):
    """The encoder's stages as (plan key, name, stage), built in RNG-draw order."""
    residual = config.arch == "residual"
    chans = config.channel_plan()

    def conv(in_ch, out_ch, kernel, stride):
        return ndnn.Conv1dLayer(in_ch, out_ch, kernel, stride, rng,
                                he=config.use_he_init)

    def bn(ch):
        return ndnn.BatchNorm1dLayer(ch) if config.use_bn else None

    def pool(scope):
        if not config.use_pooling:
            return None
        return ndnn.Pool1dLayer(config.pool_window, config.pool_stride,
                                config.pool_mode, scope)

    stages = []
    if residual:
        stages.append(("input", "input", _ConvStage(
            conv(1, chans[0], config.kernel, config.stride))))
    in_chs = (chans[0] if residual else 1,) + chans[:-1]
    for i, (in_ch, out_ch) in enumerate(zip(in_chs, chans)):
        main = conv(in_ch, out_ch, config.kernel, config.stride)
        if residual:
            stage = _ResidualStage(main, conv(out_ch, out_ch, config.kernel, 1),
                                   conv(in_ch, out_ch, 1, config.stride),
                                   bn(out_ch), bn(out_ch))
        else:
            global_here = config.pooling == "global" and i == len(chans) - 1
            stage = _ConvStage(main, bn(out_ch),
                               pool("global" if global_here else "local"))
        stages.append((i, f"block{i}", stage))
    if residual and config.use_pooling:
        stages.append(("pool", "pool", _ConvStage(pool=pool("global"))))
    return stages


def shape_plan(config):
    """Per-stage output lengths: a list of {"block", "conv", "pool"}.

    Raises ConfigError naming the block whose input is shorter than a window.
    It walks the stages of a freshly built encoder, so construction succeeds
    exactly when this plan does.
    """
    return CodeEncoder(config).plan


def _check_finite(name, tensor):
    if not np.isfinite(tensor.data).all():
        raise ndnn.NumericError(f"non-finite activations after {name}")


class CodeEncoder:
    """A list of named stages (conv blocks or residual blocks), then a
    projection to d."""

    def __init__(self, config, rng=None):
        config.validate()
        self.config = config
        rng = rng or np.random.default_rng(config.seed)
        self.stages, self.plan, self._params, self._bn_layers = {}, [], [], []
        length = config.image_len
        for key, name, stage in _stages(config, rng):
            try:
                conv_len, length = stage.lengths(length)
            except ndnn.ShapeError as exc:
                raise ConfigError(f"block {key}: {exc}") from exc
            self.plan.append({"block": key, "conv": conv_len, "pool": length})
            self.stages[name] = stage
            for f in fields(stage):   # a stage's fields are its layers
                layer = getattr(stage, f.name)
                if layer is None:
                    continue
                # rn's input conv is registered as input.weight, input.bias
                prefix = name if name == "input" else f"{name}.{f.name}"
                self._register(prefix, layer)
                if isinstance(layer, ndnn.BatchNorm1dLayer):
                    self._bn_layers.append((prefix, layer))
        self.proj = ndnn.DenseLayer(config.channel_plan()[-1] * self.plan[-1]["pool"],
                                    config.embed_dim, rng, he=config.use_he_init)
        self._register("proj", self.proj)

    def _register(self, prefix, layer):
        self._params.extend((f"{prefix}.{n}", p) for n, p in layer.params())

    def named_params(self):
        return list(self._params)

    def named_buffers(self):
        """Batch-norm running statistics: model state that is not trained."""
        return [(f"{prefix}.{stat}", getattr(bn, stat)) for prefix, bn in self._bn_layers
                for stat in ("running_mean", "running_var")]

    def set_training(self, flag):
        for _, bn in self._bn_layers:
            bn.set_training(flag)

    def forward(self, x):
        """x: Tensor (B, 1, image_len) of normalized IDs -> (B, embed_dim)."""
        h = x
        for name, stage in self.stages.items():
            h = stage.forward(h)
            _check_finite(name, h)
        flat = ndnn.reshape(h, (h.shape[0], -1))
        out = self.proj.forward(flat)
        _check_finite("proj", out)
        return out


_WORD_RE = re.compile(r"[a-z0-9]+")

PAD_WORD_ID = 0
OOV_WORD_ID = 1


@dataclass
class TextVocabulary:
    """Lowercased word-level vocabulary with pad=0 and an OOV bucket=1."""

    word_to_id: dict[str, int] = field(default_factory=dict)

    @staticmethod
    def tokenize(text):
        return _WORD_RE.findall(text.lower())

    @classmethod
    def build(cls, docs, max_size=2000, min_count=1):
        counts = {}
        for doc in docs:
            for word in cls.tokenize(doc):
                counts[word] = counts.get(word, 0) + 1
        ranked = sorted(((c, w) for w, c in counts.items() if c >= min_count),
                        key=lambda cw: (-cw[0], cw[1]))
        table = {w: i + 2 for i, (_, w) in enumerate(ranked[:max_size - 2])}
        return cls(table)

    @property
    def size(self):
        return len(self.word_to_id) + 2

    def encode(self, text, max_len):
        words = self.tokenize(text)
        truncated = len(words) > max_len
        ids = np.zeros(max_len, dtype=np.int64)
        for i, word in enumerate(words[:max_len]):
            ids[i] = self.word_to_id.get(word, OOV_WORD_ID)
        return ids, truncated

    def encode_batch(self, texts, max_len):
        out = np.zeros((len(texts), max_len), dtype=np.int64)
        n_truncated = 0
        for i, text in enumerate(texts):
            out[i], trunc = self.encode(text, max_len)
            n_truncated += int(trunc)
        return out, n_truncated

    def to_text(self):
        lines = [f"{w}\t{i}" for w, i in sorted(self.word_to_id.items(),
                                                key=lambda kv: kv[1])]
        return "\n".join(lines) + "\n" if lines else ""

    def save(self, path):
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path):
        table = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line:
                word, id_ = line.split("\t")
                table[word] = int(id_)
        return cls(table)


class TextEncoder:
    """Word embeddings + positions, optional attention blocks, masked mean."""

    def __init__(self, config, vocab_size, rng=None):
        config.validate()
        self.config = config
        rng = rng or np.random.default_rng(config.seed + 101)
        he = config.use_he_init
        e = config.text_embed
        self.embed = ndnn.EmbeddingLayer(vocab_size, e, rng)
        self.pos = Tensor(rng.normal(0.0, 0.02, size=(config.text_max_len, e))
                          .astype(np.float32), requires_grad=True)
        self.blocks = [(ndnn.SelfAttentionLayer(e, config.text_heads, rng, he=he),
                        ndnn.FeedForwardLayer(e, config.text_ff, rng, he=he))
                       for _ in range(config.text_layers)]
        self.proj = ndnn.DenseLayer(e, config.embed_dim, rng, he=he)
        self._params = [("embed.weight", self.embed.weight), ("pos", self.pos)]
        for i, (attn, ff) in enumerate(self.blocks):
            self._params.extend((f"attn{i}.{n}", p) for n, p in attn.params())
            self._params.extend((f"ff{i}.{n}", p) for n, p in ff.params())
        self._params.extend((f"proj.{n}", p) for n, p in self.proj.params())

    def named_params(self):
        return list(self._params)

    def set_training(self, flag):
        pass

    def forward(self, ids):
        """ids: int array (B, T) with 0 = pad -> (B, embed_dim)."""
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != self.config.text_max_len:
            raise ndnn.ShapeError(
                f"text ids must be (B, {self.config.text_max_len}), got {ids.shape}")
        pad_mask = ids == PAD_WORD_ID
        h = self.embed.forward(ids) + self.pos
        for i, (attn, ff) in enumerate(self.blocks):
            h = h + attn.forward(h, pad_mask)
            h = h + ff.forward(h)
            _check_finite(f"text block{i}", h)
        keep = Tensor((~pad_mask).astype(h.dtype)[:, :, None])
        counts = np.maximum(keep.data.sum(axis=1), 1.0)
        pooled = ndnn.tsum(h * keep, axis=1) * Tensor((1.0 / counts).astype(h.dtype))
        out = self.proj.forward(pooled)
        _check_finite("text proj", out)
        return out


def embed(encoder, batch):
    """Forward plus L2 normalization; every output row has unit norm."""
    if isinstance(encoder, TextEncoder):
        raw = encoder.forward(batch)
    else:
        x = batch if isinstance(batch, Tensor) else Tensor(np.asarray(batch))
        raw = encoder.forward(x)
    return ndnn.l2_normalize(raw, axis=1)
