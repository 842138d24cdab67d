"""Encoder architectures mapping code images and descriptions to one space.

Each experiment axis is one table here.  ``ModelConfig.family`` picks one of
``FAMILIES``: ``lp`` (conv blocks with local max pooling), ``gp`` (same, but
the last block pools globally), or ``rn`` (1D residual blocks with a global
pool).  ``ABLATIONS`` maps each ablation tag (+BN, -Pool, -Init) to the one
config flag it sets.  The text side embeds a word-level vocabulary, adds
learned position rows, takes the mean over non-pad positions and projects it
to the shared space.
"""
from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import ndnn
from .ndnn import Tensor
from .ndnn.convpool import conv_out_len


class ConfigError(ValueError):
    pass


FAMILIES = ("lp", "gp", "rn")
# tag -> (flag, value); config_id appends the tags in this order
ABLATIONS = {"+BN": ("use_bn", True), "-Pool": ("use_pooling", False),
             "-Init": ("use_he_init", False)}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture plus training hyperparameters, checked on construction."""

    # code encoder
    family: str = "lp"           # one of FAMILIES
    blocks: int = 3
    kernel: int = 5
    stride: int = 1
    pool_window: int = 2         # local max pool; rn pools only globally
    pool_stride: int = 2
    use_bn: bool = False         # the three ablation flags, see ABLATIONS
    use_pooling: bool = True
    use_he_init: bool = True
    channels: tuple[int, ...] = ()   # empty -> 16 doubling, capped at 128
    embed_dim: int = 64
    image_len: int = 512
    # text encoder
    text_vocab: int = 2000
    text_embed: int = 64
    text_max_len: int = 32
    # contrastive head and optimization
    temperature_init: float = 1.0 / 0.07
    temperature_max: float = 100.0
    lr: float = 1e-3             # Adam step size
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 5
    val_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 3 <= self.blocks <= 7:
            raise ConfigError(f"blocks: must be in 3..7, got {self.blocks}")
        if self.family not in FAMILIES:
            raise ConfigError(
                f"family: must be one of {', '.join(FAMILIES)}, got {self.family!r}")
        if self.embed_dim < 8:
            raise ConfigError(f"embed_dim: must be >= 8, got {self.embed_dim}")
        if self.kernel < 1 or self.stride < 1:
            raise ConfigError("kernel/stride: must be >= 1")
        if self.pool_window < 1 or self.pool_stride < 1:
            raise ConfigError("pool_window/pool_stride: must be >= 1")
        if self.channels:
            if len(self.channels) != self.blocks:
                raise ConfigError(
                    f"channels: expected {self.blocks} entries, got {len(self.channels)}")
            if min(self.channels) < 1:
                raise ConfigError(f"channels: entries must be >= 1, got {self.channels}")
        if self.text_embed < 1:
            raise ConfigError(f"text_embed: must be >= 1, got {self.text_embed}")
        if self.text_max_len < 1:
            raise ConfigError(f"text_max_len: must be >= 1, got {self.text_max_len}")
        if self.text_vocab < 2:
            raise ConfigError(
                f"text_vocab: must be >= 2 (pad + OOV), got {self.text_vocab}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction: must be in [0, 1), got {self.val_fraction}")
        # a logit scale of 0 zeroes every gradient; a negative one has no log
        for name in ("temperature_init", "temperature_max"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be > 0, got {getattr(self, name)}")

    def channel_plan(self):
        """Per-block output channels."""
        if self.channels:
            return tuple(self.channels)
        return tuple(min(16 * 2 ** i, 128) for i in range(self.blocks))

    def config_id(self):
        return f"{self.family}{self.blocks}" + "".join(
            tag for tag, (flag, value) in ABLATIONS.items()
            if getattr(self, flag) == value)

    def save(self, path):
        Path(path).write_text(json.dumps(asdict(self), indent=0) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path):
        return record_from_json(cls, Path(path).read_text(encoding="utf-8"))


def record_from_json(cls, text):
    """Build the dataclass ``cls`` from a JSON object; a missing field keeps its default.

    Each value must have the type of its field's default: an int field takes
    no bool, a float field also takes an int, and a tuple field takes a list
    of ints.  An unknown key or a value of another type raises a ConfigError
    naming the key.
    """
    try:
        doc = json.loads(text)
    except (TypeError, ValueError) as exc:   # a non-string, or not JSON
        raise ConfigError(f"not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"expected a JSON object, got {type(doc).__name__}")
    protos = asdict(cls())
    kwargs = {}
    for name, value in doc.items():
        if name not in protos:
            raise ConfigError(f"{name}: unknown field")
        proto = protos[name]
        if isinstance(proto, tuple):
            ok = isinstance(value, list) and all(type(v) is int for v in value)
        else:
            ok = type(value) is type(proto) or (type(proto) is float and type(value) is int)
        if not ok:
            expected = "a list of ints" if isinstance(proto, tuple) else type(proto).__name__
            raise ConfigError(f"{name}: expected {expected}, got {value!r}")
        kwargs[name] = type(proto)(value)
    return cls(**kwargs)


def config_for_family(family, blocks=3, **overrides):
    """Convenience constructor for the lp / gp / rn baselines."""
    return ModelConfig(family=family, blocks=blocks, **overrides)


def apply_ablation(config, delta):
    """Return a copy of ``config`` with one ablation flag flipped."""
    if delta == "none":
        return replace(config)
    if delta not in ABLATIONS:
        raise ConfigError(f"delta: unknown ablation {delta!r}")
    flag, value = ABLATIONS[delta]
    return replace(config, **{flag: value})


# -- the code encoder: a list of named stages ---------------------------------


@dataclass(frozen=True)
class _ConvStage:
    """[conv -> [bn] -> relu] -> [pool]: an lp/gp block, rn's input conv, or
    rn's closing global pool (no conv)."""

    conv: ndnn.Conv1dLayer | None = None
    bn: ndnn.BatchNorm1dLayer | None = None
    pool: ndnn.Pool1dLayer | None = None

    def lengths(self, length):
        if self.conv is not None:
            length = conv_out_len(length, self.conv.kernel, self.conv.stride)
        if self.pool is None:
            return length, length
        if self.pool.scope == "global":
            return length, 1
        return length, conv_out_len(length, self.pool.window, self.pool.stride)

    def forward(self, h):
        if self.conv is not None:
            h = self.conv.forward(h)
            if self.bn is not None:
                h = self.bn.forward(h)
            h = ndnn.relu(h)
        if self.pool is not None:
            h = self.pool.forward(h)
        return h


@dataclass(frozen=True)
class _ResidualStage:
    """conv1 -> [bn1] -> relu -> conv2, plus a 1x1 shortcut cropped to its
    length, then [bn2] -> relu."""

    conv1: ndnn.Conv1dLayer
    conv2: ndnn.Conv1dLayer
    shortcut: ndnn.Conv1dLayer
    bn1: ndnn.BatchNorm1dLayer | None = None
    bn2: ndnn.BatchNorm1dLayer | None = None

    def lengths(self, length):
        series = conv_out_len(length, self.conv1.kernel, self.conv1.stride)
        series = conv_out_len(series, self.conv2.kernel, self.conv2.stride)
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


def _stages(config, layer):
    """The encoder's stages as (plan key, name, stage), in RNG-draw order;
    ``layer(cls, *args)`` makes each layer."""
    residual = config.family == "rn"
    chans = config.channel_plan()

    def conv(in_ch, out_ch, kernel, stride):
        return layer(ndnn.Conv1dLayer, in_ch, out_ch, kernel, stride)

    def bn(ch):
        return layer(ndnn.BatchNorm1dLayer, ch) if config.use_bn else None

    def pool(scope):
        if not config.use_pooling:
            return None
        return layer(ndnn.Pool1dLayer, config.pool_window, config.pool_stride, scope)

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
            global_here = config.family == "gp" and i == len(chans) - 1
            stage = _ConvStage(main, bn(out_ch),
                               pool("global" if global_here else "local"))
        stages.append((i, f"block{i}", stage))
    if residual and config.use_pooling:
        stages.append(("pool", "pool", _ConvStage(pool=pool("global"))))
    return stages


def network_key(config):
    """Equal for configs that build and train one model from the same draws: the
    stages as layer specs, made without drawing, and every field but ``family``."""
    others = tuple((f.name, getattr(config, f.name)) for f in fields(config)
                   if f.name != "family")
    return tuple(_stages(config, lambda *spec: spec)), others


def _check_finite(name, tensor):
    if not np.isfinite(tensor.data).all():
        raise ndnn.NumericError(f"non-finite activations after {name}")


class CodeEncoder:
    """A list of named stages (conv blocks or residual blocks), then a
    projection to d.  ``plan`` lists each stage's {"block", "conv", "pool"}
    output lengths; construction raises ConfigError naming the block whose
    input is shorter than a window."""

    def __init__(self, config):
        rng = np.random.default_rng(config.seed)
        self.stages, self.plan, self._params, self._bn_layers = {}, [], [], []
        length = config.image_len
        def layer(cls, *args):   # a conv is the only stage layer that draws
            if cls is ndnn.Conv1dLayer:
                return cls(*args, rng, he=config.use_he_init)
            return cls(*args)

        for key, name, stage in _stages(config, layer):
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
    def build(cls, docs, max_size=2000):
        counts = {}
        for doc in docs:
            for word in cls.tokenize(doc):
                counts[word] = counts.get(word, 0) + 1
        ranked = sorted(counts, key=lambda w: (-counts[w], w))
        table = {w: i + 2 for i, w in enumerate(ranked[:max_size - 2])}
        return cls(table)

    @property
    def size(self):
        return len(self.word_to_id) + 2

    def encode_batch(self, texts, max_len):
        """(len(texts), max_len) word IDs padded with 0, and how many texts were cut."""
        out = np.zeros((len(texts), max_len), dtype=np.int64)
        n_truncated = 0
        get = self.word_to_id.get
        for i, text in enumerate(texts):
            words = self.tokenize(text)
            n_truncated += len(words) > max_len
            ids = [get(word, OOV_WORD_ID) for word in words[:max_len]]
            out[i, :len(ids)] = ids
        return out, n_truncated

    def save(self, path):
        """Write the words as a JSON list in ID order; IDs start at 2."""
        words = sorted(self.word_to_id, key=self.word_to_id.get)
        Path(path).write_text(json.dumps(words, indent=0) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path):
        words = json.loads(Path(path).read_text(encoding="utf-8"))
        if not (isinstance(words, list) and all(type(w) is str for w in words)
                and len(set(words)) == len(words)):
            raise ValueError("not a JSON list of distinct words")
        return cls({word: i + 2 for i, word in enumerate(words)})


class TextEncoder:
    """Word embeddings plus positions, a mean over non-pad positions, then a
    projection to d."""

    def __init__(self, config, vocab_size):
        self.config = config
        rng = np.random.default_rng(config.seed + 101)
        e = config.text_embed
        self.embed = Tensor(rng.normal(0.0, 0.02, size=(vocab_size, e)).astype(np.float32),
                            requires_grad=True)
        self.pos = Tensor(rng.normal(0.0, 0.02, size=(config.text_max_len, e))
                          .astype(np.float32), requires_grad=True)
        self.proj = ndnn.DenseLayer(e, config.embed_dim, rng, he=config.use_he_init)
        self._params = [("embed.weight", self.embed), ("pos", self.pos)]
        self._params.extend((f"proj.{n}", p) for n, p in self.proj.params())

    def named_params(self):
        return list(self._params)

    def forward(self, ids):
        """ids: int array (B, T) with 0 = pad -> (B, embed_dim)."""
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != self.config.text_max_len:
            raise ndnn.ShapeError(
                f"text ids must be (B, {self.config.text_max_len}), got {ids.shape}")
        pad_mask = ids == PAD_WORD_ID
        h = ndnn.embedding(self.embed, ids) + self.pos
        keep = Tensor((~pad_mask).astype(h.dtype)[:, :, None])
        counts = np.maximum(keep.data.sum(axis=1), 1.0)
        pooled = ndnn.tsum(h * keep, axis=1) * Tensor((1.0 / counts).astype(h.dtype))
        out = self.proj.forward(pooled)
        _check_finite("text proj", out)
        return out

