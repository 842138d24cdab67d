"""Encoder architectures mapping code images and descriptions to one space.

Each experiment axis is one table here.  ``ModelConfig.family`` picks one of
``FAMILIES``: ``lp`` (conv blocks with local max pooling), ``gp`` (same, but
the last block does not pool) or ``rn`` (1D residual blocks); gp and rn end in
a global max pool over each row.  ``ABLATIONS`` maps each ablation tag (+BN,
-Pool, -Init) to the one config flag it sets.  The text side embeds a
word-level vocabulary, adds learned position rows, takes the mean over non-pad
positions and projects it to the shared space.
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
        # JSON's NaN and Infinity load as floats, and NaN fails no comparison
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{f.name}: must be finite, got {value}")
        if not 3 <= self.blocks <= 7:
            raise ConfigError(f"blocks: must be in 3..7, got {self.blocks}")
        if self.family not in FAMILIES:
            raise ConfigError(
                f"family: must be one of {', '.join(FAMILIES)}, got {self.family!r}")
        # text_vocab holds pad and OOV; no epoch would return an untrained model
        for name, least in (("embed_dim", 8), ("kernel", 1), ("stride", 1), ("pool_window", 1),
                            ("pool_stride", 1), ("image_len", 1), ("text_embed", 1),
                            ("text_max_len", 1), ("text_vocab", 2), ("batch_size", 1),
                            ("max_epochs", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name}: must be >= {least}, got {getattr(self, name)}")
        if self.channels:
            if len(self.channels) != self.blocks:
                raise ConfigError(
                    f"channels: expected {self.blocks} entries, got {len(self.channels)}")
            if min(self.channels) < 1:
                raise ConfigError(f"channels: entries must be >= 1, got {self.channels}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction: must be in [0, 1), got {self.val_fraction}")
        # a logit scale or step size of 0 zeroes every update; a negative
        # scale has no log, and a negative step climbs the loss
        for name in ("temperature_init", "temperature_max", "lr"):
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


def _row_starts(counts, stride):
    """Where rows of ``counts`` columns start when laid end to end, each at a
    multiple of ``stride``: the running sum of the earlier rows' counts, each
    rounded up to ``stride``."""
    return np.concatenate(([0], np.cumsum(-(-counts[:-1] // stride) * stride)))


@dataclass(frozen=True)
class _Packing:
    """Where a batch's rows lie in a packed map (see ``CodeEncoder.forward``):
    row ``i``'s ``counts[i]`` valid columns start at column ``starts[i]``, and
    ``planned`` is the map's length at full image length."""

    starts: np.ndarray
    counts: np.ndarray
    planned: int

    @classmethod
    def pack(cls, images, rf, jump):
        """(packed (1, 1, N) images, their packing): each row's own span."""
        rows = images[:, 0]
        image_len = rows.shape[1]
        content = rows != 0   # pad is ID 0, which no real token gets
        lengths = np.where(content.any(axis=1), image_len - content[:, ::-1].argmax(axis=1), 0)
        spans = np.minimum(-(-lengths // jump) * jump + rf, image_len)
        starts = _row_starts(spans, jump)
        packed = np.zeros((1, 1, starts[-1] + spans[-1]), dtype=images.dtype)
        for row, start, span in zip(rows, starts, spans):
            packed[0, 0, start:start + span] = row[:span]
        return Tensor(packed), cls(starts, spans, image_len)

    def after(self, windows):
        """The packing of the map that valid ``windows`` make of this one."""
        starts, counts, planned = self.starts, self.counts, self.planned
        for kernel, stride in windows:   # starts are multiples of every stride
            starts, counts = starts // stride, (counts - kernel) // stride + 1
            planned = conv_out_len(planned, kernel, stride)
        return _Packing(starts, counts, planned)

    def repack(self, h, stride):
        """(the packed map ``h`` without its junk, its packing): each row's
        valid columns move to a start that is a multiple of ``stride``, and
        the columns that round a row's width up to ``stride`` are the ones
        after it."""
        starts = _row_starts(self.counts, stride)
        widths = np.diff(starts, append=starts[-1] + self.counts[-1])
        cols = np.arange(widths.sum()) + np.repeat(self.starts - starts, widths)
        return ndnn.take_columns(h, cols), _Packing(starts, self.counts, self.planned)

    def weights(self, length):
        """Batch-norm column weights (1, ``length``) of this packed map: 0 on
        junk, 1 on a row's columns, and its last one also stands for the
        row's columns cut from ``planned``."""
        cols = np.arange(length)
        row = np.searchsorted(self.starts, cols, side="right") - 1
        w = (cols - self.starts[row] < self.counts[row]).astype(np.float64)
        w[self.starts + self.counts - 1] += self.planned - self.counts
        return w[None]


@dataclass(frozen=True)
class _ConvStage:
    """conv -> [bn] -> relu -> [max pool]: an lp/gp block or rn's input conv;
    ``pool`` is the local pool's (window, stride).  Every stage's ``forward``
    takes a packed map and its ``_Packing``, which gives each batch norm its
    column weights."""

    conv: ndnn.Conv1dLayer
    bn: ndnn.BatchNorm1dLayer | None = None
    pool: tuple[int, int] | None = None

    @property
    def windows(self):
        conv = (self.conv.kernel, self.conv.stride)
        return (conv,) if self.pool is None else (conv, self.pool)

    def forward(self, h, packing):
        h = self.conv.forward(h)
        if self.bn is not None:
            h = self.bn.forward(h, packing.after(self.windows[:1]).weights(h.shape[2]))
        h = ndnn.relu(h)
        if self.pool is not None:
            h = ndnn.max_pool1d(h, *self.pool)
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
    pool = None   # no local pool

    @property
    def windows(self):
        # the 1x1 shortcut reads the first input of each conv1 window
        return (self.conv1.kernel, self.conv1.stride), (self.conv2.kernel, self.conv2.stride)

    def forward(self, h, packing):
        series = self.conv1.forward(h)
        if self.bn1 is not None:
            series = self.bn1.forward(
                series, packing.after(self.windows[:1]).weights(series.shape[2]))
        series = self.conv2.forward(ndnn.relu(series))
        skip = ndnn.narrow(self.shortcut.forward(h), 2, 0, series.shape[2])
        merged = series + skip
        if self.bn2 is not None:
            merged = self.bn2.forward(merged, packing.after(self.windows).weights(merged.shape[2]))
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

    pool = (config.pool_window, config.pool_stride) if config.use_pooling else None
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
            last_gp = config.family == "gp" and i == len(chans) - 1
            stage = _ConvStage(main, bn(out_ch), None if last_gp else pool)
        stages.append((i, f"block{i}", stage))
    return stages


def network_key(config):
    """Equal for configs that build and train one model from the same draws: the
    stages as layer specs, made without drawing, and every field but ``family``."""
    others = tuple((f.name, getattr(config, f.name)) for f in fields(config)
                   if f.name != "family")
    return tuple(_stages(config, lambda *spec: spec)), others


def draw_key(encoder):
    """Equal for encoders that start from the same weights: the encoder's kind,
    seed and He-init flag, and the shapes of the weights it draws in draw
    order (its ``drawn`` list), read off its layers, so it needs no draw and
    follows any change to what an encoder draws."""
    config = encoder.config
    return (type(encoder).__name__, config.seed, config.use_he_init,
            tuple(w.shape for w in encoder.drawn))


def _check_finite(name, tensor):
    if not np.isfinite(tensor.data).all():
        raise ndnn.NumericError(f"non-finite activations after {name}")


class CodeEncoder:
    """Named local stages (conv or residual blocks), gp's and rn's global max
    pool, then a projection to d.  ``plan`` lists each stage's {"block",
    "conv", "pool"} output lengths, "conv" before its local pool, and the
    global pool's last; construction raises ConfigError naming the block whose
    input is shorter than a window.  ``drawn`` lists the weights drawn from
    ``default_rng(config.seed)``, in draw order; with ``draw`` false nothing is
    drawn and they are zeros for the caller to set."""

    def __init__(self, config, draw=True):
        self.config = config
        rng = np.random.default_rng(config.seed) if draw else None
        self.stages, self.plan, self._params, self._bn_layers = {}, [], [], []
        self.drawn = []
        self.image_len = length = config.image_len
        # output o of the windows so far reads inputs o * jump .. o * jump + rf - 1
        rf, jump = 1, 1
        jumps = {}   # stage name -> total stride of the windows up to its own
        def layer(cls, *args):   # a conv is the only stage layer that draws
            if cls is not ndnn.Conv1dLayer:
                return cls(*args)
            conv = cls(*args, rng, he=config.use_he_init)
            self.drawn.append(conv.weight)
            return conv

        for key, name, stage in _stages(config, layer):
            for kernel, stride in stage.windows:   # a local pool is the last
                try:
                    before, length = length, conv_out_len(length, kernel, stride)
                except ndnn.ShapeError as exc:
                    raise ConfigError(f"block {key}: {exc}") from exc
                rf, jump = rf + (kernel - 1) * jump, jump * stride
            jumps[name] = jump
            self.plan.append({"block": key, "conv": length if stage.pool is None else before,
                              "pool": length})
            self.stages[name] = stage
            for f in fields(stage):   # a stage's fields are its layers, and a pool pair
                layer = getattr(stage, f.name)
                if layer is None or f.name == "pool":
                    continue
                # rn's input conv is registered as input.weight, input.bias
                prefix = name if name == "input" else f"{name}.{f.name}"
                self._register(prefix, layer)
                if isinstance(layer, ndnn.BatchNorm1dLayer):
                    self._bn_layers.append((prefix, layer))
        if config.family != "lp" and config.use_pooling:   # forward pools whole rows
            self.plan.append({"block": "pool", "conv": length, "pool": 1})
        self.proj = ndnn.DenseLayer(config.channel_plan()[-1] * self.plan[-1]["pool"],
                                    config.embed_dim, rng, he=config.use_he_init)
        self.drawn.append(self.proj.weight)
        self._register("proj", self.proj)
        self._reach = rf, jump
        # the stride of the windows still to run after each stage but the last
        self._strides_left = {n: jump // j for n, j in list(jumps.items())[:-1]}

    def _register(self, prefix, layer):
        self._params.extend((f"{prefix}.{n}", p) for n, p in layer.params())

    def named_params(self):
        return list(self._params)

    def named_buffers(self):
        """Batch-norm running statistics: model state that is not trained."""
        return [(f"{prefix}.{stat}", getattr(bn, stat)) for prefix, bn in self._bn_layers
                for stat in ("running_mean", "running_var")]

    def forward(self, x):
        """x: Tensor (B, 1, image_len) of normalized IDs -> (B, embed_dim).

        The local stages run once, on the batch's rows packed end to end, each
        cut to its own content span plus the stages' reach.  Row ``i``'s content
        ends at its last nonzero column (pad is ID 0, which no real token gets),
        after ``len_i`` columns.  In valid convolution and pooling every output
        that reads only zero padding has the same value, in every row, so the
        row's span is its first ``ceil(len_i / jump) * jump + rf`` columns, at
        most ``image_len``, where ``rf`` and ``jump`` are the receptive field
        and total stride of the stages' windows.  Its last output column then
        reads only padding and stands for every column cut from it.  Each row's
        segment of the packed (1, 1, N) input starts at a multiple of ``jump``,
        so at every stage its outputs are those of the row run alone.  Columns
        whose windows cross from one segment into the next are junk, and no
        valid output reads them.  After every stage but the last,
        ``_Packing.repack`` drops them (``ndnn.take_columns``): row ``i``'s
        valid columns move to the sum of the earlier rows' valid counts, each
        rounded up to the total stride of the windows still to run, so strided
        windows still line up and a later stage computes no junk of an earlier
        one.  Junk so lives only inside a stage, where training-mode batch
        norm weighs it 0, and each row's last column ``1 +`` its cut columns
        (``ndnn.batch_norm1d``), which gives the full-length batch statistics.

        After the last local stage ``ndnn.gather_segments`` builds a C-ordered
        (B, C, L) from each row's valid columns, repeating its last one: to the
        planned length for a map that flattens into ``proj`` as a view, and to
        the batch's longest valid length before gp's and rn's global max pool,
        which reduces contiguous rows and whose maximum and first-maximum argmax
        the repeats do not move.  Its backward sums the repeats' gradients into
        the last column.  Against a full-length run only rounding differs:
        BLAS may round a GEMM with other columns differently, and the
        statistics sum in another order.  An all-pad batch is the exception
        under batch statistics: every channel has zero batch variance, so both
        runs scale rounding noise by about ``1 / sqrt(eps)``.  The images are data: no gradient reaches ``x``.
        """
        if x.shape[1:] != (1, self.image_len) or not x.shape[0]:
            raise ndnn.ShapeError(f"code images must be (B, 1, {self.image_len}) with "
                                  f"B >= 1, got {x.shape}")
        if x.shape[0] < 2 and any(bn.gamma.requires_grad for _, bn in self._bn_layers):
            raise ndnn.ShapeError("batch normalization needs batch size >= 2 in training mode")
        h, packing = _Packing.pack(x.data, *self._reach)
        for name, stage in self.stages.items():
            h = stage.forward(h, packing)
            _check_finite(name, h)
            packing = packing.after(stage.windows)
            if name in self._strides_left:
                h, packing = packing.repack(h, self._strides_left[name])
        pooled = self.plan[-1]["block"] == "pool"
        h = ndnn.gather_segments(h, packing.starts, packing.counts,
                                 int(packing.counts.max()) if pooled else packing.planned)
        if pooled:
            h = ndnn.global_max_pool1d(h)
            _check_finite("pool", h)
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
    projection to d.  ``drawn`` and ``draw`` are as in ``CodeEncoder``; the
    generator is ``default_rng(config.seed + 101)``."""

    def __init__(self, config, vocab_size, draw=True):
        self.config = config
        rng = np.random.default_rng(config.seed + 101) if draw else None
        e = config.text_embed

        def rows(n):
            data = (np.zeros((n, e), dtype=np.float32) if rng is None
                    else rng.normal(0.0, 0.02, size=(n, e)).astype(np.float32))
            return Tensor(data, requires_grad=True)

        self.embed = rows(vocab_size)
        self.pos = rows(config.text_max_len)
        self.proj = ndnn.DenseLayer(e, config.embed_dim, rng, he=config.use_he_init)
        self.drawn = [self.embed, self.pos, self.proj.weight]
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

