"""Encoder construction, shape planning, config files, text masking."""
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from clcp import ndnn
from clcp.encoders import (
    ABLATIONS,
    FAMILIES,
    CodeEncoder,
    ConfigError,
    ModelConfig,
    TextEncoder,
    TextVocabulary,
    apply_ablation,
    config_for_family,
    record_from_json,
)
from clcp.training import CLCPModel


def small_cfg(**kw):
    base = dict(blocks=3, image_len=96, channels=(4, 8, 8), embed_dim=8,
                text_vocab=64, text_embed=8, text_max_len=6)
    base.update(kw)
    return ModelConfig(**base)


def _dry_run(cfg):
    """(plan, failing block key or None): each stage's conv and pool lengths,
    up to the first stage with a window longer than its input."""
    def out(n, k, s):
        return None if n is None or n < k else (n - k) // s + 1

    plan, n = [], cfg.image_len
    if cfg.family == "rn":
        n = out(n, cfg.kernel, cfg.stride)
        if n is None:
            return plan, "input"
        plan.append({"block": "input", "conv": n, "pool": n})
    for i in range(cfg.blocks):
        if cfg.family == "rn":   # conv1 strided, conv2 stride 1, no local pool
            conv = pool = out(out(n, cfg.kernel, cfg.stride), cfg.kernel, 1)
        else:   # gp's last block leaves pooling to the global pool after it
            conv = out(n, cfg.kernel, cfg.stride)
            last_gp = cfg.family == "gp" and i == cfg.blocks - 1
            local = cfg.use_pooling and not last_gp
            pool = out(conv, cfg.pool_window, cfg.pool_stride) if local else conv
        if pool is None:
            return plan, i
        plan.append({"block": i, "conv": conv, "pool": pool})
        n = pool
    if cfg.family != "lp" and cfg.use_pooling:
        plan.append({"block": "pool", "conv": n, "pool": 1})
    return plan, None


class TestShapePlan:
    def test_worked_example(self):
        cfg = ModelConfig(blocks=3, image_len=512, kernel=5, stride=1,
                          pool_window=2, pool_stride=2)
        plan = CodeEncoder(cfg).plan
        assert [(p["conv"], p["pool"]) for p in plan] == [
            (508, 254), (250, 125), (121, 60)]

    def test_global_pool_collapses_final_block(self):
        cfg = small_cfg(family="gp")
        plan = CodeEncoder(cfg).plan
        assert plan[-1]["pool"] == 1
        assert plan[-2]["pool"] > 1

    def test_bad_geometry_names_block(self):
        cfg = small_cfg(image_len=12, kernel=5, pool_window=4, pool_stride=4)
        with pytest.raises(ConfigError, match="block"):
            CodeEncoder(cfg).plan

    def test_construction_fails_iff_dry_run_fails(self):
        # the dry run recounts every window as (L - k) // s + 1 by hand
        rng = np.random.default_rng(0)
        for _ in range(100):
            cfg = small_cfg(
                blocks=int(rng.integers(3, 6)),
                channels=(),
                image_len=int(rng.integers(8, 128)),
                kernel=int(rng.integers(1, 9)),
                stride=int(rng.integers(1, 4)),
                pool_window=int(rng.integers(1, 5)),
                pool_stride=int(rng.integers(1, 4)),
                family=FAMILIES[int(rng.integers(0, 3))],
                use_pooling=bool(rng.integers(0, 2)),
            )
            plan, failing = _dry_run(cfg)
            if failing is not None:
                with pytest.raises(ConfigError, match=f"^block {failing}: "):
                    CodeEncoder(cfg)
                continue
            enc = CodeEncoder(cfg)
            assert enc.plan == plan
            x = ndnn.Tensor(np.ones((2, 1, cfg.image_len), dtype=np.float32))
            assert enc.forward(x).shape == (2, cfg.embed_dim)

    def test_residual_plan_matches_forward_shape(self):
        cfg = small_cfg(family="rn")
        enc = CodeEncoder(cfg)
        out = enc.forward(ndnn.Tensor(np.zeros((2, 1, cfg.image_len), dtype=np.float32)))
        assert out.shape == (2, cfg.embed_dim)


def _full_length(enc, x):
    """The encoder's layers over every column of ``x``, stage by stage: what
    its forward must match, up to rounding, however it packs the rows.  Each
    batch norm sees the whole batch at its planned length, with no weights."""
    h = x
    for stage in enc.stages.values():
        if hasattr(stage, "conv1"):   # a residual block
            series = stage.conv1.forward(h)
            if stage.bn1 is not None:
                series = stage.bn1.forward(series)
            series = stage.conv2.forward(ndnn.relu(series))
            h = series + ndnn.narrow(stage.shortcut.forward(h), 2, 0, series.shape[2])
            if stage.bn2 is not None:
                h = stage.bn2.forward(h)
            h = ndnn.relu(h)
        else:
            h = stage.conv.forward(h)
            if stage.bn is not None:
                h = stage.bn.forward(h)
            h = ndnn.relu(h)
            if stage.pool is not None:
                h = ndnn.max_pool1d(h, *stage.pool)
    if enc.plan[-1]["block"] == "pool":
        h = ndnn.global_max_pool1d(h)
    return enc.proj.forward(ndnn.reshape(h, (h.shape[0], -1)))


def _span_encoder(family, deltas, dtype=np.float32, **geometry):
    """A small encoder with random biases, so that padding maps to nonzero
    activations, its config, and a list that records each input of its first
    conv.
    ``deltas`` joins ablation tags, as ``config_id`` does ("+BN-Pool")."""
    cfg = small_cfg(family=family, **geometry)
    for tag in ABLATIONS:
        if tag in deltas:
            cfg = apply_ablation(cfg, tag)
    enc = CodeEncoder(cfg)
    rng = np.random.default_rng(3)
    for name, p in enc.named_params():
        p.data = p.data.astype(dtype)
        if name.endswith(("bias", "beta")):
            p.data[:] = rng.normal(0.0, 0.5, p.shape)
    first = next(iter(enc.stages.values())).conv
    inputs, forward = [], first.forward

    def recording_forward(x):
        inputs.append(x.data.copy())
        return forward(x)

    first.forward = recording_forward
    return enc, cfg, inputs


def _stage_windows_by_hand(cfg):
    """The local (kernel, stride) windows of each of ``cfg``'s stages, in order."""
    stages = [[(cfg.kernel, cfg.stride)]] if cfg.family == "rn" else []
    for i in range(cfg.blocks):
        if cfg.family == "rn":
            stages.append([(cfg.kernel, cfg.stride), (cfg.kernel, 1)])
            continue
        stages.append([(cfg.kernel, cfg.stride)])
        if cfg.use_pooling and not (cfg.family == "gp" and i == cfg.blocks - 1):
            stages[-1].append((cfg.pool_window, cfg.pool_stride))
    return stages


def _reach_by_hand(cfg):
    """(rf, jump) of every local window of ``cfg``'s encoder, in order."""
    rf, jump = 1, 1
    for kernel, stride in (w for windows in _stage_windows_by_hand(cfg) for w in windows):
        rf, jump = rf + (kernel - 1) * jump, jump * stride
    return rf, jump


def _span_widths(cfg, images):
    """Each row's span of ``images``: its content rounded up to whole strides,
    plus the reach, at most the image length."""
    rf, jump = _reach_by_hand(cfg)
    spans = []
    for row in images[:, 0]:
        nonzero = np.flatnonzero(row)
        length = nonzero[-1] + 1 if nonzero.size else 0
        spans.append(min(-(-length // jump) * jump + rf, cfg.image_len))
    return spans


def _assert_rows_packed(cfg, images, packed):
    """``packed`` (1, 1, N) lays the rows of ``images`` end to end, each cut to
    its own span: its content rounded up to whole strides, plus the reach."""
    jump = _reach_by_hand(cfg)[1]
    want = np.zeros(0)
    for row, span in zip(images[:, 0], _span_widths(cfg, images)):
        gap = -(-len(want) // jump) * jump - len(want)   # segments start at multiples of jump
        want = np.concatenate([want, np.zeros(gap), row[:span]])
    np.testing.assert_array_equal(packed, want[None, None])


def _content_batch(t, image_len, dtype=np.float32):
    """Two images: content in the first ``t`` columns of one and the first
    ``t // 3`` of the other, then zero padding."""
    rng = np.random.default_rng(t)
    x = np.zeros((2, 1, image_len), dtype=dtype)
    x[0, 0, :t] = rng.uniform(0.05, 1.0, t)
    x[1, 0, :t // 3] = rng.uniform(0.05, 1.0, t // 3)
    return ndnn.Tensor(x)


def _rows_batch(lengths, image_len):
    """Float64 images with content in each row's first ``lengths[i]`` columns."""
    rng = np.random.default_rng(len(lengths))
    x = np.zeros((len(lengths), 1, image_len))
    for row, length in zip(x, lengths):
        row[0, :length] = rng.uniform(0.05, 1.0, length)
    return x


# stride and pooling variants that build at small_cfg's image_len of 96; rn has
# no local pool, so only the stride varies it
GEOMETRIES = {"k5s1p2s2": {},
              "k2s2p1s1": dict(kernel=2, stride=2, pool_window=1, pool_stride=1),
              "p3s2": dict(pool_window=3, pool_stride=2),
              "p2s3": dict(pool_window=2, pool_stride=3),
              "p3s1": dict(pool_window=3, pool_stride=1)}
SPAN_DELTAS = ("none", "-Pool", "-Init", "+BN", "+BN-Pool")
SPAN_CASES = [(family, delta, geometry) for family in FAMILIES
              for delta in SPAN_DELTAS for geometry in GEOMETRIES
              if family != "rn" or geometry in ("k5s1p2s2", "k2s2p1s1")]
# content lengths per row: an all-pad row, a row that fills all 96 columns, and
# lengths that are not multiples of lp's total stride of 8, in mixed order
MIXED_ROWS = {"mixed": (13, 0, 96, 3, 45, 29, 0, 60, 1, 91),
              "one row": (29,), "one full row": (96,)}


def _least_content(delta):
    # An all-pad batch gives every channel zero batch variance, so under batch
    # statistics both runs scale rounding noise by about 1 / sqrt(eps): their
    # outputs then differ by up to 5.2e-3 in float64 (rn), and neither means anything
    return 1 if "+BN" in delta else 0


def _outputs_and_grads(enc, forward, x):
    """``forward(x)`` and the gradient of a fixed weighting of it per parameter."""
    weights = ndnn.Tensor(np.random.default_rng(4).normal(size=(len(x), 8)))
    for _, p in enc.named_params():
        p.grad = None
    out = forward(ndnn.Tensor(x))
    ndnn.tsum(out * weights).backward()
    return out.data, [p.grad for _, p in enc.named_params()]


def _rows_alone(enc, x):
    """Each row of ``x`` run alone at full length, its outputs stacked and the
    parameters' gradients summed, as ``_outputs_and_grads`` returns them."""
    weights = np.random.default_rng(4).normal(size=(len(x), 8))
    outs, grads = [], None
    for row, row_weights in zip(x, weights):
        for _, p in enc.named_params():
            p.grad = None
        out = _full_length(enc, ndnn.Tensor(row[None]))
        ndnn.tsum(out * ndnn.Tensor(row_weights[None])).backward()
        outs.append(out.data[0])
        row_grads = [p.grad for _, p in enc.named_params()]
        grads = row_grads if grads is None else [a + b for a, b in zip(grads, row_grads)]
    return np.stack(outs), grads


def _assert_grads_close(enc, got, want, delta, what):
    # Under +BN a conv bias that feeds batch norm has an exact gradient of 0
    # and batch statistics amplify rounding, so there the bound is a share of
    # the largest gradient, 1e-9 of it; elsewhere only summation order separates
    # two float64 runs
    largest = max(np.abs(w).max() for w in want)
    atol = 1e-9 * largest if "+BN" in delta else 1e-12
    for (name, _), g, w in zip(enc.named_params(), got, want):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=atol, err_msg=f"{name} {what}")


class TestContentSpan:
    """The forward packs the rows end to end, each cut to its own content span
    plus the stages' reach."""

    @pytest.mark.parametrize("family,delta,geometry", SPAN_CASES)
    def test_every_content_length_matches_full_length(self, family, delta, geometry):
        # without batch norm, float32 as in training: BLAS may round a GEMM with
        # other columns differently, by at most 3.6e-7 at these shapes (|out| <=
        # 7.4).  Batch statistics divide by a batch's spread, which turns that
        # into noise of no fixed size, so +BN runs in float64, where only the
        # summation order separates the two runs (by at most 2.6e-11)
        dtype, atol = (np.float64, 1e-10) if "+BN" in delta else (np.float32, 1e-6)
        enc, cfg, inputs = _span_encoder(family, delta, dtype, **GEOMETRIES[geometry])
        for t in range(_least_content(delta), enc.image_len + 1):
            x = _content_batch(t, enc.image_len, dtype)
            inputs.clear()
            np.testing.assert_allclose(enc.forward(x).data, _full_length(enc, x).data,
                                       rtol=0, atol=atol, err_msg=f"content length {t}")
            _assert_rows_packed(cfg, x.data, inputs[0])

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("delta", SPAN_DELTAS)
    def test_gradients_match_full_length(self, family, delta):
        # float64, so that only summation order separates the two runs (at
        # most 3.8e-10 of the largest gradient was seen, on rn +BN-Pool)
        enc, _, _ = _span_encoder(family, delta, dtype=np.float64)
        for t in (0, 1, 17, 60, enc.image_len)[_least_content(delta):]:
            x = _content_batch(t, enc.image_len, np.float64).data
            (_, got), (_, want) = (_outputs_and_grads(enc, forward, x)
                                   for forward in (enc.forward, lambda x: _full_length(enc, x)))
            _assert_grads_close(enc, got, want, delta, f"at content length {t}")

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("delta", SPAN_DELTAS)
    @pytest.mark.parametrize("rows", MIXED_ROWS)
    def test_mixed_lengths_match_rows_run_alone(self, family, delta, rows):
        # float64.  Without batch statistics a row's outputs are its own, so
        # the reference runs each row alone at full length; batch norm with
        # batch statistics couples the rows, so under +BN the reference is the
        # whole batch at full length, and a batch of one cannot train
        enc, cfg, inputs = _span_encoder(family, delta, dtype=np.float64)
        x = _rows_batch(MIXED_ROWS[rows], enc.image_len)
        if "+BN" not in delta:
            want = _rows_alone(enc, x)
        elif len(x) > 1:
            want = _outputs_and_grads(enc, lambda x: _full_length(enc, x), x)
        else:
            with pytest.raises(ndnn.ShapeError, match="batch size >= 2 in training mode"):
                enc.forward(ndnn.Tensor(x))
            return
        inputs.clear()
        out, grads = _outputs_and_grads(enc, enc.forward, x)
        _assert_rows_packed(cfg, x, inputs[0])
        np.testing.assert_allclose(out, want[0], rtol=0, atol=1e-10)
        _assert_grads_close(enc, grads, want[1], delta, f"on rows {MIXED_ROWS[rows]}")

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("rows", MIXED_ROWS)
    def test_eval_batch_norm_matches_rows_run_alone(self, family, rows):
        # with the running statistics every position is normalized alone
        enc, cfg, inputs = _span_encoder(family, "+BN", np.float64)
        x = _rows_batch(MIXED_ROWS[rows], enc.image_len)
        enc.forward(ndnn.Tensor(_rows_batch((60, 20, 5), enc.image_len)))  # move the stats
        for _, p in enc.named_params():
            p.requires_grad = False
        inputs.clear()
        got = enc.forward(ndnn.Tensor(x)).data
        _assert_rows_packed(cfg, x, inputs[0])
        want = [_full_length(enc, ndnn.Tensor(row[None])).data[0] for row in x]
        np.testing.assert_allclose(got, np.stack(want), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_training_batch_norm_reads_the_content_span(self, family):
        # batch statistics in training mode, the running ones in eval mode
        enc, cfg, inputs = _span_encoder(family, "+BN", np.float64)
        x = _content_batch(10, enc.image_len, np.float64)
        for training in (True, False):
            for _, p in enc.named_params():
                p.requires_grad = training
            inputs.clear()
            np.testing.assert_allclose(enc.forward(x).data, _full_length(enc, x).data,
                                       rtol=0, atol=1e-10)
            _assert_rows_packed(cfg, x.data, inputs[0])

    @pytest.mark.parametrize("family,delta,geometry", SPAN_CASES)
    def test_each_stage_reads_only_valid_columns(self, family, delta, geometry):
        # a stage's input holds each row's valid columns, each row rounded up
        # to the stride of the windows still to run and the last row not: no
        # column whose window crossed into the next row reaches the next stage
        enc, cfg, _ = _span_encoder(family, delta, np.float64, **GEOMETRIES[geometry])
        widths = []
        for stage in enc.stages.values():
            first = stage.conv1 if hasattr(stage, "conv1") else stage.conv
            first.forward = lambda h, forward=first.forward: (
                widths.append(h.shape[2]), forward(h))[1]
        x = _rows_batch(MIXED_ROWS["mixed"], enc.image_len)
        enc.forward(ndnn.Tensor(x))
        counts, want = _span_widths(cfg, x), []
        stages = _stage_windows_by_hand(cfg)
        for i, windows in enumerate(stages):
            left = int(np.prod([s for ws in stages[i:] for _, s in ws]))
            want.append(sum(-(-c // left) * left for c in counts[:-1]) + counts[-1])
            for kernel, stride in windows:
                counts = [(c - kernel) // stride + 1 for c in counts]
        assert widths == want

    @pytest.mark.parametrize("length", [95, 97])
    def test_images_of_another_length_are_rejected(self, length):
        enc = CodeEncoder(small_cfg())
        with pytest.raises(ndnn.ShapeError, match=rf"^code images must be \(B, 1, 96\)"):
            enc.forward(ndnn.Tensor(np.zeros((2, 1, length), dtype=np.float32)))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_empty_batch_is_rejected(self, family):
        enc = CodeEncoder(small_cfg(family=family))
        with pytest.raises(ndnn.ShapeError, match=re.escape(
                "code images must be (B, 1, 96) with B >= 1, got (0, 1, 96)")):
            enc.forward(ndnn.Tensor(np.zeros((0, 1, 96), dtype=np.float32)))


class TestConfig:
    def test_file_round_trip(self, tmp_path):
        # non-default channels and float defaults (temperature_init = 1/0.07)
        cfg = small_cfg(family="rn", use_bn=True, lr=0.01, channels=(4, 4, 4))
        path = tmp_path / "config.json"
        cfg.save(path)
        again = ModelConfig.load(path)
        assert again == cfg
        for f in fields(ModelConfig):
            assert type(getattr(again, f.name)) is type(getattr(cfg, f.name))

    def test_every_field_addressable(self, tmp_path):
        cfg = ModelConfig()
        cfg.save(tmp_path / "config.json")
        doc = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
        assert list(doc) == [f.name for f in fields(ModelConfig)]
        # every field can be set alone; the others keep their defaults
        one = record_from_json(ModelConfig, '{"lr": 1}')
        assert one == ModelConfig(lr=1.0) and type(one.lr) is float
        assert record_from_json(ModelConfig, "{}") == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="^mystery: unknown field"):
            record_from_json(ModelConfig, '{"mystery": 1}')
        # fields replaced by family, or removed with the code they selected
        for key, value in (("arch", "residual"), ("pooling", "global"), ("pool_mode", "avg"),
                           ("optimizer", "sgd"), ("text_layers", 0), ("text_heads", 4),
                           ("text_ff", 128)):
            with pytest.raises(ConfigError, match=f"^{key}: unknown field"):
                record_from_json(ModelConfig, json.dumps({key: value}))

    def test_unparsable_value_names_field(self):
        # a value must have its field's type: no bool for an int, no number for
        # a bool, a list of ints for a tuple
        for field_name, value in (("blocks", "three"), ("lr", "fast"), ("channels", [4, "x", 4]),
                                  ("blocks", True), ("blocks", 3.0), ("use_bn", 1),
                                  ("channels", "4,4,4"), ("channels", [4, True, 4]),
                                  ("family", None), ("seed", None)):
            with pytest.raises(ConfigError, match=f"^{field_name}: expected "):
                record_from_json(ModelConfig, json.dumps({field_name: value}))

    @pytest.mark.parametrize("text", ["{oops", "[1]", '"lp"', "3", "null"])
    def test_not_a_json_object_rejected(self, text):
        with pytest.raises(ConfigError, match="JSON"):
            record_from_json(ModelConfig, text)

    def test_blocks_ladder_bounds(self):
        with pytest.raises(ConfigError, match="blocks"):
            ModelConfig(blocks=2)
        with pytest.raises(ConfigError, match="blocks"):
            ModelConfig(blocks=8)

    def test_text_vocab_and_batch_size_bounds(self):
        with pytest.raises(ConfigError, match="text_vocab"):
            ModelConfig(text_vocab=1)
        with pytest.raises(ConfigError, match="batch_size"):
            ModelConfig(batch_size=0)
        ModelConfig(text_vocab=2, batch_size=1)

    def test_channels_and_text_sizes_bounds(self):
        for bad in ((8, 8), (0, 8, 8), (8, -1, 8)):
            with pytest.raises(ConfigError, match="^channels: "):
                ModelConfig(channels=bad)
        with pytest.raises(ConfigError, match="^text_embed: "):
            ModelConfig(text_embed=0)
        with pytest.raises(ConfigError, match="^text_max_len: "):
            ModelConfig(text_max_len=0)
        ModelConfig(channels=(1, 1, 1), text_embed=1, text_max_len=1)

    def test_val_fraction_and_pool_bounds(self):
        for bad in (-0.1, 1.0, float("nan")):
            with pytest.raises(ConfigError, match="val_fraction"):
                ModelConfig(val_fraction=bad)
        with pytest.raises(ConfigError, match="pool_window"):
            ModelConfig(pool_window=0)
        with pytest.raises(ConfigError, match="pool_stride"):
            ModelConfig(pool_stride=0)
        ModelConfig(val_fraction=0.0, pool_window=1, pool_stride=1)

    def test_logit_scale_bounds(self):
        # a scale of 0 zeroes every gradient, a negative one aborts training
        for field_name in ("temperature_init", "temperature_max", "lr"):
            for bad in (0.0, -1.0):
                with pytest.raises(ConfigError, match=f"^{field_name}: must be > 0"):
                    ModelConfig(**{field_name: bad})
        ModelConfig(temperature_init=1e-3, temperature_max=1e-3, lr=1e-9)

    def test_epoch_and_seed_bounds(self):
        # no epoch returns an untrained model; numpy rejects a negative seed, and
        # encode_streams an empty image, far away
        with pytest.raises(ConfigError, match="^max_epochs: must be >= 1, got 0$"):
            ModelConfig(max_epochs=0)
        with pytest.raises(ConfigError, match="^seed: must be >= 0, got -1$"):
            ModelConfig(seed=-1)
        for bad in (0, -5):
            with pytest.raises(ConfigError, match=f"^image_len: must be >= 1, got {bad}$"):
                ModelConfig(image_len=bad)
        ModelConfig(max_epochs=1, seed=0, image_len=1)

    @pytest.mark.parametrize("build,message", [
        (lambda: ModelConfig(family="xx"), "family: must be one of lp, gp, rn, got 'xx'"),
        (lambda: apply_ablation(ModelConfig(), "+Dropout"), "delta: unknown ablation '+Dropout'"),
    ], ids=["family", "ablation"])
    def test_unknown_family_or_ablation_is_named(self, build, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("field_name", ["temperature_init", "temperature_max", "lr",
                                            "val_fraction"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_floats_are_rejected(self, field_name, bad):
        # Python's json loads these, and NaN slips past every range check
        with pytest.raises(ConfigError, match=f"^{field_name}: must be finite, got "):
            record_from_json(ModelConfig, f'{{"{field_name}": {bad}}}')
        with pytest.raises(ConfigError, match=f"^{field_name}: must be finite"):
            ModelConfig(**{field_name: float(bad)})

    def test_default_channel_plan_doubles_capped(self):
        cfg = ModelConfig(blocks=5)
        assert cfg.channel_plan() == (16, 32, 64, 128, 128)

    def test_family_ids(self):
        assert config_for_family("lp", 3).config_id() == "lp3"
        assert config_for_family("gp", 4).config_id() == "gp4"
        assert config_for_family("rn", 5).config_id() == "rn5"
        cfg = apply_ablation(config_for_family("lp", 3), "-Pool")
        assert cfg.config_id() == "lp3-Pool"
        ids = {(family, delta): apply_ablation(config_for_family(family, 3), delta).config_id()
               for family in FAMILIES for delta in ("none", *ABLATIONS)}
        assert len(ids) == len(set(ids.values())) == 12
        for (family, delta), config_id in ids.items():
            assert config_id == f"{family}3" + ("" if delta == "none" else delta)


class TestAblationFlags:
    def test_all_combinations_constructible(self):
        for family in FAMILIES:
            for use_bn in (False, True):
                for use_pooling in (False, True):
                    for use_he in (False, True):
                        cfg = small_cfg(family=family, use_bn=use_bn,
                                        use_pooling=use_pooling, use_he_init=use_he)
                        enc = CodeEncoder(cfg)
                        x = ndnn.Tensor(np.random.default_rng(0)
                                        .random((2, 1, cfg.image_len), dtype=np.float32))
                        assert enc.forward(x).shape == (2, cfg.embed_dim)

    def test_bn_layers_present_only_with_flag(self):
        assert CodeEncoder(small_cfg(use_bn=True))._bn_layers
        assert not CodeEncoder(small_cfg(use_bn=False))._bn_layers

    @pytest.mark.parametrize("family", FAMILIES)
    def test_conv_biases_before_batch_norm_get_no_gradient(self, family):
        # batch statistics subtract each channel's mean, so a conv bias that
        # feeds batch norm shifts nothing after it: its exact gradient is 0.
        # In float32 it gets rounding noise instead, which Adam scales to steps
        # of up to lr, so the biases drift while the losses barely move
        enc, _, _ = _span_encoder(family, "+BN", np.float64)
        weights = ndnn.Tensor(np.random.default_rng(4).normal(size=(2, 8)))
        ndnn.tsum(enc.forward(_content_batch(60, enc.image_len, np.float64))
                  * weights).backward()
        params = dict(enc.named_params())
        # every block conv feeds a batch norm; rn's input conv and proj feed none
        biases = [name for name in params
                  if name.endswith(".bias") and name not in ("input.bias", "proj.bias")]
        assert len(biases) == (9 if family == "rn" else 3)
        for name in biases:
            weight = params[name.removesuffix("bias") + "weight"]
            assert np.abs(params[name].grad).max() < 1e-9 * np.abs(weight.grad).max(), name


class TestResidualBlocks:
    def test_zero_series_passes_shortcut(self):
        cfg = small_cfg(family="rn", channels=(4, 4, 4), use_he_init=True)
        enc = CodeEncoder(cfg)
        rng = np.random.default_rng(1)
        x = ndnn.Tensor(rng.random((1, 1, cfg.image_len), dtype=np.float32))
        stage = enc.stages["block0"]
        conv1, conv2, shortcut = stage.conv1, stage.conv2, stage.shortcut
        conv1.weight.data[:] = 0
        conv1.bias.data[:] = 0
        conv2.weight.data[:] = 0
        conv2.bias.data[:] = 0
        h = ndnn.relu(enc.stages["input"].conv.forward(x))
        series = conv2.forward(ndnn.relu(conv1.forward(h)))
        skip = shortcut.forward(h)
        merged = series + ndnn.narrow(skip, 2, 0, series.shape[2])
        np.testing.assert_allclose(merged.data,
                                   ndnn.narrow(skip, 2, 0, series.shape[2]).data)


class TestTextSide:
    def test_vocab_build_and_oov(self):
        vocab = TextVocabulary.build(["return the maximum", "return the minimum"],
                                     max_size=16)
        (ids,), _ = vocab.encode_batch(["return the unseen"], max_len=4)
        assert ids[0] > 1 and ids[1] > 1 and ids[2] == 1 and ids[3] == 0

    def test_truncation_flag(self):
        vocab = TextVocabulary.build(["a b c d e"], max_size=16)
        _, truncated = vocab.encode_batch(["a b c d e", "a b c", ""], max_len=3)
        assert truncated == 1

    def test_vocab_file_round_trip(self, tmp_path):
        vocab = TextVocabulary.build(["alpha beta beta gamma"], max_size=16)
        path = tmp_path / "tv.tsv"
        vocab.save(path)
        assert TextVocabulary.load(path).word_to_id == vocab.word_to_id

    @pytest.mark.parametrize("words", [{"x": 2}, [2, 3], "xy", ["x", "x", "y"]],
                             ids=["object", "ints", "string", "repeated"])
    def test_vocab_file_must_list_distinct_words(self, tmp_path, words):
        # a repeated word would shift every later ID off its embedding row
        path = tmp_path / "textvocab.json"
        path.write_text(json.dumps(words), encoding="utf-8")
        with pytest.raises(ValueError, match="not a JSON list of distinct words"):
            TextVocabulary.load(path)

    @pytest.mark.parametrize("shape", [(1, 5), (2, 7), (6,)])
    def test_ids_of_the_wrong_length_are_named(self, shape):
        enc = TextEncoder(small_cfg(), vocab_size=32)
        with pytest.raises(ndnn.ShapeError,
                           match=f"^{re.escape(f'text ids must be (B, 6), got {shape}')}$"):
            enc.forward(np.full(shape, 2))

    def test_degenerate_zero_layer_runs(self):
        cfg = small_cfg()
        enc = TextEncoder(cfg, vocab_size=32)
        ids = np.array([[2, 3, 0, 0, 0, 0]])
        out = enc.forward(ids)
        assert out.shape == (1, cfg.embed_dim)

    def test_pad_positions_cannot_leak(self):
        # perturbing what the model sees at pad slots (their position rows and
        # the pad embedding row) must be invisible through masked mean pooling
        cfg = small_cfg()
        enc = TextEncoder(cfg, vocab_size=32)
        ids = np.array([[2, 3, 4, 0, 0, 0], [5, 6, 0, 0, 0, 0]])
        base = enc.forward(ids).data.copy()
        enc.pos.data[2:, :] += 100.0          # rows 2.. are pads in row 1
        enc.embed.data[0, :] += 50.0   # the pad token's embedding
        out = enc.forward(ids).data
        np.testing.assert_allclose(out[1], base[1], atol=1e-5)

    def test_batch_composition_independence(self):
        cfg = small_cfg()
        enc = TextEncoder(cfg, vocab_size=32)
        a = np.array([[2, 3, 4, 0, 0, 0]])
        b = np.array([[5, 6, 7, 8, 0, 0]])
        both = enc.forward(np.vstack([a, b])).data
        alone = enc.forward(a).data
        np.testing.assert_allclose(both[0], alone[0], atol=1e-6)


class TestEmbed:
    def test_unit_norm_and_determinism(self):
        cfg = small_cfg()
        model = CLCPModel(cfg, text_vocab_size=32)
        rng = np.random.default_rng(2)
        batch = rng.random((5, 1, cfg.image_len), dtype=np.float32)
        e1 = model.encode_code(batch)
        e2 = model.encode_code(batch)
        np.testing.assert_allclose(np.linalg.norm(e1.data, axis=1), 1.0, atol=1e-5)
        np.testing.assert_array_equal(e1.data, e2.data)
        assert e1.shape == (5, cfg.embed_dim)

    def test_nan_activation_reported_with_layer(self):
        cfg = small_cfg()
        model = CLCPModel(cfg, text_vocab_size=32)
        model.code_encoder.stages["block1"].conv.weight.data[:] = np.nan
        with pytest.raises(ndnn.NumericError, match="block1"):
            model.encode_code(np.ones((1, 1, cfg.image_len), dtype=np.float32))

    def test_nan_through_local_pool_reported_with_block(self):
        # kernel 1 keeps an input NaN at one conv output, the second of its
        # pool window, so the pool alone decides whether block0 sees it
        cfg = small_cfg(kernel=1)
        image = np.ones((1, 1, cfg.image_len), dtype=np.float32)
        image[0, 0, 1] = np.nan
        with pytest.raises(ndnn.NumericError, match="block0"):
            CLCPModel(cfg, text_vocab_size=32).encode_code(image)
