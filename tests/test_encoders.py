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
            pool = conv if last_gp else out(conv, cfg.pool_window, cfg.pool_stride)
        if pool is None:
            return plan, i
        plan.append({"block": i, "conv": conv, "pool": pool})
        n = pool
    if cfg.family != "lp":
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
        for _ in range(60):
            cfg = small_cfg(
                blocks=int(rng.integers(3, 6)),
                channels=(),
                image_len=int(rng.integers(8, 128)),
                kernel=int(rng.integers(1, 9)),
                stride=int(rng.integers(1, 4)),
                pool_window=int(rng.integers(1, 5)),
                pool_stride=int(rng.integers(1, 4)),
                family=FAMILIES[int(rng.integers(0, 3))],
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
