"""Encoder construction, shape planning, config files, text masking."""
import numpy as np
import pytest

from clcp import ndnn
from clcp.encoders import (
    CodeEncoder,
    ConfigError,
    ModelConfig,
    TextEncoder,
    TextVocabulary,
    apply_ablation,
    config_for_family,
    embed,
    shape_plan,
)


def small_cfg(**kw):
    base = dict(blocks=3, image_len=96, channels=(4, 8, 8), embed_dim=8,
                text_vocab=64, text_embed=8, text_heads=2, text_ff=16,
                text_max_len=6)
    base.update(kw)
    return ModelConfig(**base).validate()


class TestShapePlan:
    def test_worked_example(self):
        cfg = ModelConfig(blocks=3, image_len=512, kernel=5, stride=1,
                          pool_window=2, pool_stride=2).validate()
        plan = shape_plan(cfg)
        assert [(p["conv"], p["pool"]) for p in plan] == [
            (508, 254), (250, 125), (121, 60)]

    def test_global_pool_collapses_final_block(self):
        cfg = small_cfg(pooling="global")
        plan = shape_plan(cfg)
        assert plan[-1]["pool"] == 1
        assert plan[-2]["pool"] > 1

    def test_bad_geometry_names_block(self):
        cfg = small_cfg(image_len=12, kernel=5, pool_window=4, pool_stride=4)
        with pytest.raises(ConfigError, match="block"):
            shape_plan(cfg)

    def test_construction_fails_iff_dry_run_fails(self):
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
                arch=("block", "residual")[int(rng.integers(0, 2))],
            )
            try:
                shape_plan(cfg)
                plan_ok = True
            except ConfigError:
                plan_ok = False
            try:
                CodeEncoder(cfg)
                built = True
            except ConfigError:
                built = False
            assert plan_ok == built

    def test_residual_plan_matches_forward_shape(self):
        cfg = small_cfg(arch="residual")
        enc = CodeEncoder(cfg)
        out = enc.forward(ndnn.Tensor(np.zeros((2, 1, cfg.image_len), dtype=np.float32)))
        assert out.shape == (2, cfg.embed_dim)


class TestConfig:
    def test_file_round_trip(self, tmp_path):
        cfg = small_cfg(arch="residual", use_bn=True, lr=0.01, channels=(4, 4, 4))
        path = tmp_path / "m.cfg"
        cfg.save(path)
        again = ModelConfig.load(path)
        assert again == cfg

    def test_every_field_addressable(self):
        from dataclasses import fields
        cfg = ModelConfig()
        text = cfg.to_text()
        for f in fields(ModelConfig):
            assert f"{f.name}=" in text

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            ModelConfig.from_text("mystery=1\n")

    def test_blocks_ladder_bounds(self):
        with pytest.raises(ConfigError, match="blocks"):
            ModelConfig(blocks=2).validate()
        with pytest.raises(ConfigError, match="blocks"):
            ModelConfig(blocks=8).validate()

    def test_text_vocab_and_batch_size_bounds(self):
        with pytest.raises(ConfigError, match="text_vocab"):
            ModelConfig(text_vocab=1).validate()
        with pytest.raises(ConfigError, match="batch_size"):
            ModelConfig(batch_size=0).validate()
        ModelConfig(text_vocab=2, batch_size=1).validate()

    def test_default_channel_plan_doubles_capped(self):
        cfg = ModelConfig(blocks=5).validate()
        assert cfg.channel_plan() == (16, 32, 64, 128, 128)

    def test_family_ids(self):
        assert config_for_family("lp", 3).config_id() == "lp3"
        assert config_for_family("gp", 4).config_id() == "gp4"
        assert config_for_family("rn", 5).config_id() == "rn5"
        cfg = apply_ablation(config_for_family("lp", 3), "-Pool")
        assert cfg.config_id() == "lp3-Pool"


class TestAblationFlags:
    def test_all_combinations_constructible(self):
        for arch in ("block", "residual"):
            for use_bn in (False, True):
                for use_pooling in (False, True):
                    for use_he in (False, True):
                        cfg = small_cfg(arch=arch, use_bn=use_bn,
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
        cfg = small_cfg(arch="residual", channels=(4, 4, 4), use_he_init=True)
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
        ids, _ = vocab.encode("return the unseen", max_len=4)
        assert ids[0] > 1 and ids[1] > 1 and ids[2] == 1 and ids[3] == 0

    def test_truncation_flag(self):
        vocab = TextVocabulary.build(["a b c d e"], max_size=16)
        _, truncated = vocab.encode("a b c d e", max_len=3)
        assert truncated

    def test_vocab_file_round_trip(self, tmp_path):
        vocab = TextVocabulary.build(["alpha beta beta gamma"], max_size=16)
        path = tmp_path / "tv.tsv"
        vocab.save(path)
        assert TextVocabulary.load(path).word_to_id == vocab.word_to_id

    def test_degenerate_zero_layer_runs(self):
        cfg = small_cfg(text_layers=0)
        enc = TextEncoder(cfg, vocab_size=32)
        ids = np.array([[2, 3, 0, 0, 0, 0]])
        out = enc.forward(ids)
        assert out.shape == (1, cfg.embed_dim)

    def test_pad_positions_cannot_leak(self):
        # perturbing what the model sees at pad slots (their position rows and
        # the pad embedding row) must be invisible through masked attention
        # and masked mean pooling
        cfg = small_cfg(text_layers=2)
        enc = TextEncoder(cfg, vocab_size=32)
        ids = np.array([[2, 3, 4, 0, 0, 0], [5, 6, 0, 0, 0, 0]])
        base = enc.forward(ids).data.copy()
        enc.pos.data[2:, :] += 100.0          # rows 2.. are pads in row 1
        enc.embed.weight.data[0, :] += 50.0   # the pad token's embedding
        out = enc.forward(ids).data
        np.testing.assert_allclose(out[1], base[1], atol=1e-5)

    def test_batch_composition_independence(self):
        cfg = small_cfg(text_layers=1)
        enc = TextEncoder(cfg, vocab_size=32)
        a = np.array([[2, 3, 4, 0, 0, 0]])
        b = np.array([[5, 6, 7, 8, 0, 0]])
        both = enc.forward(np.vstack([a, b])).data
        alone = enc.forward(a).data
        np.testing.assert_allclose(both[0], alone[0], atol=1e-6)


class TestEmbed:
    def test_unit_norm_and_determinism(self):
        cfg = small_cfg()
        enc = CodeEncoder(cfg)
        rng = np.random.default_rng(2)
        batch = rng.random((5, 1, cfg.image_len), dtype=np.float32)
        e1 = embed(enc, batch)
        e2 = embed(enc, batch)
        np.testing.assert_allclose(np.linalg.norm(e1.data, axis=1), 1.0, atol=1e-5)
        np.testing.assert_array_equal(e1.data, e2.data)
        assert e1.shape == (5, cfg.embed_dim)

    def test_nan_activation_reported_with_layer(self):
        cfg = small_cfg()
        enc = CodeEncoder(cfg)
        enc.stages["block1"].conv.weight.data[:] = np.nan
        with pytest.raises(ndnn.NumericError, match="block1"):
            embed(enc, np.ones((1, 1, cfg.image_len), dtype=np.float32))
