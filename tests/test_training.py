"""Contrastive loss properties and the training loop."""
import dataclasses
import gc
import weakref

import numpy as np
import pytest

from clcp import himg, ndnn, pylex, training
from clcp.encoders import config_for_family
from clcp.ndnn import Tensor
from clcp.synth import generate_pairs
from clcp.training import (
    CLCPModel,
    TrainingAborted,
    clip_loss,
    load_run,
    prepare_pairs,
    similarity_matrix,
    train,
)
from fdcheck import check_op


def loss_of(matrix):
    return float(clip_loss(Tensor(np.asarray(matrix, dtype=np.float64))).data)


def tiny_cfg(**kw):
    base = dict(image_len=96, channels=(8, 8, 8), embed_dim=16, text_vocab=256,
                text_embed=16, text_max_len=12, max_epochs=6, patience=6,
                val_fraction=0.0, batch_size=16, seed=0)
    base.update(kw)
    return config_for_family("lp", 3, **base)


class TestClipLoss:
    def test_single_pair_is_zero(self):
        assert loss_of([[3.7]]) == pytest.approx(0.0, abs=1e-12)

    def test_all_equal_two_by_two_is_ln2(self):
        assert loss_of([[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(np.log(2), abs=1e-9)

    def test_perfect_separation_limit(self):
        a = 60.0
        assert loss_of([[a, -a], [-a, a]]) < 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ndnn.ShapeError):
            clip_loss(Tensor(np.zeros((2, 3))))

    def test_transpose_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.normal(size=(5, 5))
            assert loss_of(m) == pytest.approx(loss_of(m.T), rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 6))
        for _ in range(10):
            p = rng.permutation(6)
            assert loss_of(m[np.ix_(p, p)]) == pytest.approx(loss_of(m), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert loss_of(rng.normal(size=(4, 4))) >= 0.0

    def test_gradient_direction_on_uniform_matrix(self):
        sim = Tensor(np.zeros((4, 4)), requires_grad=True)
        clip_loss(sim).backward()
        g = sim.grad
        assert (np.diag(g) < 0).all()
        off = g[~np.eye(4, dtype=bool)]
        assert (off > 0).all()

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        arrs = [rng.normal(size=(5, 5))]

        def build(arrays):
            sim = Tensor(arrays[0], requires_grad=True)
            return clip_loss(sim), [sim]

        assert check_op(build, arrs) < 1e-6

    def test_similarity_matrix_scale(self):
        c = Tensor(np.eye(3))
        t = Tensor(np.eye(3))
        scale = Tensor(np.array([10.0]))
        sim = similarity_matrix(c, t, scale)
        np.testing.assert_allclose(sim.data, 10.0 * np.eye(3))


class TestTrainLoop:
    def test_loss_decreases_on_synthetic_pairs(self):
        pairs = generate_pairs(64, seed=5)
        out = train(pairs, tiny_cfg())
        losses = [m["train_loss"] for m in out.metrics]
        assert losses[-1] < losses[0] * 0.9

    def test_determinism_same_seed_same_curve(self):
        pairs = generate_pairs(48, seed=6)
        cfg = tiny_cfg(max_epochs=3, patience=3)
        m1 = train(pairs, cfg).metrics
        m2 = train(pairs, cfg).metrics
        assert [m["train_loss"] for m in m1] == [m["train_loss"] for m in m2]
        assert [m["val_loss"] for m in m1] == [m["val_loss"] for m in m2]

    def test_batch_size_one_warns(self):
        pairs = generate_pairs(8, seed=7)
        with pytest.warns(UserWarning, match="batch size 1"):
            train(pairs, tiny_cfg(batch_size=1, max_epochs=1, patience=1))

    def test_early_stop_on_stale_validation(self):
        pairs = generate_pairs(40, seed=8)
        cfg = tiny_cfg(max_epochs=30, patience=2, val_fraction=0.2, lr=0.0)
        out = train(pairs, cfg)
        assert len(out.metrics) <= 4  # lr 0 cannot improve: 1 best + 2 stale

    def test_nan_loss_aborts_and_keeps_checkpoint(self, tmp_path):
        pairs = generate_pairs(32, seed=9)
        # a non-finite logit scale poisons the first loss deterministically
        cfg = tiny_cfg(max_epochs=8, patience=8, temperature_init=float("nan"))
        with pytest.raises(TrainingAborted) as err:
            train(pairs, cfg, out_dir=tmp_path)
        assert err.value.result.state.aborted
        assert (tmp_path / "checkpoint.ndnc").exists()

    def test_run_directory_round_trip(self, tmp_path):
        pairs = generate_pairs(32, seed=10)
        cfg = tiny_cfg(max_epochs=2, patience=2)
        out = train(pairs, cfg, out_dir=tmp_path)
        again = load_run(tmp_path)
        for (n1, p1), (n2, p2) in zip(out.model.named_params(),
                                      again.model.named_params()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        assert again.state.best_epoch == out.state.best_epoch
        assert len(again.metrics) == len(out.metrics)

    def test_bn_statistics_reloaded_and_restored_from_best_epoch(self, tmp_path):
        # lr 0 freezes the weights: only the BN running statistics move
        pairs = generate_pairs(48, seed=13)
        cfg = tiny_cfg(max_epochs=4, patience=4, val_fraction=0.25, lr=0.0, seed=1,
                       use_bn=True)
        out = train(pairs, cfg, out_dir=tmp_path)
        assert out.state.best_epoch < len(out.metrics) - 1   # later steps moved them
        best = ndnn.load_arrays(tmp_path / "checkpoint.ndnc")   # written at the best epoch
        assert out.model.named_buffers()
        for name, buf in out.model.named_buffers():
            np.testing.assert_array_equal(buf, best[name])
        again = load_run(tmp_path)
        batch = np.random.default_rng(0).random((8, 1, cfg.image_len), dtype=np.float32)
        np.testing.assert_array_equal(again.model.encode_code(batch).data,
                                      out.model.encode_code(batch).data)

    def test_second_run_replaces_metrics(self, tmp_path):
        pairs = generate_pairs(32, seed=10)
        train(pairs, tiny_cfg(max_epochs=3, patience=3), out_dir=tmp_path)
        out = train(pairs, tiny_cfg(max_epochs=3, patience=3, seed=1), out_dir=tmp_path)
        assert load_run(tmp_path).metrics == out.metrics

    def test_step_graph_freed_by_reference_counting(self):
        cfg = tiny_cfg()
        model = CLCPModel(cfg, text_vocab_size=32)
        rng = np.random.default_rng(0)
        code = rng.random((4, 1, cfg.image_len), dtype=np.float32)
        text = rng.integers(0, 32, size=(4, cfg.text_max_len))
        gc.disable()
        try:
            loss, sim = model.pair_loss(code, text)
            activation = weakref.ref(sim.data)
            loss.backward()
            del loss, sim
            assert activation() is None
        finally:
            gc.enable()

    def test_temperature_clamped(self):
        pairs = generate_pairs(16, seed=11)
        cfg = tiny_cfg(max_epochs=1, patience=1, temperature_init=150.0,
                       temperature_max=100.0)
        out = train(pairs, cfg)
        assert out.model.temperature <= 100.0

    def test_state_records_seed_and_steps(self):
        pairs = generate_pairs(32, seed=12)
        cfg = tiny_cfg(max_epochs=2, patience=2, seed=77)
        out = train(pairs, cfg)
        assert out.state.seed == 77
        assert out.state.step == 2 * 2  # 32 pairs / batch 16 = 2 steps per epoch


class TestPreparePairs:
    def test_tokenizes_each_snippet_once(self, monkeypatch):
        pairs = generate_pairs(6, seed=13)
        calls = []

        def counting_tokenize(src, tables=None):
            calls.append(src)
            return pylex.tokenize(src, tables)

        # both modules that import tokenize directly
        monkeypatch.setattr(training, "tokenize", counting_tokenize)
        monkeypatch.setattr(himg, "tokenize", counting_tokenize)
        prepare_pairs(pairs, tiny_cfg())
        assert sorted(calls) == sorted(r.code for r in pairs)

    def test_truncation_counts_kept(self):
        pairs = generate_pairs(4, seed=14)
        long = dataclasses.replace(pairs[0], code="x = 1\n" * 40,
                                   doc=" ".join(["word"] * 30))
        cfg = tiny_cfg(image_len=32, text_max_len=12)
        data = prepare_pairs(pairs + [long], cfg)
        assert data.code_truncated >= 1 and data.text_truncated >= 1
        short = prepare_pairs([long], cfg, vocab=data.vocab, text_vocab=data.text_vocab)
        assert (short.code_truncated, short.text_truncated) == (1, 1)
