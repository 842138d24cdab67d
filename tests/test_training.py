"""Contrastive loss properties and the training loop."""
import dataclasses
import gc
import json
import inspect
import re
import shutil
import sys
import weakref

import numpy as np
import pytest

from clcp import himg, ndnn, pylex, training
from clcp.encoders import config_for_family
from clcp.ingest import PairRecord
from clcp.ndnn import Tensor
from clcp.ndnn.checkpoint import load_arrays, save_arrays
from clcp.pylex import Component
from clcp.synth import generate_pairs
from clcp.training import (
    CLCPModel,
    TrainingAborted,
    TrainState,
    clip_loss,
    load_checkpoint,
    load_run,
    prepare_pairs,
    similarity_matrix,
    train,
)
from clcp.zeval import evaluate_pairs
from fdcheck import check_op


def loss_of(matrix):
    return float(clip_loss(Tensor(np.asarray(matrix, dtype=np.float64))).data)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A one-epoch run directory; copy it before damaging it."""
    path = tmp_path_factory.mktemp("run")
    train(generate_pairs(32, seed=10), tiny_cfg(max_epochs=1, patience=1), out_dir=path)
    return path


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
        assert len(out.metrics) == 3  # lr 0 cannot improve: 1 best + 2 stale

    def test_nan_loss_aborts_and_keeps_checkpoint(self, tmp_path):
        pairs = generate_pairs(32, seed=9)
        # a non-finite logit scale poisons the first loss deterministically
        cfg = tiny_cfg(max_epochs=8, patience=8, temperature_init=float("nan"))
        with pytest.raises(TrainingAborted) as err:
            train(pairs, cfg, out_dir=tmp_path)
        assert err.value.result.state.aborted
        assert (tmp_path / training.CHECKPOINT_NAME).exists()

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
        best = load_arrays(tmp_path / training.CHECKPOINT_NAME)   # written at the best epoch
        assert out.model.named_buffers()
        for name, buf in out.model.named_buffers():
            np.testing.assert_array_equal(buf, best[name])
        again = load_run(tmp_path)
        batch = np.random.default_rng(0).random((8, 1, cfg.image_len), dtype=np.float32)
        np.testing.assert_array_equal(again.model.encode_code(batch).data,
                                      out.model.encode_code(batch).data)

    def test_checkpoint_round_trips_every_state_field(self, tmp_path):
        state = TrainState(step=7, epoch=3, seed=11, best_val=0.25, best_epoch=2,
                           aborted=True)
        assert all(getattr(state, f.name) != f.default
                   for f in dataclasses.fields(TrainState))
        model = CLCPModel(tiny_cfg(), text_vocab_size=32)
        path = tmp_path / training.CHECKPOINT_NAME
        training._save_checkpoint(path, model, ndnn.Adam(), state)
        loaded = load_checkpoint(path, model)
        assert loaded == state
        for f in dataclasses.fields(TrainState):
            assert type(getattr(loaded, f.name)) is type(f.default)

    def test_checkpoint_state_is_one_json_member(self, tmp_path):
        state = TrainState(step=4, epoch=1, seed=3, best_val=float("inf"))
        path = tmp_path / training.CHECKPOINT_NAME
        training._save_checkpoint(path, CLCPModel(tiny_cfg(), text_vocab_size=32),
                                  ndnn.Adam(), state)
        arrays = load_arrays(path)
        assert [name for name in arrays if name.startswith("state")] == ["state"]
        assert json.loads(arrays["state"].item()) == dataclasses.asdict(state)

    @pytest.mark.parametrize("member", ["logit_scale", "state"])
    def test_checkpoint_missing_member_is_named(self, tmp_path, member):
        train(generate_pairs(32, seed=10), tiny_cfg(max_epochs=1, patience=1),
              out_dir=tmp_path)
        path = tmp_path / training.CHECKPOINT_NAME
        arrays = load_arrays(path)
        del arrays[member]
        save_arrays(path, arrays.items())
        with pytest.raises(ValueError, match=f"{training.CHECKPOINT_NAME}.*missing.*{member}"):
            load_run(tmp_path)

    def test_failed_load_leaves_model_unchanged(self, tmp_path):
        path = tmp_path / training.CHECKPOINT_NAME
        training._save_checkpoint(path, CLCPModel(tiny_cfg(seed=1), text_vocab_size=32),
                                  ndnn.Adam(), TrainState())
        arrays = load_arrays(path)
        del arrays["logit_scale"]
        save_arrays(path, arrays.items())
        model = CLCPModel(tiny_cfg(), text_vocab_size=32)
        before = model.snapshot()
        with pytest.raises(ValueError, match="missing members: logit_scale"):
            load_checkpoint(path, model)
        after = model.snapshot()
        # the seed-1 weights differ, so a partial load would show
        first = next(iter(before))
        assert not np.array_equal(before[first], arrays[first])
        assert after.keys() == before.keys()
        for name, arr in before.items():
            np.testing.assert_array_equal(after[name], arr)

    @staticmethod
    def _stepped_checkpoint(path):
        """A checkpoint of a seed-1 model and an Adam that took one step."""
        model, optimizer = CLCPModel(tiny_cfg(seed=1), text_vocab_size=32), ndnn.Adam()
        for _, p in model.named_params():
            p.grad = np.ones_like(p.data)
        optimizer.step(model.named_params())
        training._save_checkpoint(path, model, optimizer, TrainState())
        return optimizer

    def test_optimizer_state_round_trips(self, tmp_path):
        path = tmp_path / training.CHECKPOINT_NAME
        saved = self._stepped_checkpoint(path)
        loaded = ndnn.Adam()
        load_checkpoint(path, CLCPModel(tiny_cfg(), text_vocab_size=32), loaded)
        assert loaded.t == saved.t == 1
        for name, m in saved.m.items():
            np.testing.assert_array_equal(loaded.m[name], m)
            np.testing.assert_array_equal(loaded.v[name], saved.v[name])

    @pytest.mark.parametrize("member,edit,message", [
        ("adam.t", "delete", "missing members: adam.t"),
        ("adam.v.logit_scale", "delete", "missing members: adam.v.logit_scale"),
        ("adam.m.logit_scale", "reshape", "shape mismatch for adam.m.logit_scale"),
    ])
    def test_bad_optimizer_state_leaves_model_unchanged(self, tmp_path, member, edit, message):
        path = tmp_path / training.CHECKPOINT_NAME
        self._stepped_checkpoint(path)
        arrays = load_arrays(path)
        if edit == "delete":
            del arrays[member]
        else:
            arrays[member] = np.zeros((2, 2))
        save_arrays(path, arrays.items())
        model, optimizer = CLCPModel(tiny_cfg(), text_vocab_size=32), ndnn.Adam()
        before = model.snapshot()
        with pytest.raises(ValueError, match=f"{training.CHECKPOINT_NAME}: {message}"):
            load_checkpoint(path, model, optimizer)
        after = model.snapshot()
        for name, arr in before.items():
            np.testing.assert_array_equal(after[name], arr)
        assert (optimizer.t, optimizer.m, optimizer.v) == (0, {}, {})

    @pytest.mark.parametrize("state", [
        np.array("{oops"),
        np.array(json.dumps({**dataclasses.asdict(TrainState()), "bogus": 1})),
        np.array(3.0),
        np.array(json.dumps({"step": "x", "epoch": [1], "best_val": None})),
        np.array(json.dumps({**dataclasses.asdict(TrainState()), "step": True})),
    ], ids=["bad-json", "unknown-key", "float", "wrong-types", "bool-for-int"])
    def test_damaged_state_is_named_and_changes_nothing(self, tmp_path, state):
        path = tmp_path / training.CHECKPOINT_NAME
        self._stepped_checkpoint(path)
        arrays = load_arrays(path)
        arrays["state"] = state
        save_arrays(path, arrays.items())
        model, optimizer = CLCPModel(tiny_cfg(), text_vocab_size=32), ndnn.Adam()
        before = model.snapshot()
        with pytest.raises(ValueError, match=f"{training.CHECKPOINT_NAME}: state member"):
            load_checkpoint(path, model, optimizer)
        after = model.snapshot()
        for name, arr in before.items():
            np.testing.assert_array_equal(after[name], arr)
        assert (optimizer.t, optimizer.m, optimizer.v) == (0, {}, {})

    def test_call_composites_reach_a_trained_model(self, tmp_path, golden_dir):
        # synth emits no call composites or user classes; the hand-tokenized
        # golden snippets hold every component
        pairs = [PairRecord("", p.read_text(encoding="utf-8"), f"snippet {p.stem[5:]}")
                 for p in sorted(golden_dir.glob("snip_*.py"))]
        out = train(pairs, tiny_cfg(max_epochs=1, patience=1), out_dir=tmp_path)
        data = prepare_pairs(pairs, out.model.config, out.vocab, out.text_vocab)
        ids = np.rint(data.code_batch[:, 0].astype(np.float64) * out.vocab.max_id)
        for component in (Component.METHOD_CALL, Component.ATTRIBUTE_CALL, Component.CLASS,
                          Component.BUILTIN_ATTRIBUTE, Component.BUILTIN_ATTR_CALL):
            lo, hi = out.vocab.ranges.range_for(component)
            assert ((ids >= lo) & (ids <= hi)).any(), component
        assert out.vocab.lookup_lists
        assert load_run(tmp_path).vocab.lookup_lists == out.vocab.lookup_lists

    @pytest.mark.parametrize("name,text,message", [
        (training.CONFIG_NAME, '{"blocks": "three"}', "blocks: expected int, got 'three'"),
        (training.CONFIG_NAME, '{"blocks": 2}', "blocks: must be in 3..7"),
        (training.CONFIG_NAME, '{"image_len": 8}', "block 1: input length 2 shorter than"),
        (training.VOCAB_NAME, "{}", "not a vocabulary file"),
        (training.TEXT_VOCAB_NAME, "{oops", "Expecting property name"),
        (training.TEXT_VOCAB_NAME, '["x", "x", "y"]', "not a JSON list of distinct words"),
        (training.METRICS_NAME, '{"epoch": 0}\n{"epoch": 1, "trunc', "Unterminated string"),
        (training.METRICS_NAME, '{"epoch": 0}\n[1, 2]\n', "line 2 is not a JSON object"),
    ], ids=["config-type", "config-range", "config-geometry", "vocab", "textvocab-json",
            "textvocab-repeat", "metrics-truncated", "metrics-not-object"])
    def test_damaged_run_file_is_named(self, tmp_path, run_dir, name, text, message):
        shutil.copytree(run_dir, tmp_path, dirs_exist_ok=True)
        load_run(tmp_path)
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_run(tmp_path)

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


class TestTapeRecording:
    @staticmethod
    def _batch(cfg, n):
        rng = np.random.default_rng(0)
        return (rng.random((n, 1, cfg.image_len), dtype=np.float32),
                rng.integers(0, 32, size=(n, cfg.text_max_len)))

    @pytest.mark.parametrize("family", ["lp", "gp", "rn"])
    def test_evaluation_records_no_tape(self, family):
        cfg = dataclasses.replace(tiny_cfg(use_bn=True), family=family)
        model = CLCPModel(cfg, text_vocab_size=32)
        code, text = self._batch(cfg, 4)
        model.set_training(False)
        for out in (model.encode_code(code), model.encode_text(text),
                    *model.pair_loss(code, text)):
            assert (out.requires_grad, out._parents, out._backward) == (False, (), None)

    def test_training_step_after_evaluation_gets_every_gradient(self):
        pairs = generate_pairs(8, seed=3)
        cfg = tiny_cfg(use_bn=True)
        data = prepare_pairs(pairs, cfg)
        fresh, evaluated = (CLCPModel(cfg, data.text_vocab.size) for _ in range(2))
        evaluate_pairs(evaluated, data.vocab, data.text_vocab, pairs)
        for model in (fresh, evaluated):
            model.set_training(True)
            model.pair_loss(data.code_batch, data.text_ids)[0].backward()
        for (name, p), (_, q) in zip(fresh.named_params(), evaluated.named_params()):
            assert q.grad is not None, name
            np.testing.assert_array_equal(q.grad, p.grad)

    @pytest.mark.parametrize("family", ["lp", "rn"])
    def test_every_function_in_ndnn_all_returns_a_tensor(self, monkeypatch, family):
        # a tracer times each function in ndnn.__all__ as a tensor op; wrap
        # each one wherever a loaded clcp module holds it, as such a tracer does
        ops = {fn: name for name in ndnn.__all__
               if inspect.isfunction(fn := getattr(ndnn, name))}
        returned = []

        def wrap(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                returned.append((ops[fn], type(out)))
                return out
            return wrapper

        for module_name, module in list(sys.modules.items()):
            if module_name == "clcp" or module_name.startswith("clcp."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in ops:
                        monkeypatch.setattr(module, attr, wrap(value))
        pairs = generate_pairs(12, seed=5)
        cfg = dataclasses.replace(tiny_cfg(max_epochs=1, use_bn=True), family=family)
        out = train(pairs, cfg)
        evaluate_pairs(out.model, out.vocab, out.text_vocab, pairs[:4])
        assert returned
        assert sorted({name for name, kind in returned if kind is not Tensor}) == []


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
