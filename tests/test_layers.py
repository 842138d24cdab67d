"""Layer containers: init statistics, optimizers, checkpoints, determinism."""
import math
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from clcp import ndnn as nd
from clcp.ndnn.checkpoint import load_arrays, save_arrays
from clcp.ndnn.layers import he_init
from clcp.ndnn.optim import _CHUNK, zero_grads


class TestInit:
    def test_he_variance(self):
        rng = np.random.default_rng(0)
        w = he_init((100_000,), fan_in=50, rng=rng, dtype=np.float64)
        assert abs(w.mean()) < 0.005
        assert abs(w.var() - 0.04) < 0.004  # within 10% of 2/50

    def test_he_deterministic_under_seed(self):
        a = he_init((4, 5), 10, np.random.default_rng(7))
        b = he_init((4, 5), 10, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_fan_in_validation(self):
        with pytest.raises(ValueError):
            he_init((3,), 0, np.random.default_rng(0))


class TestOptim:
    def test_adam_first_step_hand_value(self):
        # g=1: m_hat=1, v_hat=1, update = lr / (1 + eps)
        lr, eps = 1e-3, 1e-8
        p = nd.Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        nd.Adam(lr=lr, eps=eps).step([("p", p)])
        np.testing.assert_allclose(p.data, [1.0 - lr / (1.0 + eps)], rtol=1e-12)

    def test_non_finite_gradient_rejected_with_name(self):
        p = nd.Tensor(np.array([1.0]), requires_grad=True)
        q = nd.Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        q.grad = np.array([1.0])
        opt = nd.Adam()
        with pytest.raises(nd.NumericError, match="p"):
            opt.step([("p", p), ("q", q)])
        np.testing.assert_array_equal(q.data, [2.0])  # whole step rejected

    def test_adam_state_round_trip(self):
        p = nd.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = nd.Adam(lr=0.01)
        for _ in range(3):
            p.grad = np.array([0.3, -0.2])
            opt.step([("p", p)])
        clone = nd.Adam(lr=0.01)
        clone.load_state_arrays(opt.state_arrays())
        assert clone.t == 3
        np.testing.assert_array_equal(clone.m["p"], opt.m["p"])

    @staticmethod
    def _textbook_step(data, m, v, g, t, lr, b1, b2, eps):
        # the whole-array update as one expression per line, fresh temporaries
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        data -= (lr / (1.0 - b1 ** t)) * m / (np.sqrt(v) / math.sqrt(1.0 - b2 ** t) + eps)

    def test_adam_matches_textbook_formula_bit_for_bit(self):
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(7)
        # sizes shrink and grow, so the scratch is reused at several sizes
        inits = [("small", rng.normal(size=(3, 2))),
                 ("large", rng.normal(size=(5, 4, 3))),
                 ("scalar", np.array(0.5)),
                 ("mid", rng.normal(size=7))]
        inits = [(n, a.astype(np.float32)) for n, a in inits]
        params = [(n, nd.Tensor(a.copy(), requires_grad=True)) for n, a in inits]
        ref = {n: (a.copy(), np.zeros_like(a), np.zeros_like(a)) for n, a in inits}
        opt = nd.Adam(lr=lr, beta1=b1, beta2=b2, eps=eps)
        for t in range(1, 21):
            for name, p in params:
                p.grad = rng.normal(size=p.shape).astype(np.float32)
                self._textbook_step(*ref[name], p.grad, t, lr, b1, b2, eps)
            opt.step(params)
        for name, p in params:
            data, m, v = ref[name]
            assert p.data.dtype == opt.m[name].dtype == opt.v[name].dtype == np.float32
            assert p.data.tobytes() == data.tobytes()
            assert opt.m[name].tobytes() == m.tobytes()
            assert opt.v[name].tobytes() == v.tobytes()

    def test_chunked_step_matches_one_shot_update(self):
        # 3 chunks and a remainder, against the whole-array update; the
        # gradient is a transposed, non-contiguous view
        rows, cols = 3 * _CHUNK // 64 + 3, 64
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(11)
        init = rng.normal(size=(rows, cols)).astype(np.float32)
        p = nd.Tensor(init.copy(), requires_grad=True)
        data, m, v = init.copy(), np.zeros_like(init), np.zeros_like(init)
        opt = nd.Adam(lr=lr, beta1=b1, beta2=b2, eps=eps)
        for t in range(1, 4):
            p.grad = g = rng.normal(size=(cols, rows)).astype(np.float32).T
            assert not g.flags.c_contiguous
            self._textbook_step(data, m, v, g, t, lr, b1, b2, eps)
            opt.step([("p", p)])
            assert p.data.tobytes() == data.tobytes()
            assert opt.m["p"].tobytes() == m.tobytes()
            assert opt.v["p"].tobytes() == v.tobytes()

    def test_moments_and_scratch_follow_each_parameter_dtype(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(3)
        inits = [("f32", rng.normal(size=(4, 3)).astype(np.float32)),
                 ("f64", rng.normal(size=5))]
        params = [(n, nd.Tensor(a.copy(), requires_grad=True)) for n, a in inits]
        ref = {n: (a.copy(), np.zeros_like(a), np.zeros_like(a)) for n, a in inits}
        opt = nd.Adam(lr=lr, beta1=b1, beta2=b2, eps=eps)
        for t in range(1, 4):
            for name, p in params:
                p.grad = rng.normal(size=p.shape).astype(p.dtype)
                self._textbook_step(*ref[name], p.grad, t, lr, b1, b2, eps)
            opt.step(params)
        for name, p in params:
            assert opt.m[name].dtype == opt.v[name].dtype == p.dtype
            assert p.data.tobytes() == ref[name][0].tobytes()
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        assert {dtype: buf.dtype for dtype, buf in opt._scratch.items()} == {f32: f32, f64: f64}
        # the scratch buffers are not optimizer state
        state = opt.state_arrays()
        assert sorted(state) == ["adam.m.f32", "adam.m.f64", "adam.t", "adam.v.f32", "adam.v.f64"]
        assert [state[f"adam.{k}.f32"].dtype for k in "mv"] == [np.float32] * 2

    def test_non_contiguous_parameter_rejected(self):
        p = nd.Tensor(np.ones((4, 3), dtype=np.float32).T, requires_grad=True)
        p.grad = np.ones((3, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="not C-contiguous"):
            nd.Adam().step([("p", p)])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = [("conv.weight", rng.normal(size=(4, 2, 3)).astype(np.float32)),
                  ("conv.bias", rng.normal(size=4).astype(np.float32)),
                  ("step", np.array([7], dtype=np.int64))]
        path = tmp_path / "model.ckpt"
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert list(loaded) == [n for n, _ in arrays]
        for name, arr in arrays:
            np.testing.assert_array_equal(loaded[name], arr)
            assert loaded[name].dtype == arr.dtype

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_arrays(path)


def _flip_data_byte(path):
    """Invert one byte inside the stored data of the member named ``x``."""
    blob = bytearray(path.read_bytes())
    blob[blob.index(np.arange(16, dtype=np.int64).tobytes()) + 9] ^= 0xFF
    path.write_bytes(bytes(blob))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-40])


def _non_npy_zip(path):
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("notes.txt", "not an array")


def _bare_npy(path):
    with open(path, "wb") as f:
        np.save(f, np.arange(4))


class TestCheckpointRejections:
    """Every damaged or foreign file raises ValueError, never loads silently."""

    @pytest.mark.parametrize("damage", [
        lambda p: p.write_bytes(np.random.default_rng(0).bytes(256)),
        lambda p: p.write_bytes(b""),
        _bare_npy,
        _non_npy_zip,
        _truncate,
        _flip_data_byte,
    ], ids=["random-bytes", "empty", "bare-npy", "non-npy-zip", "truncated",
            "flipped-byte"])
    def test_rejected(self, tmp_path, damage):
        path = tmp_path / "checkpoint.npz"
        save_arrays(path, [("x", np.arange(16, dtype=np.int64)),
                           ("y", np.ones(3, dtype=np.float32))])
        load_arrays(path)   # intact, it loads
        damage(path)
        with pytest.raises(ValueError, match="not a checkpoint file"):
            load_arrays(path)


@st.composite
def _named_arrays(draw):
    # np.savez takes members as keywords, so names carry a prefix that keeps
    # them clear of its own parameter names, as checkpoint keys do
    suffixes = draw(st.lists(st.text("abcxyz019._", min_size=1, max_size=8),
                             unique=True, max_size=6))
    dtypes = st.sampled_from([np.float32, np.float64, np.int64, np.bool_])
    shapes = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
    return [(f"p.{s}", draw(arrays(draw(dtypes), shapes))) for s in suffixes]


@pytest.fixture(scope="module")
def checkpoint_path(tmp_path_factory):
    return tmp_path_factory.mktemp("checkpoint") / "c.npz"


class TestCheckpointProperty:
    @settings(max_examples=100, deadline=None)
    @given(_named_arrays())
    @example([("p.scalar", np.array(2.5)), ("p.empty", np.zeros((0, 3), np.int64)),
              ("p.mask", np.array([True, False]))])
    @example([])
    def test_round_trip_keeps_names_order_dtypes_and_bits(self, checkpoint_path, named):
        save_arrays(checkpoint_path, named)
        loaded = load_arrays(checkpoint_path)
        assert list(loaded) == [name for name, _ in named]
        for name, arr in named:
            got = loaded[name]
            assert (got.dtype, got.shape) == (arr.dtype, arr.shape)
            assert got.tobytes() == arr.tobytes()


class TestDeterminism:
    def test_identical_seed_bitwise_identical_params(self):
        def run():
            rng = np.random.default_rng(11)
            conv = nd.Conv1dLayer(1, 4, 3, 1, rng)
            dense = nd.DenseLayer(4, 2, rng)
            opt = nd.Adam(lr=1e-3)
            data_rng = np.random.default_rng(12)
            params = [("conv.weight", conv.weight), ("conv.bias", conv.bias),
                      ("dense.weight", dense.weight), ("dense.bias", dense.bias)]
            for _ in range(20):
                x = nd.Tensor(data_rng.normal(size=(4, 1, 16)).astype(np.float32))
                h = nd.global_max_pool1d(nd.relu(conv.forward(x)))
                out = dense.forward(nd.reshape(h, (4, 4)))
                loss = nd.tmean(out * out)
                zero_grads(params)
                loss.backward()
                opt.step(params)
            return [p.data.copy() for _, p in params]

        for a, b in zip(run(), run()):
            assert a.tobytes() == b.tobytes()
