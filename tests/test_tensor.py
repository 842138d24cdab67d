"""Autodiff engine: forward values and gradients of the primitive ops."""
import gc
import inspect
import re
import weakref

import numpy as np
import pytest

from clcp import ndnn as nd
from fdcheck import check_op, spaced_random


def _scalarize(t):
    return nd.tsum(t) if t.size > 1 else t


class TestForward:
    def test_add_broadcast(self):
        a = nd.Tensor(np.arange(6.0).reshape(2, 3))
        b = nd.Tensor(np.array([10.0, 20.0, 30.0]))
        np.testing.assert_allclose((a + b).data, a.data + b.data)

    def test_relu_values(self):
        x = nd.Tensor(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(nd.relu(x).data, [0.0, 0.0, 2.0])

    def test_relu_all_negative_is_zero(self):
        x = nd.Tensor(np.array([-3.0, -0.5]))
        np.testing.assert_array_equal(nd.relu(x).data, [0.0, 0.0])

    def test_relu_nonnegative_identity(self):
        x = nd.Tensor(np.array([0.5, 3.0]))
        np.testing.assert_array_equal(nd.relu(x).data, x.data)

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(5, 3))
        out = nd.matmul(nd.Tensor(a), nd.Tensor(b))
        np.testing.assert_allclose(out.data, a @ b)

    def test_matmul_rejects_a_batched_operand(self):
        a, b = nd.Tensor(np.ones((2, 3, 4))), nd.Tensor(np.ones((4, 5)))
        with pytest.raises(nd.ShapeError, match=r"\(2, 3, 4\) and \(4, 5\)"):
            nd.matmul(a, b)

    def test_log_softmax_normalizes(self):
        x = nd.Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        p = np.exp(nd.log_softmax(x, axis=1).data)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_l2_normalize_unit_norm(self):
        x = nd.Tensor(np.random.default_rng(2).normal(size=(5, 8)))
        n = np.linalg.norm(nd.l2_normalize(x, axis=1).data, axis=1)
        np.testing.assert_allclose(n, 1.0, atol=1e-9)

    def test_embedding_lookup(self):
        w = nd.Tensor(np.arange(12.0).reshape(4, 3))
        out = nd.embedding(w, np.array([[0, 3], [1, 1]]))
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out.data[0, 1], [9.0, 10.0, 11.0])

    def test_backward_requires_scalar(self):
        x = nd.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(nd.ShapeError):
            (x * x).backward()


class TestGradients:
    """Every primitive agrees with central finite differences at float64."""

    def _check(self, build, arrays, tol=1e-6):
        err = check_op(build, arrays)
        assert err < tol, f"relative error {err:.3g} >= {tol}"

    def test_add_mul_div_chain(self):
        rng = np.random.default_rng(3)
        arrs = [rng.normal(size=(3, 4)), rng.uniform(1.0, 2.0, size=(3, 4))]

        def build(arrays):
            a = nd.Tensor(arrays[0], requires_grad=True)
            b = nd.Tensor(arrays[1], requires_grad=True)
            out = (a * b + a) * b
            return nd.tsum(out), [a, b]

        self._check(build, arrs)

    def test_broadcast_add(self):
        rng = np.random.default_rng(4)
        arrs = [rng.normal(size=(2, 3, 4)), rng.normal(size=(4,))]

        def build(arrays):
            a = nd.Tensor(arrays[0], requires_grad=True)
            b = nd.Tensor(arrays[1], requires_grad=True)
            return nd.tsum((a + b) * (a + b)), [a, b]

        self._check(build, arrs)

    def test_matmul_2d(self):
        rng = np.random.default_rng(5)
        arrs = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]

        def build(arrays):
            a = nd.Tensor(arrays[0], requires_grad=True)
            b = nd.Tensor(arrays[1], requires_grad=True)
            return nd.tsum(nd.matmul(a, b) * nd.matmul(a, b)), [a, b]

        self._check(build, arrs)

    def test_relu(self):
        rng = np.random.default_rng(7)
        arrs = [spaced_random(rng, (4, 5))]

        def build(arrays):
            x = nd.Tensor(arrays[0], requires_grad=True)
            return nd.tsum(nd.relu(x) * 2.0), [x]

        self._check(build, arrs)

    def test_relu_gradient_zero_on_negative(self):
        x = nd.Tensor(np.array([-2.0, -1.0]), requires_grad=True)
        nd.tsum(nd.relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_log_softmax(self):
        rng = np.random.default_rng(8)
        arrs = [rng.normal(size=(3, 5))]

        def build(arrays):
            x = nd.Tensor(arrays[0], requires_grad=True)
            return nd.tsum(nd.diagonal(nd.matmul(nd.log_softmax(x, axis=1),
                                                 nd.Tensor(np.eye(5)[:, :3])))), [x]

        self._check(build, arrs)

    def test_reductions_and_shapes(self):
        rng = np.random.default_rng(10)
        arrs = [rng.normal(size=(2, 3, 4))]

        def build(arrays):
            x = nd.Tensor(arrays[0], requires_grad=True)
            y = nd.transpose(nd.reshape(x, (6, 4)), (1, 0))
            z = nd.tmean(y, axis=1) + nd.tsum(y, axis=1)
            return nd.tsum(z * z), [x]

        self._check(build, arrs)

    def test_narrow(self):
        rng = np.random.default_rng(11)
        arrs = [rng.normal(size=(2, 3, 6))]

        def build(arrays):
            x = nd.Tensor(arrays[0], requires_grad=True)
            return nd.tsum(nd.narrow(x, 2, 1, 4) * 3.0), [x]

        self._check(build, arrs)

    def test_gather_segments(self):
        rng = np.random.default_rng(14)
        arrs = [rng.normal(size=(1, 3, 12))]
        weights = nd.Tensor(rng.normal(size=(3, 3, 5)))   # a distinct gradient per column

        def build(arrays):
            x = nd.Tensor(arrays[0], requires_grad=True)
            return nd.tsum(nd.gather_segments(x, [0, 4, 10], [3, 5, 1], 5) * weights), [x]

        self._check(build, arrs)

    def test_take_columns(self):
        rng = np.random.default_rng(16)
        arrs = [rng.normal(size=(1, 3, 12))]
        weights = nd.Tensor(rng.normal(size=(1, 3, 6)))   # a distinct gradient per column

        def build(arrays):
            x = nd.Tensor(arrays[0], requires_grad=True)
            return nd.tsum(nd.take_columns(x, [0, 1, 4, 5, 6, 11]) * weights), [x]

        self._check(build, arrs)

    def test_exp_and_clip(self):
        arrs = [np.array([0.1, 0.5, 5.2])]  # exp(5.2) > 100 exercises the clamp

        def build(arrays):
            x = nd.Tensor(arrays[0], requires_grad=True)
            return nd.tsum(nd.clip_max(nd.exp(x), 100.0)), [x]

        self._check(build, arrs)

    def test_embedding(self):
        rng = np.random.default_rng(12)
        ids = np.array([[0, 2], [2, 1]])
        arrs = [rng.normal(size=(4, 3))]

        def build(arrays):
            w = nd.Tensor(arrays[0], requires_grad=True)
            return nd.tsum(nd.embedding(w, ids) * 0.5), [w]

        self._check(build, arrs)

    def test_l2_normalize(self):
        rng = np.random.default_rng(13)
        arrs = [rng.normal(size=(3, 6)) + 0.1, rng.normal(size=(3, 6))]

        def build(arrays):
            x = nd.Tensor(arrays[0], requires_grad=True)
            w = nd.Tensor(arrays[1], requires_grad=True)
            return nd.tsum(nd.l2_normalize(x, axis=1) * w), [x, w]

        self._check(build, arrs)

    def test_zero_upstream_gives_zero_grads(self):
        x = nd.Tensor(np.ones((2, 3)), requires_grad=True)
        out = nd.tsum(x * x)
        out.backward(np.zeros(()))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))


def _gather_by_loop(packed, starts, counts, length, g):
    """gather_segments' output and input gradient, one row and column at a time."""
    out = np.zeros((len(starts), packed.shape[1], length))
    gx = np.zeros_like(packed)
    for i, (start, count) in enumerate(zip(starts, counts)):
        for j in range(length):
            col = start + min(j, count - 1)
            out[i, :, j] = packed[0, :, col]
            gx[0, :, col] += g[i, :, j]
    return out, gx


class TestGatherSegments:
    # rows of 1, 4 and 3 columns with junk between them, and a row of one column
    # (valid length 1) that repeats it over the whole row
    SEGMENTS = ([0, 2, 8, 12], [1, 4, 3, 1], 6)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(15)
        packed = rng.normal(size=(1, 3, 14))
        starts, counts, length = self.SEGMENTS
        g = rng.normal(size=(len(starts), 3, length))
        x = nd.Tensor(packed, requires_grad=True)
        out = nd.gather_segments(x, starts, counts, length)
        out.backward(g)
        want_out, want_gx = _gather_by_loop(packed, starts, counts, length, g)
        np.testing.assert_array_equal(out.data, want_out)
        # columns outside every segment, 1, 6, 7, 11 and 13, get exactly 0
        np.testing.assert_allclose(x.grad, want_gx, rtol=1e-15, atol=0)
        assert (x.grad[0, :, [1, 6, 7, 11, 13]] == 0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_dtype(self, dtype):
        x = nd.Tensor(np.ones((1, 2, 6), dtype=dtype), requires_grad=True)
        out = nd.gather_segments(x, [0, 3], [2, 3], 4)
        out.backward(np.ones(out.shape, dtype=dtype))
        assert out.dtype == x.grad.dtype == dtype

    @pytest.mark.parametrize("starts,counts,length", [
        ([0, 2], [3, 2], 4),    # overlapping segments
        ([0, 4], [2, 3], 4),    # past the last column
        ([0, 2], [0, 2], 4),    # an empty row
        ([0, 2], [2, 5], 4),    # a row longer than the output
        ([2, 0], [1, 1], 4),    # out of order
    ])
    def test_bad_segments_are_rejected(self, starts, counts, length):
        with pytest.raises(nd.ShapeError):
            nd.gather_segments(nd.Tensor(np.ones((1, 2, 6))), starts, counts, length)

    def test_needs_one_packed_map(self):
        with pytest.raises(nd.ShapeError, match="packed"):
            nd.gather_segments(nd.Tensor(np.ones((2, 2, 6))), [0], [2], 4)


class TestTakeColumns:
    COLS = [0, 2, 3, 7, 8, 9]

    def test_output_and_gradient(self):
        rng = np.random.default_rng(17)
        packed = rng.normal(size=(1, 3, 11))
        g = rng.normal(size=(1, 3, len(self.COLS)))
        x = nd.Tensor(packed, requires_grad=True)
        out = nd.take_columns(x, self.COLS)
        out.backward(g)
        assert out.data.flags.c_contiguous   # packed[:, :, cols] would be column-major
        np.testing.assert_array_equal(out.data, packed[:, :, self.COLS])
        want = np.zeros_like(packed)
        for j, col in enumerate(self.COLS):
            want[:, :, col] = g[:, :, j]
        np.testing.assert_array_equal(x.grad, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_dtype(self, dtype):
        x = nd.Tensor(np.ones((1, 2, 11), dtype=dtype), requires_grad=True)
        out = nd.take_columns(x, self.COLS)
        out.backward(np.ones(out.shape, dtype=dtype))
        assert out.dtype == x.grad.dtype == dtype

    @pytest.mark.parametrize("shape", [(2, 3, 11), (3, 11), (1, 1, 3, 11)])
    def test_needs_one_packed_map(self, shape):
        with pytest.raises(nd.ShapeError, match=re.escape(
                f"take_columns needs a packed (1, C, N) map, got {shape}")):
            nd.take_columns(nd.Tensor(np.ones(shape)), self.COLS)

    @pytest.mark.parametrize("cols", [[], [0, 2, 2], [3, 1], [-1, 2], [0, 11], [[0, 1]]],
                             ids=["empty", "repeated", "falling", "negative", "past the end",
                                  "2-D"])
    def test_bad_columns_are_rejected(self, cols):
        with pytest.raises(nd.ShapeError, match="columns must rise strictly within 11"):
            nd.take_columns(nd.Tensor(np.ones((1, 2, 11))), cols)


def _embedding_grad_by_loop(vocab, ids, g):
    """embedding's weight gradient, one occurrence of an id at a time."""
    gw = np.zeros((vocab,) + g.shape[ids.ndim:])
    for index in np.ndindex(ids.shape):
        gw[ids[index]] += g[index]
    return gw


class TestEmbeddingGradient:
    @pytest.mark.parametrize("ids", [
        np.array([[3, 1, 3, 3], [0, 1, 5, 3], [5, 5, 2, 0]]),   # duplicate ids
        np.array([[0, 0, 0, 0], [4, 2, 0, 0], [0, 0, 0, 0]]),   # all-pad rows
        np.zeros((0, 4), dtype=np.int64),                       # an empty batch
    ], ids=["duplicates", "all-pad rows", "empty batch"])
    def test_matches_loop_reference(self, ids):
        rng = np.random.default_rng(18)
        w = nd.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        g = rng.normal(size=ids.shape + (3,))
        out = nd.embedding(w, ids)
        out.backward(g)
        np.testing.assert_allclose(w.grad, _embedding_grad_by_loop(6, ids, g),
                                   rtol=1e-15, atol=0)


@pytest.mark.parametrize("reduce", [nd.tsum, nd.tmean])
def test_full_reduction_keeps_float32(reduce):
    # a numpy scalar result keeps its dtype, so a backward rooted there sends
    # float32 gradients to float32 parameters
    x = nd.Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
    out = reduce(x * x)
    assert out.dtype == np.float32
    out.backward()
    assert x.grad.dtype == np.float32


@pytest.mark.parametrize("op", [nd.exp, lambda t: nd.log_softmax(t, axis=1)],
                         ids=["exp", "log_softmax"])
def test_output_freed_without_cycle_collector(op):
    x = nd.Tensor(np.ones((2, 3)), requires_grad=True)
    gc.disable()
    try:
        out = op(x)
        output = weakref.ref(out.data)
        nd.tsum(out).backward()
        del out
        assert output() is None
    finally:
        gc.enable()


def test_all_lists_every_public_name():
    # the benchmark tracer wraps every function in nd.__all__ by name
    for name in nd.__all__:
        assert hasattr(nd, name), name
    exported = {name for name, obj in vars(nd).items()
                if not name.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__.startswith("clcp.ndnn.")}
    assert exported <= set(nd.__all__)


def test_tape_recorded_only_where_a_gradient_can_flow():
    a = nd.Tensor(np.ones((2, 2)))
    b = nd.Tensor(np.ones((2, 2)), requires_grad=True)
    plain = nd.matmul(a, a)
    assert (plain.requires_grad, plain._parents, plain._backward) == (False, (), None)
    mixed = nd.matmul(a, b)
    assert mixed.requires_grad and mixed._backward is not None
    assert mixed._parents[0] is a and mixed._parents[1] is b


def test_untaped_intermediate_freed_by_the_next_op():
    x = nd.Tensor(np.ones((2, 3)))
    gc.disable()
    try:
        h = nd.mul(x, x)
        intermediate = weakref.ref(h.data)
        out = nd.relu(h)
        del h
        assert intermediate() is None
        assert out._parents == ()
    finally:
        gc.enable()
