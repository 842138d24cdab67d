"""Convolution, pooling, and batch-norm: hand oracles, shape law, gradients."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from clcp import ndnn as nd
from clcp.ndnn.convpool import conv_out_len
from fdcheck import check_op, spaced_random


def _conv(x, w, b, stride=1):
    return nd.conv1d(nd.Tensor(np.asarray(x, dtype=np.float64)),
                     nd.Tensor(np.asarray(w, dtype=np.float64)),
                     nd.Tensor(np.asarray(b, dtype=np.float64)),
                     stride)


def _channel_major(a):
    """The same values with (C, B, L) memory, the layout conv1d returns."""
    return np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)


class TestConvForward:
    def test_hand_dot_product(self):
        # window sums of [1,2,3,4] with kernel [1,1]
        out = _conv([[[1.0, 2.0, 3.0, 4.0]]], [[[1.0, 1.0]]], [0.0])
        np.testing.assert_array_equal(out.data, [[[3.0, 5.0, 7.0]]])

    def test_identity_kernel(self):
        x = np.arange(6.0).reshape(1, 1, 6)
        out = _conv(x, [[[1.0]]], [0.0])
        np.testing.assert_array_equal(out.data, x)

    def test_strided_length(self):
        out = _conv([[np.arange(5.0)]], [[[1.0, 1.0, 1.0]]], [0.0], stride=2)
        assert out.shape == (1, 1, 2)

    def test_too_short_input_raises(self):
        with pytest.raises(nd.ShapeError):
            _conv([[[1.0, 2.0]]], [[[1.0, 1.0, 1.0]]], [0.0])

    def test_channel_mixing(self):
        x = np.stack([np.ones(4), 2 * np.ones(4)])[None]  # (1, 2, 4)
        w = np.array([[[1.0], [10.0]]])  # one output channel, k=1
        out = _conv(x, w, [0.5])
        np.testing.assert_array_equal(out.data, np.full((1, 1, 4), 21.5))


class TestPoolForward:
    def test_hand_max(self):
        x = nd.Tensor(np.array([[[1.0, 3.0, 2.0, 5.0]]]))
        np.testing.assert_array_equal(nd.max_pool1d(x, 2, 2).data, [[[3.0, 5.0]]])

    def test_constant_input_any_pooling(self):
        x = nd.Tensor(np.full((2, 3, 8), 7.0))
        for out in (nd.max_pool1d(x, 3, 2), nd.global_max_pool1d(x)):
            assert (out.data == 7.0).all()

    def test_local_too_short_raises(self):
        with pytest.raises(nd.ShapeError):
            nd.max_pool1d(nd.Tensor(np.ones((1, 1, 2))), 3, 1)


class TestShapeLaw:
    def test_conv_and_pool_match_formula(self):
        # L_out = floor((L - k) / s) + 1, over 1000 random triples
        rng = np.random.default_rng(42)
        for _ in range(1000):
            k = int(rng.integers(1, 12))
            s = int(rng.integers(1, 6))
            length = int(rng.integers(k, k + 50))
            expect = (length - k) // s + 1
            assert conv_out_len(length, k, s) == expect
            x = nd.Tensor(np.zeros((1, 1, length)))
            w = nd.Tensor(np.zeros((1, 1, k)))
            assert nd.conv1d(x, w, nd.Tensor(np.zeros(1)), s).shape[2] == expect
            assert nd.max_pool1d(x, k, s).shape[2] == expect

    def test_worked_example(self):
        assert conv_out_len(5, 3, 2) == 2


class TestBatchNorm:
    def _bn(self, x, gamma, beta, training=True, eps=1e-5):
        c = x.shape[1]
        return nd.batch_norm1d(
            nd.Tensor(np.asarray(x, dtype=np.float64)),
            nd.Tensor(np.asarray(gamma, dtype=np.float64)),
            nd.Tensor(np.asarray(beta, dtype=np.float64)),
            np.zeros(c), np.ones(c), eps, 0.1, training)

    def test_constant_channel_gives_beta(self):
        x = np.full((3, 2, 4), 5.0)
        out = self._bn(x, [2.0, 3.0], [0.5, -0.5])
        np.testing.assert_allclose(out.data[:, 0], 0.5, atol=1e-6)
        np.testing.assert_allclose(out.data[:, 1], -0.5, atol=1e-6)

    def test_identity_on_standardized_input(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 3, 16))
        x = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2), keepdims=True)
        out = self._bn(x, np.ones(3), np.zeros(3), eps=1e-12)
        np.testing.assert_allclose(out.data, x, atol=1e-5)

    def test_two_sample_hand_case(self):
        # per-channel batch [1, 3]: mean 2, biased var 1 -> [-1, +1]
        x = np.array([[[1.0]], [[3.0]]])
        out = self._bn(x, [1.0], [0.0], eps=1e-12)
        np.testing.assert_allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-5)

    def test_training_needs_batch(self):
        with pytest.raises(nd.ShapeError):
            self._bn(np.ones((1, 2, 4)), np.ones(2), np.zeros(2))

    def test_running_stats_used_in_eval(self):
        layer = nd.BatchNorm1dLayer(2, dtype=np.float64)
        rng = np.random.default_rng(1)
        for _ in range(200):
            layer.forward(nd.Tensor(rng.normal(3.0, 2.0, size=(16, 2, 8))))
        layer.set_training(False)
        out = layer.forward(nd.Tensor(np.full((1, 2, 4), 3.0)))
        np.testing.assert_allclose(out.data, 0.0, atol=0.2)


class TestGradients:
    def _check(self, build, arrays, tol=1e-6):
        err = check_op(build, arrays)
        assert err < tol, f"relative error {err:.3g} >= {tol}"

    def test_conv1d(self):
        rng = np.random.default_rng(20)
        arrs = [rng.normal(size=(2, 3, 11)), rng.normal(size=(4, 3, 3)), rng.normal(size=4)]

        def build(arrays):
            x = nd.Tensor(arrays[0], requires_grad=True)
            w = nd.Tensor(arrays[1], requires_grad=True)
            b = nd.Tensor(arrays[2], requires_grad=True)
            return nd.tsum(nd.conv1d(x, w, b, 2) * 0.7), [x, w, b]

        self._check(build, arrs)

    def test_conv1d_channel_major_input(self):
        # an input laid out (C, B, L), as every conv after the first sees it
        rng = np.random.default_rng(26)
        arrs = [rng.normal(size=(3, 2, 10)), rng.normal(size=(2, 2, 3)), rng.normal(size=2)]

        def build(arrays):
            x = nd.Tensor(_channel_major(arrays[0]), requires_grad=True)
            w = nd.Tensor(arrays[1], requires_grad=True)
            b = nd.Tensor(arrays[2], requires_grad=True)
            return nd.tsum(nd.conv1d(x, w, b, 1) * 0.7), [x, w, b]

        self._check(build, arrs)

    def test_max_pool_local(self):
        rng = np.random.default_rng(21)
        arrs = [spaced_random(rng, (2, 2, 9))]

        def build(arrays):
            x = nd.Tensor(arrays[0], requires_grad=True)
            return nd.tsum(nd.max_pool1d(x, 3, 2) * 1.3), [x]

        self._check(build, arrs)

    def test_global_pools(self):
        rng = np.random.default_rng(23)
        arrs = [spaced_random(rng, (3, 2, 7))]

        def build_max(arrays):
            x = nd.Tensor(arrays[0], requires_grad=True)
            return nd.tsum(nd.global_max_pool1d(x)), [x]

        self._check(build_max, arrs)

    def test_batch_norm_training_mode(self):
        rng = np.random.default_rng(24)
        arrs = [rng.normal(size=(4, 3, 5)), rng.uniform(0.5, 1.5, size=3), rng.normal(size=3)]

        def build(arrays):
            x = nd.Tensor(arrays[0], requires_grad=True)
            gamma = nd.Tensor(arrays[1], requires_grad=True)
            beta = nd.Tensor(arrays[2], requires_grad=True)
            out = nd.batch_norm1d(x, gamma, beta, np.zeros(3), np.ones(3),
                                  1e-5, 0.1, True)
            w = nd.Tensor(np.linspace(0.5, 1.5, out.size).reshape(out.shape))
            return nd.tsum(out * w), [x, gamma, beta]

        self._check(build, arrs, tol=5e-6)

    def test_max_pool_gradient_sparsity(self):
        # exactly one nonzero per (channel, window) with non-overlapping windows
        rng = np.random.default_rng(25)
        x = nd.Tensor(spaced_random(rng, (2, 3, 12)), requires_grad=True)
        out = nd.max_pool1d(x, 3, 3)
        nd.tsum(out).backward()
        windows = x.grad.reshape(2, 3, 4, 3)
        counts = (windows != 0).sum(axis=3)
        assert (counts == 1).all()

    def test_first_index_wins_on_ties(self):
        x = nd.Tensor(np.array([[[2.0, 2.0, 1.0]]]), requires_grad=True)
        nd.tsum(nd.max_pool1d(x, 3, 1)).backward()
        np.testing.assert_array_equal(x.grad, [[[1.0, 0.0, 0.0]]])
        # overlapping windows over a run of equal values: each window routes to
        # the first 3 it covers, so the first two windows share index 1
        x = nd.Tensor(np.array([[[1.0, 3.0, 3.0, 3.0, 3.0, 0.0]]]), requires_grad=True)
        nd.tsum(nd.max_pool1d(x, 3, 1)).backward()
        np.testing.assert_array_equal(x.grad, [[[0.0, 2.0, 1.0, 1.0, 0.0, 0.0]]])


def _reference_max_pool(data, window, stride, g):
    """max/argmax over a sliding-window view, and a scatter-add backward."""
    win = sliding_window_view(data, window, axis=2)[:, :, ::stride]
    arg = win.argmax(axis=3)
    b, c, l_out = arg.shape
    gx = np.zeros_like(data)
    pos = arg + np.arange(l_out) * stride
    np.add.at(gx, (np.arange(b)[:, None, None], np.arange(c)[None, :, None], pos), g)
    return win.max(axis=3), gx


@st.composite
def _pool_cases(draw):
    window = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
             draw(st.integers(window, window + 24)))
    # few distinct integer values (signed zeros included), so windows tie,
    # and in some cases NaN, so the offsets are redone under the NaN rule
    values = [-2.0, -1.0, -0.0, 0.0, 1.0, 3.0] + [np.nan] * draw(st.integers(0, 1))
    x = draw(arrays(dtype, shape, elements=st.sampled_from(values)))
    # conv1d and relu hand the pool (C, B, L) memory
    x = _channel_major(x) if draw(st.booleans()) else x
    # a generic upstream gradient: where windows overlap, the order in which a
    # position's contributions are added changes the rounding of their sum
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    l_out = (shape[2] - window) // stride + 1
    g = rng.normal(size=shape[:2] + (l_out,)).astype(dtype)
    return x, window, stride, g, draw(st.booleans())


def _check_pool(data, window, stride, g, requires_grad):
    """max_pool1d's forward and backward against the reference; without grad,
    also a forward that must equal the grad-mode one and record no backward."""
    x = nd.Tensor(data, requires_grad=True)
    out = nd.max_pool1d(x, window, stride)
    out.backward(g)
    ref_out, ref_gx = _reference_max_pool(data, window, stride, g)
    assert out.data.dtype == ref_out.dtype and x.grad.dtype == ref_gx.dtype
    assert out.data.tobytes() == ref_out.tobytes()
    assert x.grad.tobytes() == ref_gx.tobytes()
    if not requires_grad:
        plain = nd.max_pool1d(nd.Tensor(data), window, stride)
        assert plain._backward is None and not plain._parents
        assert plain.data.tobytes() == out.data.tobytes()
    return x.grad


class TestMaxPoolProperty:
    @settings(max_examples=300, deadline=None)
    @given(_pool_cases())
    def test_matches_sliding_window_reference_bit_for_bit(self, case):
        _check_pool(*case)

    @settings(max_examples=100, deadline=None)
    @given(_pool_cases())
    def test_global_pool_without_grad_matches_grad_mode(self, case):
        data = case[0]
        out = nd.global_max_pool1d(nd.Tensor(data))
        graded = nd.global_max_pool1d(nd.Tensor(data, requires_grad=True))
        assert out._backward is None and graded._backward is not None
        assert out.data.tobytes() == graded.data.tobytes()
        assert out.data.tobytes() == data.max(axis=2, keepdims=True).tobytes()

    def test_window_beyond_uint8_offsets(self):
        # the first window's maximum sits at offset 299, past uint8's range; the
        # other two share a repeated maximum, and the first of its copies wins
        data = np.concatenate([np.arange(400.0), np.full(200, 399.0)])[None, None]
        grad = _check_pool(data, 300, 150, np.array([[[1.0, 2.0, 4.0]]]), False)
        assert np.flatnonzero(grad).tolist() == [299, 399]


def _reference_conv(x, w, b, stride, g):
    """Output and x/w/b gradients of a valid conv, one window at a time in float64."""
    x, w, b, g = (np.asarray(a, dtype=np.float64) for a in (x, w, b, g))
    batch = x.shape[0]
    c_out, _, kernel = w.shape
    l_out = g.shape[2]
    out = np.empty((batch, c_out, l_out))
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for n in range(batch):
        for o in range(c_out):
            for l in range(l_out):
                seg = x[n, :, l * stride:l * stride + kernel]
                out[n, o, l] = (w[o] * seg).sum() + b[o]
                gw[o] += g[n, o, l] * seg
                gx[n, :, l * stride:l * stride + kernel] += g[n, o, l] * w[o]
    return out, gx, gw, g.sum(axis=(0, 2))


def _conv_case(batch, c_in, c_out, length, kernel, stride, dtype=np.float64,
               x_channel_major=False, g_channel_major=False, seed=0):
    """x, weight, bias, stride and an upstream gradient, standard normal."""
    rng = np.random.default_rng(seed)
    l_out = (length - kernel) // stride + 1
    x, w, b, g = (rng.normal(size=s).astype(dtype) for s in
                  ((batch, c_in, length), (c_out, c_in, kernel), (c_out,),
                   (batch, c_out, l_out)))
    return (_channel_major(x) if x_channel_major else x, w, b, stride,
            _channel_major(g) if g_channel_major else g)


@st.composite
def _conv_cases(draw):
    kernel = draw(st.integers(1, 5))
    return _conv_case(draw(st.integers(1, 3)), draw(st.integers(1, 4)),
                      draw(st.integers(1, 4)), draw(st.integers(kernel, kernel + 20)),
                      kernel, draw(st.integers(1, 7)),
                      draw(st.sampled_from([np.float32, np.float64])),
                      draw(st.booleans()), draw(st.booleans()),
                      draw(st.integers(0, 2**32 - 1)))


# Each output or gradient entry is a sum of at most 63 products here, so its
# rounding error is below 63 units of roundoff times the sum of the terms'
# magnitudes; the tolerance is a multiple of that sum with room to spare.
CONV_TOL = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-13}


class TestConvProperty:
    @settings(max_examples=200, deadline=None)
    @given(_conv_cases())
    @example(_conv_case(1, 1, 3, 9, 3, 1))                        # C_in = 1, batch 1
    @example(_conv_case(2, 3, 2, 7, 1, 1, x_channel_major=True))  # k = 1
    @example(_conv_case(2, 2, 3, 12, 3, 2, np.float32,
                        x_channel_major=True, g_channel_major=True))   # stride > 1
    @example(_conv_case(3, 2, 2, 15, 2, 5, g_channel_major=True))      # stride > kernel
    def test_matches_loop_reference(self, case):
        data, weight, bias, stride, g = case
        x = nd.Tensor(data, requires_grad=True)
        w = nd.Tensor(weight, requires_grad=True)
        b = nd.Tensor(bias, requires_grad=True)
        out = nd.conv1d(x, w, b, stride)
        out.backward(g)
        ref = _reference_conv(data, weight, bias, stride, g)
        # the same sums over the terms' magnitudes
        mag = _reference_conv(*(np.abs(a) for a in (data, weight, bias)), stride, np.abs(g))
        tol = CONV_TOL[data.dtype]
        for got, want, size in zip((out.data, x.grad, w.grad, b.grad), ref, mag):
            assert got.dtype == data.dtype and got.shape == want.shape
            assert (np.abs(got - want) <= tol * size).all()


class TestConvWeightGradient:
    def test_rn_shape_float32_is_c_contiguous_and_exact(self):
        # an rn3 conv: 32 channels in and out, kernel 5, (C, B, L) memory in and out
        x, w, b, stride, g = _conv_case(32, 32, 32, 496, 5, 1, np.float32,
                                        x_channel_major=True, g_channel_major=True)
        weight = nd.Tensor(w, requires_grad=True)
        nd.conv1d(nd.Tensor(x), weight, nd.Tensor(b), stride).backward(g)
        cols = sliding_window_view(x, 5, axis=2).transpose(1, 3, 0, 2).reshape(32 * 5, -1)
        g2 = g.transpose(1, 0, 2).reshape(32, -1)
        # Adam updates through a flat view, which a transposed gradient would copy
        assert weight.grad.shape == w.shape and weight.grad.flags.c_contiguous
        assert weight.grad.tobytes() == (g2 @ cols.T).reshape(w.shape).tobytes()


class TestMaxPoolNaN:
    def test_nan_reaches_its_window_output(self):
        # the NaN sits second in its window, then first
        for pos in (1, 4):
            data = np.array([[[1.0, 2.0, 5.0, 0.0, 3.0, 4.0, 2.0]]])
            data[0, 0, pos] = np.nan
            out = nd.max_pool1d(nd.Tensor(data), 2, 2).data
            ref, _ = _reference_max_pool(data, 2, 2, np.zeros_like(out))
            np.testing.assert_array_equal(out, ref)
            assert np.isnan(out[0, 0, pos // 2])
            assert np.isnan(out).sum() == 1

    def test_non_finite_gradient_reaches_only_its_route(self):
        data = np.array([[[1.0, 4.0, 7.0, 3.0, 2.0, 0.0, 5.0]]])
        _check_pool(data, 3, 2, np.array([[[np.nan, -np.inf, 2.0]]]), False)

    def test_nan_without_grad_matches_grad_mode(self):
        # overlapping windows, one holding two NaNs and one a single NaN
        data = np.array([[[1.0, np.nan, 7.0, np.nan, 2.0, 0.0, 5.0]]])
        _check_pool(data, 3, 2, np.ones((1, 1, 3)), False)

    def test_nan_after_first_nan_keeps_first_index(self):
        data = np.array([[[1.0, np.nan, 7.0, np.nan]]])
        x = nd.Tensor(data, requires_grad=True)
        out = nd.max_pool1d(x, 4, 1)
        assert np.isnan(out.data).all()
        out.backward(np.ones_like(out.data))
        np.testing.assert_array_equal(x.grad, [[[0.0, 1.0, 0.0, 0.0]]])
