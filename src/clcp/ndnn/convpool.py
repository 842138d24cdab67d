"""1D convolution, pooling, and batch normalization primitives.

All ops work on (batch, channels, length) arrays, valid mode only (no
padding): L_out = floor((L - k) / s) + 1 for both convolution and local
pooling.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ShapeError, Tensor, _accum

# conv1d's backward multiplies only the windows whose output gradient is nonzero
# when they are at most this share of all windows.  Measured on gradients
# captured in real training steps (default config, batch 32, BLAS on 1 thread;
# share of live windows, then sparse / dense backward time per layer):
#   gp and rn on synth pairs, below their global max pool   4-11%   0.12-0.66
#   gp and rn on the `encode` benchmark's modules            7-29%   0.21-0.95
#   lp (local pools), none and -Init                       52-67%   1.0-2.1
#   +BN and -Pool                                            100%   1.9-2.6
# The paths tie near 30%; at one quarter, no layer measured slower on the sparse
# path takes it.  A first training step can be sparse without batch norm: with
# zero biases, a conv over zero padding outputs 0, where relu passes no
# gradient (6-7% live in lp's first step on synth images).
SPARSE_LIVE_SHARE = 0.25


def conv_out_len(length, kernel, stride):
    """Output length of a valid 1D convolution or local pooling window."""
    if length < kernel:
        raise ShapeError(f"input length {length} shorter than window {kernel}")
    return (length - kernel) // stride + 1


def _windows(data, kernel, stride):
    # view of shape (B, C, L_out, kernel)
    return sliding_window_view(data, kernel, axis=2)[:, :, ::stride]


def conv1d(x, weight, bias, stride):
    """Valid 1D convolution: x (B, C_in, L) with weight (C_out, C_in, k) and bias (C_out,).

    An im2col GEMM.  The forward copies every window into one channel-major
    matrix ``cols`` of shape (C_in*k, B*L_out), row ``i*k + j`` holding input
    channel ``i`` at window offset ``j``, and computes ``W2 @ cols`` with
    ``W2 = weight.reshape(C_out, C_in*k)``.  The result is returned as a
    (B, C_out, L_out) view of that (C_out, B*L_out) product, so its memory is
    laid out (C_out, B, L_out); the elementwise ops after it keep that layout,
    and an upstream gradient in it reshapes to (C_out, B*L_out) for free.
    When the result requires grad, its backward keeps ``cols``; otherwise
    ``cols`` is freed on return.

    The backward has two paths, chosen by the share of windows (columns of the
    (C_out, B*L_out) gradient ``g2``) that carry a nonzero gradient in some
    channel.  A global max pool downstream leaves at most one live window per
    (sample, channel), so most are exactly zero.  Above ``SPARSE_LIVE_SHARE``
    the dense path computes the weight gradient ``g2 @ cols.T`` as
    ``(cols @ g2.T).T`` in C order (OpenBLAS runs it faster at the lp and rn
    shapes, with the same bits) and the input gradient as one GEMM
    ``W2.T @ g2`` whose rows are added back into place one window offset at a
    time.  At or below it, the sparse path does the same over the live columns
    alone: ``(cols[:, live] @ g2[:, live].T).T``, and ``W2.T @ g2[:, live]``
    added into each live window's input positions, one offset at a time.  The
    input gradient leaves out only adds of +0.0, so it is bit-identical to the
    dense one; the weight gradient sums fewer exact zeros, which BLAS may
    block differently (in float32, up to about 2e-6 of its largest entry).
    The bias gradient is ``g.sum(axis=(0, 2))`` on both paths.

    Non-finite values: a NaN or inf in ``g`` keeps its window live.  On the
    sparse path, ``x`` and ``weight`` enter the gradients only through live
    windows: an inf in ``x`` under windows whose gradient is all zero leaves
    the weight gradient finite, where the dense path's ``0 * inf`` makes it
    NaN (the encoders reject such activations in the forward).
    """
    b, c_in, length = x.shape
    c_out, c_in_w, kernel = weight.shape
    if c_in != c_in_w:
        raise ShapeError(f"conv1d channel mismatch: input {c_in}, weight {c_in_w}")
    l_out = conv_out_len(length, kernel, stride)
    cols = _windows(x.data, kernel, stride).transpose(1, 3, 0, 2).reshape(
        c_in * kernel, b * l_out)
    w2 = weight.data.reshape(c_out, c_in * kernel)
    out2 = w2 @ cols
    out2 += bias.data[:, None]

    def backward(g):
        g2 = g.transpose(1, 0, 2).reshape(c_out, b * l_out)
        _accum(bias, g.sum(axis=(0, 2)))
        live = np.flatnonzero(g2.any(axis=0))
        sparse = len(live) <= SPARSE_LIVE_SHARE * b * l_out
        if sparse:
            g2, cols_used = g2[:, live], cols[:, live]
        else:
            cols_used = cols
        _accum(weight, np.ascontiguousarray((cols_used @ g2.T).T).reshape(weight.shape))
        if not x.requires_grad:
            return
        gcols = w2.T @ g2
        gx = np.zeros_like(x.data)
        if sparse:
            # one live window per (row, offs): no index repeats within an offset j
            gcols = gcols.reshape(c_in, kernel, len(live))
            rows, offs = np.divmod(live, l_out)
            for j in range(kernel):
                gx[rows, :, offs * stride + j] += gcols[:, j].T
        else:
            gcols = gcols.reshape(c_in, kernel, b, l_out)
            span = stride * (l_out - 1) + 1
            for j in range(kernel):
                gx[:, :, j:j + span:stride] += gcols[:, j].transpose(1, 0, 2)
        _accum(x, gx)

    return Tensor(out2.reshape(c_out, b, l_out).transpose(1, 0, 2),
                  _parents=(x, weight, bias), _backward=backward)


def max_pool1d(x, window, stride):
    """Local max pooling; gradient routes to the first maximal index per window.

    One pass per window offset ``j`` over the strided slice of every window's
    ``j``-th element keeps a running max and, if ``x`` requires grad, the
    winning offset in the smallest unsigned dtype that holds ``window - 1``.
    The values are those of ``np.max`` over each window (NaN and signed zeros
    included) and the offsets those of ``argmax``: a strict ``>`` keeps the
    first maximal one, and a NaN beats any number but not an earlier NaN, a
    rule the offsets are redone under only if a NaN reached the output.
    """
    l_out = conv_out_len(x.shape[2], window, stride)
    span = stride * (l_out - 1) + 1
    slices = [x.data[:, :, j:j + span:stride] for j in range(window)]
    route = np.min_scalar_type(window - 1) if x.requires_grad else None
    for nan_rule in (False, True):
        out_data = slices[0]
        arg = None if route is None else np.zeros_like(out_data, route)
        for j, cand in enumerate(slices[1:], 1):
            if arg is not None:
                wins = cand > out_data
                if nan_rule:
                    wins |= np.isnan(cand) & ~np.isnan(out_data)
                # j rises, so the largest winning offset is the last one
                np.maximum(arg, wins * route.type(j), out=arg)
            out_data = np.maximum(out_data, cand)
        if arg is None or not np.isnan(out_data).any():   # np.maximum passes NaN on
            break

    def backward(g):
        # position p is offset p - l * stride of window l, so descending j adds
        # p's contributions in ascending l: a scatter-add's order, and rounding.
        # g's bits times 0 or 1 add +0.0 where offset j lost, even for a NaN g
        bits = g.view(f"u{g.itemsize}")
        gx = np.zeros_like(x.data)
        for j in reversed(range(window)):
            gx[:, :, j:j + span:stride] += (bits * (arg == j)).view(g.dtype)
        _accum(x, gx)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def global_max_pool1d(x):
    """Whole-sequence max per channel, output length 1; argmax only under grad."""
    arg = x.data.argmax(axis=2) if x.requires_grad else None

    def backward(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, arg[..., None], g, axis=2)
        _accum(x, gx)

    return Tensor(x.data.max(axis=2, keepdims=True), _parents=(x,), _backward=backward)


def batch_norm1d(x, gamma, beta, running_mean, running_var, eps, momentum, training):
    """Per-channel standardization of (B, C, L) with learned scale and shift.

    Training mode normalizes with biased batch statistics over (B, L) and
    updates the running buffers in place; eval mode uses the running buffers'
    mean and ``1 / sqrt(var + eps)``, cast to ``x``'s dtype.  Training requires
    batch size >= 2.
    """
    if x.ndim != 3:
        raise ShapeError(f"batch_norm1d expects (B, C, L), got {x.shape}")
    if training:
        if x.shape[0] < 2:
            raise ShapeError("batch normalization needs batch size >= 2 in training mode")
        axes = (0, 2)
        n = x.shape[0] * x.shape[2]
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
        inv_std = 1.0 / np.sqrt(var + eps)
    else:
        # from the float64 buffers, then in x's dtype: ops keep their input's dtype
        mean = running_mean.astype(x.dtype, copy=False)
        inv_std = (1.0 / np.sqrt(running_var + eps)).astype(x.dtype, copy=False)
    xhat = (x.data - mean[None, :, None]) * inv_std[None, :, None]

    def backward(g):
        _accum(gamma, (g * xhat).sum(axis=(0, 2)))
        _accum(beta, g.sum(axis=(0, 2)))
        if not x.requires_grad:
            return
        gxhat = g * gamma.data[None, :, None]
        if training:
            # batch statistics couple every sample in the channel
            sum_g = gxhat.sum(axis=(0, 2), keepdims=True)
            sum_gx = (gxhat * xhat).sum(axis=(0, 2), keepdims=True)
            gx = (gxhat - (sum_g + xhat * sum_gx) / n) * inv_std[None, :, None]
        else:
            gx = gxhat * inv_std[None, :, None]
        _accum(x, gx)

    return Tensor(gamma.data[None, :, None] * xhat + beta.data[None, :, None],
                  _parents=(x, gamma, beta), _backward=backward)
