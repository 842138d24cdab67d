"""1D convolution, pooling, and batch normalization primitives.

All ops work on (batch, channels, length) arrays, valid mode only (no
padding): L_out = floor((L - k) / s) + 1 for both convolution and local
pooling.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ShapeError, Tensor, _accum

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

    The backward computes the weight gradient ``g2 @ cols.T``, with ``g2`` the
    (C_out, B*L_out) upstream gradient, as ``(cols @ g2.T).T`` in C order
    (OpenBLAS runs it faster at the lp and rn shapes, with the same bits), the
    input gradient as one GEMM ``W2.T @ g2`` whose rows are added back into
    place one window offset at a time, and the bias gradient as
    ``g.sum(axis=(0, 2))``.

    Non-finite values: a NaN or inf in ``g`` spreads through its window.  Every
    window enters the weight gradient, so an inf in ``x``, even under windows
    whose gradient is all zero, makes it NaN through ``0 * inf``.  Two checks
    keep such values out of training: ``encoders._check_finite`` rejects
    non-finite activations in the forward, and ``Adam.step`` rejects a
    non-finite gradient, naming its parameter.
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
        _accum(weight, np.ascontiguousarray((cols @ g2.T).T).reshape(weight.shape))
        if not x.requires_grad:
            return
        gcols = (w2.T @ g2).reshape(c_in, kernel, b, l_out)
        gx = np.zeros_like(x.data)
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


def batch_norm1d(x, gamma, beta, running_mean, running_var, eps, momentum, training,
                 weights=None):
    """Per-channel standardization of (B, C, L) with learned scale and shift.

    Training mode normalizes with biased batch statistics over (B, L) and
    updates the running buffers in place; eval mode uses the running buffers'
    mean and ``1 / sqrt(var + eps)``, cast to ``x``'s dtype.  Training without
    ``weights`` requires batch size >= 2; a caller that passes them counts its
    own samples, as ``CodeEncoder.forward`` does.

    ``weights`` (training mode only, (B, L), default all 1) counts each
    column's share of the statistics: they are sums of ``w * x`` over
    ``n = sum(w)`` positions.  The code encoder runs on a packed map, a single
    sample that lays the batch's rows end to end (``CodeEncoder.forward``),
    and drops the junk columns, whose windows crossed from one row into the
    next, after each stage, so they live only within one.  Inside a stage it
    weighs 0 the junk columns between two rows, 1 the columns of a row, and
    ``1 + r_i`` the last column of row ``i``, which reads only padding and
    stands for the ``r_i`` columns cut from the row's planned length.  The
    statistics are then those of the full-length batch.  The backward is the
    exact gradient of the weighted statistics: column ``l`` of sample ``b``
    takes ``w[b, l]`` shares of the per-position term ``-(sum(g) + xhat *
    sum(g * xhat)) / n * inv_std``.  A weight-0 column takes none, so its
    gradient is its own ``g * gamma * inv_std``: 0 on a junk column, which no
    valid output reads, and nothing leaks through junk windows into the conv
    weights before it.  The upstream gradient of a weight ``1 + r_i`` column
    must already sum its repeats, as ``ndnn.gather_segments``'s backward does.
    Eval mode normalizes each position alone and ignores the weights.
    """
    if x.ndim != 3:
        raise ShapeError(f"batch_norm1d expects (B, C, L), got {x.shape}")
    if training:
        if weights is None:
            if x.shape[0] < 2:
                raise ShapeError("batch normalization needs batch size >= 2 in training mode")
            weights = np.ones(x.shape[::2])
        w = np.asarray(weights, dtype=x.dtype)[:, None, :]
        n = w.sum()
        axes = (0, 2)
        mean = (x.data * w).sum(axis=axes) / n
        centered = x.data - mean[None, :, None]
        var = (np.square(centered) * w).sum(axis=axes) / n
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
        inv_std = 1.0 / np.sqrt(var + eps)
    else:
        # from the float64 buffers, then in x's dtype: ops keep their input's dtype
        mean = running_mean.astype(x.dtype, copy=False)
        inv_std = (1.0 / np.sqrt(running_var + eps)).astype(x.dtype, copy=False)
        centered = x.data - mean[None, :, None]
    xhat = centered * inv_std[None, :, None]

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
            gx = (gxhat - (sum_g + xhat * sum_gx) * (w / n)) * inv_std[None, :, None]
        else:
            gx = gxhat * inv_std[None, :, None]
        _accum(x, gx)

    return Tensor(gamma.data[None, :, None] * xhat + beta.data[None, :, None],
                  _parents=(x, gamma, beta), _backward=backward)
