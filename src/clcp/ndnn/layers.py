"""Conv, pool, dense and batch-norm layers: parameter containers with a forward.

Each holds its parameters as float32 Tensors with requires_grad=True (batch
norm's may be float64) and lists them through ``params()`` as (name, tensor)
pairs; a pooling layer lists none.  Optimizers and the checkpoint writer rely
on those names being stable and unique within a model.
"""
from __future__ import annotations

import numpy as np

from . import convpool
from .tensor import ShapeError, Tensor, matmul


def he_init(shape, fan_in, rng, dtype=np.float32):
    """Gaussian samples with mean 0 and variance 2/fan_in, which keeps activation
    variance stable across ReLU layers; deterministic for a seeded generator."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(dtype)


def _weight(shape, fan_in, rng, he):
    # without He init (the -Init ablation) the weights are plain N(0, 0.01^2)
    data = (he_init(shape, fan_in, rng) if he
            else rng.normal(0.0, 0.01, size=shape).astype(np.float32))
    return Tensor(data, requires_grad=True)


class Conv1dLayer:
    """Valid 1D convolution with kernel ``kernel`` and step ``stride``."""

    def __init__(self, in_channels, out_channels, kernel, stride, rng, he=True):
        if kernel < 1 or stride < 1:
            raise ShapeError("kernel and stride must be >= 1")
        self.kernel = kernel
        self.stride = stride
        self.weight = _weight((out_channels, in_channels, kernel), in_channels * kernel,
                              rng, he)
        self.bias = Tensor(np.zeros(out_channels, dtype=np.float32), requires_grad=True)

    def forward(self, x):
        return convpool.conv1d(x, self.weight, self.bias, self.stride)

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class Pool1dLayer:
    """Max pooling, local (window k', step s') or global."""

    def __init__(self, window=2, stride=2, scope="local"):
        if scope not in ("local", "global"):
            raise ValueError(f"pool scope must be 'local' or 'global', got {scope!r}")
        if scope == "local" and (window < 1 or stride < 1):
            raise ShapeError("local pooling needs window and stride >= 1")
        self.window = window
        self.stride = stride
        self.scope = scope

    def forward(self, x):
        if self.scope == "global":
            return convpool.global_max_pool1d(x)
        return convpool.max_pool1d(x, self.window, self.stride)

    def params(self):
        return []


class DenseLayer:
    """Affine map on the last axis: x @ W + b."""

    def __init__(self, in_dim, out_dim, rng, he=True):
        self.weight = _weight((in_dim, out_dim), in_dim, rng, he)
        self.bias = Tensor(np.zeros(out_dim, dtype=np.float32), requires_grad=True)

    def forward(self, x):
        return matmul(x, self.weight) + self.bias

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class BatchNorm1dLayer:
    """Per-channel batch norm of (B, C, L) maps; eps 1e-5, running-stat momentum 0.1."""

    def __init__(self, channels, dtype=np.float32):
        self.training = True
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)

    def forward(self, x):
        return convpool.batch_norm1d(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            eps=1e-5, momentum=0.1, training=self.training)

    def set_training(self, flag):
        self.training = flag

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

