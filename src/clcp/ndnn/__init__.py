"""Minimal dense-tensor stack with reverse-mode gradients.

Every function in ``__all__`` is a tensor op: it takes and returns Tensors."""
from .tensor import (
    NumericError,
    ShapeError,
    Tensor,
    add,
    clip_max,
    diagonal,
    embedding,
    exp,
    gather_segments,
    l2_normalize,
    log_softmax,
    matmul,
    mul,
    narrow,
    relu,
    reshape,
    take_columns,
    tmean,
    transpose,
    tsum,
)
from .convpool import batch_norm1d, conv1d, global_max_pool1d, max_pool1d
from .layers import BatchNorm1dLayer, Conv1dLayer, DenseLayer
from .optim import Adam

__all__ = [
    "Adam", "BatchNorm1dLayer", "Conv1dLayer", "DenseLayer", "NumericError",
    "ShapeError", "Tensor", "add", "batch_norm1d", "clip_max",
    "conv1d", "diagonal", "embedding", "exp", "gather_segments", "global_max_pool1d",
    "l2_normalize", "log_softmax", "matmul", "max_pool1d", "mul", "narrow", "relu",
    "reshape", "take_columns", "tmean", "transpose", "tsum",
]
