"""Minimal dense-tensor stack with reverse-mode gradients."""
from .tensor import (
    NumericError,
    ShapeError,
    Tensor,
    add,
    clip_max,
    diagonal,
    embedding,
    exp,
    l2_normalize,
    log_softmax,
    matmul,
    mul,
    narrow,
    relu,
    reshape,
    tmean,
    transpose,
    tsum,
)
from .convpool import (
    batch_norm1d,
    conv1d,
    conv_out_len,
    global_max_pool1d,
    max_pool1d,
)
from .init import he_init, plain_init
from .layers import (
    BatchNorm1dLayer,
    Conv1dLayer,
    DenseLayer,
    EmbeddingLayer,
    Pool1dLayer,
)
from .optim import Adam, zero_grads
from .checkpoint import load_arrays, save_arrays

__all__ = [
    "Adam", "BatchNorm1dLayer", "Conv1dLayer", "DenseLayer", "EmbeddingLayer",
    "NumericError", "Pool1dLayer", "ShapeError", "Tensor", "add",
    "batch_norm1d", "clip_max", "conv1d", "conv_out_len", "diagonal", "embedding",
    "exp", "global_max_pool1d", "he_init", "l2_normalize", "load_arrays",
    "log_softmax", "matmul", "max_pool1d", "mul", "narrow", "plain_init", "relu",
    "reshape", "save_arrays", "tmean", "transpose", "tsum", "zero_grads",
]
