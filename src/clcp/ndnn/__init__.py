"""Minimal dense-tensor stack with reverse-mode gradients."""
from .tensor import (
    NumericError,
    ShapeError,
    Tensor,
    add,
    clip_max,
    diagonal,
    div,
    embedding,
    exp,
    l2_normalize,
    log_softmax,
    matmul,
    mul,
    narrow,
    neg,
    relu,
    reshape,
    softmax,
    sub,
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
    FeedForwardLayer,
    Layer,
    Pool1dLayer,
    SelfAttentionLayer,
)
from .optim import Adam, zero_grads
from .checkpoint import load_arrays, save_arrays

__all__ = [
    "Adam", "BatchNorm1dLayer", "Conv1dLayer", "DenseLayer", "EmbeddingLayer",
    "FeedForwardLayer", "Layer", "NumericError", "Pool1dLayer",
    "SelfAttentionLayer", "ShapeError", "Tensor", "add", "batch_norm1d",
    "clip_max", "conv1d", "conv_out_len", "diagonal", "div", "embedding", "exp",
    "global_max_pool1d", "he_init", "l2_normalize", "load_arrays", "log_softmax",
    "matmul", "max_pool1d", "mul", "narrow", "neg", "plain_init", "relu",
    "reshape", "save_arrays", "softmax", "sub", "tmean", "transpose", "tsum",
    "zero_grads",
]
