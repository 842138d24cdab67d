"""Weight initialization."""
from __future__ import annotations

import numpy as np


def he_init(shape, fan_in, rng, dtype=np.float32):
    """Gaussian samples with mean 0 and variance 2/fan_in.

    Keeps activation variance stable across ReLU layers; deterministic for a
    given seeded generator.
    """
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(dtype)


def plain_init(shape, rng):
    """Naive float32 Gaussian init (std 0.01), used when He initialization is ablated."""
    return rng.normal(0.0, 0.01, size=shape).astype(np.float32)
