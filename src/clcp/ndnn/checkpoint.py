"""Named-array checkpoints in numpy's ``.npz`` format.

A checkpoint is a zip archive holding one ``.npy`` member per name, in write
order.  Loading never unpickles, so a checkpoint holds plain arrays only, and
the archive's per-member CRC-32 makes a damaged file fail to load instead of
loading with changed values.
"""
from __future__ import annotations

import zipfile

import numpy as np


def save_arrays(path, named_arrays):
    """Write named arrays; order of the iterable defines the member order."""
    with open(path, "wb") as f:
        np.savez(f, allow_pickle=False, **dict(named_arrays))


def load_arrays(path):
    """Read a checkpoint back into an ordered dict of name -> array."""
    try:
        # a bare .npy file loads as an ndarray, which has no ``with``: TypeError
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path} is not a checkpoint file: {exc}") from exc
    for name, arr in arrays.items():
        if not isinstance(arr, np.ndarray):   # a member that is not an .npy file
            raise ValueError(f"{path} is not a checkpoint file: {name!r} is not an array")
    return arrays


def _check_members(arrays, expected):
    """Raise ValueError unless ``arrays`` holds every ``(name, shape)`` of ``expected``."""
    missing = [name for name, _ in expected if name not in arrays]
    if missing:
        raise ValueError(f"missing members: {', '.join(missing)}")
    for name, shape in expected:
        if arrays[name].shape != shape:
            raise ValueError(f"shape mismatch for {name}: {arrays[name].shape} vs {shape}")
