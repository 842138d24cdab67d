"""Fixed-length single-channel 1D images of numeric token IDs.

One loop turns classified token streams into an (N, image_len) uint32 ID
matrix: each snippet gets a fresh namespace scope, and its IDs are written
straight into its row, prefix-truncated or zero-padded.  Pad positions are
ID 0, which no real token ever receives.  The encoder sees the normalized
float view, ids / max_id, all in [0, 1].
"""
from __future__ import annotations

import numpy as np

from . import ndnn
from .pylex import load_default_tables, tokenize
from .vocab import NamespaceScope, assign_ids


def encode_streams(streams, vocabulary, image_len, on_exhaust="error"):
    """Encode a list of classified token lists, one snippet each.

    Returns (matrix, true_lens, truncated_count); scopes are not retained.
    """
    if image_len <= 0:
        raise ValueError(f"image_len must be positive, got {image_len}")
    matrix = np.zeros((len(streams), image_len), dtype=np.uint32)
    true_lens = np.zeros(len(streams), dtype=np.int64)
    truncated = 0
    for i, tokens in enumerate(streams):
        scope = NamespaceScope(vocabulary.ranges, on_exhaust=on_exhaust)
        ids = assign_ids(tokens, vocabulary, scope)
        n = min(len(ids), image_len)
        matrix[i, :n] = ids[:n]
        true_lens[i] = n
        truncated += int(len(ids) > image_len)
    return matrix, true_lens, truncated


def encode_corpus(codes, vocabulary, image_len, tables=None, on_exhaust="error"):
    """Tokenize each source string, then ``encode_streams``."""
    tables = tables or load_default_tables()
    return encode_streams([tokenize(code, tables) for code in codes], vocabulary,
                          image_len, on_exhaust)


def images_to_batch(matrix, max_id):
    """(N, L) uint32 IDs -> (N, 1, L) normalized float32 for the encoder."""
    return (matrix.astype(np.float32) / np.float32(max_id))[:, None, :]


def write_images(path, matrix, max_id):
    """Binary corpus file: an ndnn array file holding ``ids`` (N, L) u32 and
    ``max_id``."""
    ndnn.save_arrays(path, [("ids", np.asarray(matrix, dtype="<u4")),
                            ("max_id", np.array([max_id], dtype=np.int64))])


def read_images(path):
    arrays = ndnn.load_arrays(path)
    ids = arrays.get("ids")
    if ids is None or ids.ndim != 2 or "max_id" not in arrays:
        raise ValueError(f"{path} is not an encoded-corpus file")
    return ids, int(arrays["max_id"][0])


def dump_images_text(matrix, max_id, limit=None):
    """Human-readable dump: one line per image with true length and IDs."""
    lines = [f"# image_len={matrix.shape[1]} max_id={max_id} count={matrix.shape[0]}"]
    rows = matrix if limit is None else matrix[:limit]
    for i, row in enumerate(rows):
        true_len = int(np.count_nonzero(row))
        ids = " ".join(str(v) for v in row[:true_len])
        lines.append(f"{i}\t{true_len}\t{ids}")
    return "\n".join(lines) + "\n"
