"""Fixed-length single-channel 1D images of numeric token IDs.

One loop turns classified token streams into an (N, image_len) uint32 ID
matrix: each snippet gets a fresh namespace scope, and its IDs are written
straight into its row, prefix-truncated or zero-padded.  Pad positions are
ID 0, which no real token ever receives.  The encoder sees the normalized
float view, ids / max_id, all in [0, 1].
"""
from __future__ import annotations

import numpy as np

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
