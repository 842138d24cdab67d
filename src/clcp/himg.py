"""Fixed-length single-channel 1D images of numeric token IDs.

An encoded snippet is a prefix-truncated or zero-padded ID sequence plus its
normalized float view (ids / max_id, all in [0, 1]).  Pad positions are ID 0,
which no real token ever receives.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .pylex import load_default_tables, tokenize
from .vocab import NamespaceScope, assign_ids

DEFAULT_IMAGE_LEN = 512

MAGIC = b"HIMG"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class HeterogeneousImage:
    """One encoded snippet: padded IDs, true length, and the ID scale."""

    ids: np.ndarray          # uint32, length = image_len
    true_len: int
    truncated: bool
    max_id: int

    def __len__(self):
        return len(self.ids)


def make_image(ids, image_len, max_id):
    """Truncate to a prefix or right-pad with 0, then wrap with metadata."""
    if image_len <= 0:
        raise ValueError(f"image_len must be positive, got {image_len}")
    if max_id <= 0:
        raise ValueError(f"max_id must be positive, got {max_id}")
    arr = np.asarray(ids, dtype=np.uint32)
    truncated = arr.size > image_len
    true_len = min(arr.size, image_len)
    padded = np.zeros(image_len, dtype=np.uint32)
    padded[:true_len] = arr[:image_len]
    return HeterogeneousImage(padded, true_len, truncated, max_id)


@dataclass
class EncodedSnippet:
    image: HeterogeneousImage
    scope: NamespaceScope
    tokens: list


def encode_snippet(code, vocabulary, image_len=DEFAULT_IMAGE_LEN, tables=None,
                   on_exhaust="error"):
    """clean -> lex -> classify -> assign IDs -> image, with a fresh scope."""
    tables = tables or load_default_tables()
    tokens = tokenize(code, tables)
    scope = NamespaceScope(vocabulary.ranges, on_exhaust=on_exhaust)
    ids = assign_ids(tokens, vocabulary, scope)
    return EncodedSnippet(make_image(ids, image_len, vocabulary.max_id), scope, tokens)


def encode_corpus(codes, vocabulary, image_len=DEFAULT_IMAGE_LEN, tables=None,
                  on_exhaust="error"):
    """Encode many snippets into one (N, image_len) ID matrix.

    Returns (matrix, true_lens, truncated_count); scopes are not retained.
    """
    tables = tables or load_default_tables()
    matrix = np.zeros((len(codes), image_len), dtype=np.uint32)
    true_lens = np.zeros(len(codes), dtype=np.int64)
    truncated = 0
    for i, code in enumerate(codes):
        snip = encode_snippet(code, vocabulary, image_len, tables, on_exhaust)
        matrix[i] = snip.image.ids
        true_lens[i] = snip.image.true_len
        truncated += int(snip.image.truncated)
    return matrix, true_lens, truncated


def images_to_batch(matrix, max_id, dtype=np.float32):
    """(N, L) uint32 IDs -> (N, 1, L) normalized floats for the encoder."""
    return (matrix.astype(dtype) / dtype(max_id))[:, None, :]


def write_images(path, matrix, max_id):
    """Binary corpus file: header (image_len, max_id, count), then u32 rows."""
    matrix = np.ascontiguousarray(matrix, dtype=np.uint32)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IIIQ", FORMAT_VERSION, matrix.shape[1], max_id,
                            matrix.shape[0]))
        f.write(matrix.astype("<u4").tobytes())


def read_images(path):
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise ValueError(f"{path} is not an encoded-corpus file")
        version, image_len, max_id, count = struct.unpack("<IIIQ", f.read(20))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported corpus format version {version}")
        buf = f.read(count * image_len * 4)
        if len(buf) != count * image_len * 4:
            raise ValueError("truncated corpus file")
        matrix = np.frombuffer(buf, dtype="<u4").reshape(count, image_len).copy()
    return matrix, max_id


def dump_images_text(matrix, max_id, limit=None):
    """Human-readable dump: one line per image with true length and IDs."""
    lines = [f"# image_len={matrix.shape[1]} max_id={max_id} count={matrix.shape[0]}"]
    rows = matrix if limit is None else matrix[:limit]
    for i, row in enumerate(rows):
        true_len = int(np.count_nonzero(row))
        ids = " ".join(str(v) for v in row[:true_len])
        lines.append(f"{i}\t{true_len}\t{ids}")
    return "\n".join(lines) + "\n"
