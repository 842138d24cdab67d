"""Image assembly: padding, truncation, normalization, the batch view."""
import numpy as np
import pytest

from clcp.himg import encode_corpus, encode_streams, images_to_batch
from clcp.pylex import Component, Token, load_default_tables
from clcp.vocab import build_vocab

MAX_ID = 13811
VOCAB = build_vocab([])


def keyword_stream(ids):
    """Tokens that encode to exactly ``ids``: keyword IDs are 1.. in table order."""
    keywords = load_default_tables().keywords
    return [Token(keywords[i - 1], Component.KEYWORD, (0, 0)) for i in ids]


def encode_one(tokens, image_len):
    """One snippet's row, true length and truncation flag."""
    matrix, true_lens, truncated = encode_streams([tokens], VOCAB, image_len)
    return matrix[0], int(true_lens[0]), truncated == 1


class TestMakeImage:
    """One snippet's row: prefix-truncated or zero-padded to image_len."""

    def test_pad_and_normalize(self):
        ids, true_len, truncated = encode_one(keyword_stream([1]), image_len=4)
        values = images_to_batch(ids[None, :], MAX_ID)[0, 0]
        np.testing.assert_allclose(values, [1 / MAX_ID, 0, 0, 0], rtol=1e-6)
        assert true_len == 1 and not truncated

    def test_exact_length_identity(self):
        ids, true_len, truncated = encode_one(keyword_stream([5, 6, 7]), image_len=3)
        assert true_len == 3 and not truncated
        np.testing.assert_array_equal(ids, [5, 6, 7])

    def test_truncation_keeps_prefix(self):
        ids, true_len, truncated = encode_one(keyword_stream(range(1, 9)), image_len=3)
        assert truncated and true_len == 3
        np.testing.assert_array_equal(ids, [1, 2, 3])

    def test_values_bounded(self):
        # distinct numbers outside the vocabulary fill the scope-local tail,
        # whose last ID is MAX_ID
        tail = VOCAB.ranges.fallback_tail(Component.NUMBER)
        numbers = [Token(str(k), Component.NUMBER, (0, 0)) for k in range(tail)]
        tokens = keyword_stream([1]) + numbers + keyword_stream([7])
        ids, _, _ = encode_one(tokens, image_len=tail + 4)
        assert ids.max() == MAX_ID
        values = images_to_batch(ids[None, :], MAX_ID)
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            encode_streams([keyword_stream([1])], VOCAB, image_len=0)


class TestEncode:
    def test_identical_snippets_identical_images(self):
        src = "def f(x):\n    return x + 1\n"
        matrix, _, _ = encode_corpus([src, src], VOCAB, image_len=64)
        np.testing.assert_array_equal(matrix[0], matrix[1])

    def test_zero_only_at_pads(self):
        matrix, true_lens, _ = encode_corpus(["x = 1\n"], VOCAB, image_len=32)
        ids, true_len = matrix[0], true_lens[0]
        assert (ids[:true_len] > 0).all()
        assert (ids[true_len:] == 0).all()

    def test_corpus_matrix_shape(self):
        codes = ["x = 1\n", "y = 2\n", "z = x + y\n"]
        matrix, true_lens, truncated = encode_corpus(codes, VOCAB, image_len=16)
        assert matrix.shape == (3, 16)
        assert truncated == 0
        assert (true_lens > 0).all()

    def test_batch_view_shape_and_scale(self):
        matrix = np.array([[1, MAX_ID, 0, 0]], dtype=np.uint32)
        batch = images_to_batch(matrix, MAX_ID)
        assert batch.shape == (1, 1, 4)
        assert batch.dtype == np.float32
        np.testing.assert_allclose(batch[0, 0], [1 / MAX_ID, 1.0, 0.0, 0.0], rtol=1e-6)
