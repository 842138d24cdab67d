"""Image assembly: padding, truncation, normalization, binary round-trip."""
import numpy as np
import pytest

from clcp.himg import (
    dump_images_text,
    encode_corpus,
    encode_snippet,
    images_to_batch,
    make_image,
    read_images,
    write_images,
)
from clcp.vocab import build_vocab

MAX_ID = 13811


class TestMakeImage:
    def test_pad_and_normalize(self):
        img = make_image([1], image_len=4, max_id=MAX_ID)
        values = images_to_batch(img.ids[None, :], img.max_id)[0, 0]
        np.testing.assert_allclose(values, [1 / MAX_ID, 0, 0, 0], rtol=1e-6)
        assert img.true_len == 1 and not img.truncated

    def test_exact_length_identity(self):
        img = make_image([5, 6, 7], image_len=3, max_id=MAX_ID)
        assert img.true_len == 3 and not img.truncated
        np.testing.assert_array_equal(img.ids, [5, 6, 7])

    def test_truncation_keeps_prefix(self):
        img = make_image(list(range(1, 9)), image_len=3, max_id=MAX_ID)
        assert img.truncated and img.true_len == 3
        np.testing.assert_array_equal(img.ids, [1, 2, 3])

    def test_values_bounded(self):
        img = make_image([1, MAX_ID, 7], image_len=5, max_id=MAX_ID)
        values = images_to_batch(img.ids[None, :], img.max_id)
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            make_image([1], image_len=0, max_id=MAX_ID)


class TestEncode:
    def test_identical_snippets_identical_images(self):
        vocab = build_vocab([])
        src = "def f(x):\n    return x + 1\n"
        a = encode_snippet(src, vocab, image_len=64)
        b = encode_snippet(src, vocab, image_len=64)
        np.testing.assert_array_equal(a.image.ids, b.image.ids)

    def test_zero_only_at_pads(self):
        vocab = build_vocab([])
        snip = encode_snippet("x = 1\n", vocab, image_len=32)
        ids = snip.image.ids
        assert (ids[:snip.image.true_len] > 0).all()
        assert (ids[snip.image.true_len:] == 0).all()

    def test_corpus_matrix_shape(self):
        vocab = build_vocab([])
        codes = ["x = 1\n", "y = 2\n", "z = x + y\n"]
        matrix, true_lens, truncated = encode_corpus(codes, vocab, image_len=16)
        assert matrix.shape == (3, 16)
        assert truncated == 0
        assert (true_lens > 0).all()

    def test_batch_view_shape_and_scale(self):
        matrix = np.array([[1, MAX_ID, 0, 0]], dtype=np.uint32)
        batch = images_to_batch(matrix, MAX_ID)
        assert batch.shape == (1, 1, 4)
        assert batch.dtype == np.float32
        np.testing.assert_allclose(batch[0, 0], [1 / MAX_ID, 1.0, 0.0, 0.0], rtol=1e-6)


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, MAX_ID + 1, size=(5, 12)).astype(np.uint32)
        path = tmp_path / "imgs.bin"
        write_images(path, matrix, MAX_ID)
        loaded, max_id = read_images(path)
        assert max_id == MAX_ID
        np.testing.assert_array_equal(loaded, matrix)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 32)
        with pytest.raises(ValueError):
            read_images(path)

    def test_debug_dump(self):
        matrix = np.array([[3, 4, 0, 0], [5, 0, 0, 0]], dtype=np.uint32)
        dump = dump_images_text(matrix, MAX_ID)
        lines = dump.strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "0\t2\t3 4"
        assert lines[2] == "1\t1\t5"
