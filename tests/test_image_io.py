"""PPM parsing/writing, image pyramids, and the synthetic corpus."""

import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiwin.formats import DataFormatError
from hiwin.image_io import (
    Image,
    PpmDepthError,
    PpmError,
    build_image_pyramid,
    checkerboard_image,
    load_ppm,
    save_ppm,
    synth_corpus,
)
from hiwin.numerics import NumericalError
from hiwin.slicing import compute_slice_layout, extract_slices, resize_to_patch_multiple

from helpers import traced_peak


def write_ppm(path, raw, comment=b""):
    h, w, _ = raw.shape
    path.write_bytes(b"P6\n" + comment + f"{w} {h}\n255\n".encode() + raw.tobytes())
    return path


def random_codes(h, w, seed=0):
    return np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)


class TestPpm:
    def test_single_white_pixel(self, tmp_path):
        path = tmp_path / "one.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\xff\xff\xff")
        img = load_ppm(path)
        assert img.pixels.dtype == np.uint8
        np.testing.assert_array_equal(img.pixels, np.full((1, 1, 3), 255))
        np.testing.assert_array_equal(img.decoded(), np.ones((1, 1, 3), dtype=np.float32))

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        img = Image(rng.uniform(0, 1, (5, 7, 3)).astype(np.float32))
        first = tmp_path / "a.ppm"
        second = tmp_path / "b.ppm"
        save_ppm(img, first)
        save_ppm(load_ppm(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_non_finite_values_are_not_written(self, tmp_path):
        # wrote black pixels after a raw RuntimeWarning from the cast
        path = tmp_path / "nan.ppm"
        with pytest.raises(NumericalError, match="non-finite"):
            save_ppm(Image(np.full((4, 4, 3), np.nan)), path)
        assert not path.exists()

    def test_canonical_file_roundtrips_byte_exact(self, tmp_path):
        payload = bytes(range(2 * 3 * 3 * 1))[: 2 * 3 * 3]
        raw = b"P6\n3 2\n255\n" + payload
        path = tmp_path / "c.ppm"
        path.write_bytes(raw)
        out = tmp_path / "d.ppm"
        save_ppm(load_ppm(path), out)
        assert out.read_bytes() == raw

    def test_comments_and_whitespace_tolerated(self, tmp_path):
        path = tmp_path / "e.ppm"
        path.write_bytes(b"P6 # comment\n# another\n 2\t1 \n255\n" + bytes(6))
        img = load_ppm(path)
        assert (img.height, img.width) == (1, 2)

    @pytest.mark.parametrize("length", [4090, 100 * 1024], ids=["width-across-4-KiB", "100-KiB"])
    def test_a_long_header_comment_loads(self, tmp_path, length):
        # the header is read in growing chunks; at 4090 the width token
        # straddles the first 4 KiB chunk
        raw = random_codes(1, 10)
        img = load_ppm(write_ppm(tmp_path / "long.ppm", raw, b"#" + b"x" * length + b"\n"))
        np.testing.assert_array_equal(np.asarray(img.pixels), raw)

    def test_codes_read_from_the_file_equal_the_payload(self, tmp_path):
        raw = random_codes(9, 7, seed=4)
        codes = load_ppm(write_ppm(tmp_path / "p.ppm", raw, b"# hand-made\n")).pixels
        np.testing.assert_array_equal(np.asarray(codes), raw)
        np.testing.assert_array_equal(np.asarray(codes[2:8, 1:5]), raw[2:8, 1:5])
        rows = [4, 0, 1, 1, 5]
        np.testing.assert_array_equal(codes[2:8, 1:5].take(rows, axis=0), raw[2:8, 1:5].take(rows, axis=0))
        # the same rows at the file's width, the crop's columns from its first
        wide, first = codes[2:8, 1:5].read_rows(rows)
        assert wide.shape == (5, 7, 3) and wide.flags.c_contiguous and first == 1
        np.testing.assert_array_equal(wide[:, first : first + 4], raw[2:8, 1:5].take(rows, axis=0))

    def test_threads_read_one_image_at_once(self, tmp_path):
        # reads share no file position, so concurrent takes cannot
        # interleave a seek of one with the read of another
        raw = random_codes(64, 40, seed=5)
        codes = load_ppm(write_ppm(tmp_path / "c.ppm", raw)).pixels[3:60, 5:31]
        want = raw[3:60, 5:31]
        picks = [np.arange(k, 57, 4 + k) for k in range(8)]

        def read(k):
            return all(np.array_equal(codes.take(picks[k], axis=0), want[picks[k]]) for _ in range(25))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(read, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(results)

    def test_a_file_truncated_after_load_is_refused_when_read(self, tmp_path):
        path = write_ppm(tmp_path / "t.ppm", random_codes(112, 112))
        img = load_ppm(path)
        os.truncate(path, path.stat().st_size - 100)
        with pytest.raises(DataFormatError, match=re.escape(str(path))):
            extract_slices(img, compute_slice_layout(img.width, img.height))

    @pytest.mark.parametrize("change", ["inode", "mtime"])
    def test_a_file_replaced_after_load_is_refused_when_read(self, tmp_path, change):
        path = write_ppm(tmp_path / "r.ppm", random_codes(112, 112))
        img = load_ppm(path)
        before = path.stat()
        if change == "inode":  # another file of the same size and mtime
            other = write_ppm(tmp_path / "other.ppm", random_codes(112, 112, seed=1))
            os.utime(other, ns=(before.st_atime_ns, before.st_mtime_ns))
            os.replace(other, path)
        else:  # the same inode rewritten
            write_ppm(path, random_codes(112, 112, seed=1))
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
        after = path.stat()
        assert after.st_size == before.st_size and (after.st_ino == before.st_ino) == (change == "mtime")
        with pytest.raises(DataFormatError, match=re.escape(str(path))):
            extract_slices(img, compute_slice_layout(img.width, img.height))

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(PpmDepthError):
            load_ppm(path)

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(PpmError) as err:
            load_ppm(path)
        assert err.value.offset == 0

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x01\x02\x03")
        with pytest.raises(PpmError) as err:
            load_ppm(path)
        assert "expected 12 bytes, got 3" in str(err.value)
        assert err.value.offset == 14

    def test_peak_memory_of_a_large_photo(self, tmp_path):
        # loading reads the header and holds no payload (measured peak 9.4
        # KiB); a view on the whole file's bytes peaked at 8.73 MiB
        w, h = 2016, 1512
        raw = random_codes(h, w, seed=2)
        path = write_ppm(tmp_path / "big.ppm", raw)
        img, peak = traced_peak(lambda: load_ppm(path))
        assert peak < 2**20
        np.testing.assert_array_equal(img.pixels, raw)
        decoded = img.decoded()
        assert decoded.dtype == np.float32
        assert decoded.tobytes() == (raw.astype(np.float32) / 255.0).tobytes()

    def test_saving_codes_allocates_little_beyond_the_image(self, tmp_path):
        # the header, then the codes' own buffer (measured peak 0 MiB);
        # ``header + codes.tobytes()`` allocated 17.4 MiB
        raw = random_codes(1512, 2016, seed=3)
        img = Image(raw)
        path = tmp_path / "s.ppm"
        _, peak = traced_peak(lambda: save_ppm(img, path))
        assert peak < 2**20
        assert path.read_bytes() == b"P6\n2016 1512\n255\n" + raw.tobytes()

    @given(
        h=st.integers(1, 6), w=st.integers(1, 6), seed=st.integers(0, 2**32 - 1)
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, h, w, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        img = Image(rng.uniform(0, 1, (h, w, 3)).astype(np.float32))
        path = tmp_path_factory.mktemp("ppm") / "x.ppm"
        save_ppm(img, path)
        again = tmp_path_factory.mktemp("ppm") / "y.ppm"
        save_ppm(load_ppm(path), again)
        assert path.read_bytes() == again.read_bytes()


class TestPyramid:
    def test_dims_for_standard_input(self):
        img = Image(np.zeros((336, 336, 3)))
        pyr = build_image_pyramid(img)
        dims = [(lvl.height, lvl.width) for lvl in pyr.levels]
        assert dims == [(24, 24), (48, 48), (96, 96)]

    def test_dims_for_small_input(self):
        pyr = build_image_pyramid(Image(np.zeros((112, 112, 3))))
        assert [(l.height, l.width) for l in pyr.levels] == [(8, 8), (16, 16), (32, 32)]

    def test_rectangular_dims(self):
        pyr = build_image_pyramid(Image(np.zeros((224, 336, 3))))
        assert [(l.height, l.width) for l in pyr.levels] == [(16, 24), (32, 48), (64, 96)]

    def test_constant_image_stays_constant(self):
        pyr = build_image_pyramid(Image(np.full((112, 112, 3), 0.5)))
        for lvl in pyr.levels:
            np.testing.assert_allclose(lvl.pixels, 0.5, atol=1e-6)

    def test_non_multiple_dims_rejected(self):
        with pytest.raises(ValueError):
            build_image_pyramid(Image(np.zeros((100, 112, 3))))

    def test_resize_to_patch_multiple_snaps_and_caps(self):
        img = resize_to_patch_multiple(Image(np.zeros((100, 1000, 3))))
        assert img.height == 98  # nearest multiple of 14
        assert img.width == 336  # capped
        small = resize_to_patch_multiple(Image(np.zeros((60, 30, 3))))
        assert (small.height, small.width) == (56, 56)  # floor


class TestSynthCorpus:
    def test_deterministic(self):
        a = synth_corpus(7, 2, 48)
        b = synth_corpus(7, 2, 48)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.pixels, y.pixels)

    def test_checkerboard_cells_differ(self):
        img = checkerboard_image(32, 8, np.random.default_rng(0))
        assert not np.array_equal(img.pixels[0, 0], img.pixels[8, 0])
        assert not np.array_equal(img.pixels[0, 0], img.pixels[0, 8])

    def test_corpus_is_fast(self):
        start = time.time()
        images = synth_corpus(0, 32, 112)
        assert time.time() - start < 1.0
        assert len(images) == 32
        assert all(i.height == 112 and i.width == 112 for i in images)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            synth_corpus(0, 0, 32)
