"""Slice-grid selection, cropping, and tiling invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiwin.image_io import Image, load_ppm, resize_image, save_ppm
from hiwin.slicing import compute_slice_layout, cut_unit, extract_slices, unit_jobs

from helpers import traced_peak


def enumerate_best(width, height, max_slices=6):
    """Independent re-derivation: exhaustive candidate scoring."""
    ideal = min(max(math.ceil(width * height / 336**2), 1), max_slices)
    options = []
    for n in sorted({k for k in (ideal - 1, ideal, ideal + 1) if 1 <= k <= max_slices}):
        for cols in range(1, n + 1):
            if n % cols == 0:
                rows = n // cols
                score = -abs(math.log(width * rows / (height * cols)))
                options.append((-score, n, cols, rows))
    options.sort()
    return options[0][2], options[0][3]  # cols, rows


class TestLayoutSelection:
    def test_single_tile_image(self):
        layout = compute_slice_layout(336, 336)
        assert (layout.cols, layout.rows) == (1, 1)
        assert layout.rects == [(0, 0, 336, 336)]

    def test_six_slice_landscape(self):
        # ideal = ceil(1008*672 / 336^2) = 6; 3 cols x 2 rows scores 0 exactly
        layout = compute_slice_layout(1008, 672)
        assert (layout.cols, layout.rows) == (3, 2)

    def test_transposed_portrait(self):
        layout = compute_slice_layout(672, 1008)
        assert (layout.cols, layout.rows) == (2, 3)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            w = int(rng.integers(56, 1400))
            h = int(rng.integers(56, 1400))
            layout = compute_slice_layout(w, h)
            assert (layout.cols, layout.rows) == enumerate_best(w, h)

    def test_degenerate_dims_rejected(self):
        with pytest.raises(ValueError):
            compute_slice_layout(40, 336)

    @pytest.mark.parametrize("max_slices", [0, -1])
    def test_max_slices_below_one_is_named(self, max_slices):
        with pytest.raises(ValueError, match=rf"max_slices must be at least 1, got {max_slices}"):
            compute_slice_layout(1008, 672, max_slices)

    @given(st.integers(56, 1400), st.integers(56, 1400))
    @settings(max_examples=60, deadline=None)
    def test_tiling_and_budget(self, w, h):
        layout = compute_slice_layout(w, h)
        assert layout.rows * layout.cols <= 6
        covered = np.zeros((h, w), dtype=np.int32)
        for x0, y0, x1, y1 in layout.rects:
            covered[y0:y1, x0:x1] += 1
        assert np.all(covered == 1)  # exact tiling, no overlap
        for sw, sh in layout.slice_dims:
            assert sw % 14 == 0 and sh % 14 == 0
            assert 56 <= sw <= 336 and 56 <= sh <= 336

    @given(st.integers(56, 1400), st.integers(56, 1400))
    @settings(max_examples=60, deadline=None)
    def test_transpose_symmetry(self, w, h):
        if w == h:
            return  # transposition is the identity; grid choice may be tall or wide
        a = compute_slice_layout(w, h)
        b = compute_slice_layout(h, w)
        assert (a.cols, a.rows) == (b.rows, b.cols)


class TestExtractSlices:
    def test_single_slice_equals_overview(self):
        rng = np.random.default_rng(2)
        img = Image(rng.uniform(0, 1, (336, 336, 3)).astype(np.float32))
        layout = compute_slice_layout(336, 336)
        slices, overview = extract_slices(img, layout)
        assert len(slices) == 1
        np.testing.assert_array_equal(slices[0].pixels, overview.pixels)

    def test_landscape_produces_six_full_tiles(self):
        img = Image(np.zeros((672, 1008, 3)))
        layout = compute_slice_layout(1008, 672)
        slices, overview = extract_slices(img, layout)
        assert len(slices) == 6
        assert all((s.width, s.height) == (336, 336) for s in slices)
        assert (overview.width, overview.height) == (336, 336)

    def test_crops_reassemble_to_original(self):
        rng = np.random.default_rng(3)
        img = Image(rng.uniform(0, 1, (700, 900, 3)).astype(np.float32))
        layout = compute_slice_layout(900, 700)
        rebuilt = np.zeros_like(img.pixels)
        for x0, y0, x1, y1 in layout.rects:
            rebuilt[y0:y1, x0:x1] = img.pixels[y0:y1, x0:x1]
        np.testing.assert_array_equal(rebuilt, img.pixels)

    def test_peak_memory_of_a_large_image(self):
        # measured 29.5 MiB; holds only if resizes gather the cells their
        # taps read (37.0 MiB without) and none makes a float64 copy of a
        # whole crop or of the image
        rng = np.random.default_rng(4)
        img = Image(rng.uniform(0, 1, (1512, 2016, 3)).astype(np.float32))
        layout = compute_slice_layout(2016, 1512)
        _, peak = traced_peak(lambda: extract_slices(img, layout))
        assert peak < 34 * 2**20

    @pytest.mark.parametrize("width, height", [(4032, 3024), (3024, 4032)])
    def test_eight_bit_photo_slices_like_its_decoded_floats(self, width, height):
        # resizes gather and decode only the rows and columns their taps
        # read, so the codes of a 12 MP photo never become a float32 image
        # (that alone would be 139.5 MiB); measured peaks 27.1 and 26.0 MiB
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        layout = compute_slice_layout(width, height)
        (slices, overview), peak = traced_peak(lambda: extract_slices(Image(codes), layout))
        assert peak < 32 * 2**20
        floats = Image(codes.astype(np.float32) / 255.0)
        want_slices, want_overview = extract_slices(floats, layout)
        for got, want in zip(slices + [overview], want_slices + [want_overview]):
            assert got.pixels.dtype == want.pixels.dtype == np.float32
            assert got.pixels.tobytes() == want.pixels.tobytes()

    @pytest.mark.parametrize("width, height", [(1008, 672), (300, 330)])
    def test_each_unit_cut_alone_equals_extract_slices(self, width, height, tmp_path):
        # the pipeline cuts one unit at a time: its jobs name the overview
        # (the whole image, resized as it is) and then each slice, and each
        # job's cut is byte-equal to what extract_slices returns for it
        rng = np.random.default_rng(6)
        path = tmp_path / "u.ppm"
        save_ppm(Image(rng.integers(0, 256, (height, width, 3), dtype=np.uint8)), path)
        img = load_ppm(path)
        layout = compute_slice_layout(width, height)
        slices, overview = extract_slices(img, layout)
        assert len(slices) == layout.count == (6 if width == 1008 else 1)
        jobs = unit_jobs(layout)
        assert [job.origin for job in jobs] == ["overview"] + [f"slice:{i}" for i in range(layout.count)]
        assert [job.rect for job in jobs[1:]] == layout.rects
        assert overview.pixels.tobytes() == resize_image(img, 336, 336).pixels.tobytes()
        for job, want in zip(jobs, [overview] + slices):
            got = cut_unit(img, job)
            assert (got.width, got.height) == job.dims
            assert got.pixels.dtype == want.pixels.dtype == np.float32
            assert got.pixels.tobytes() == want.pixels.tobytes()

    def test_horizontal_gradient_orders_slices(self):
        ramp = np.linspace(0, 1, 1008, dtype=np.float32)
        img = Image(np.tile(ramp[None, :, None], (672, 1, 3)))
        layout = compute_slice_layout(1008, 672)
        slices, _ = extract_slices(img, layout)
        for i in range(layout.rows):
            means = [
                slices[i * layout.cols + j].pixels.mean() for j in range(layout.cols)
            ]
            assert all(a < b for a, b in zip(means, means[1:]))
