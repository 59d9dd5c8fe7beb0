"""Adaptive partitioning of arbitrary-resolution images into at most six
slices plus a fixed-size overview image.

The slice count targets one slice per 336x336 tile of input area; among the
grid factorizations of that count (give or take one), the grid whose slices
are closest to square wins, scored by the absolute log aspect ratio.  Crops
use integer pixel boundaries that tile the input exactly; each crop is then
resized so both sides are multiples of 14 (the encoder patch), capped at 336.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .image_io import Image, resize_image, snap_to_patch

__all__ = ["SliceLayout", "compute_slice_layout", "extract_slices"]

OVERVIEW_SIDE = 336
MAX_SLICES = 6
MIN_SLICE_SIDE = 56


@dataclass
class SliceLayout:
    """Grid partition of an image: ``rects[i * cols + j]`` is row i, col j.

    Rectangles are (x0, y0, x1, y1) in original-image pixels and tile the
    image exactly; ``slice_dims`` are the post-resize (w, h) of every slice,
    all multiples of 14.
    """

    rows: int
    cols: int
    rects: list[tuple[int, int, int, int]]
    slice_dims: list[tuple[int, int]]

    @property
    def count(self) -> int:
        return self.rows * self.cols


def compute_slice_layout(width: int, height: int, max_slices: int = MAX_SLICES) -> SliceLayout:
    """Choose the slice grid for an image of the given pixel dims.

    The candidate slice counts are the area-ideal count and its neighbors;
    each count contributes every cols x rows factorization.  Grids are ranked
    by ``-|log(width * rows / (height * cols))|`` (squarest slices first),
    with ties broken by fewer slices, then fewer columns.
    """
    if width < MIN_SLICE_SIDE or height < MIN_SLICE_SIDE:
        raise ValueError(f"image dims {width}x{height} below minimum {MIN_SLICE_SIDE}")
    if max_slices < 1:
        raise ValueError(f"max_slices must be at least 1, got {max_slices}")
    ideal = min(max(math.ceil(width * height / OVERVIEW_SIDE**2), 1), max_slices)
    _, n, cols = min(
        (abs(math.log(width * (n // cols) / (height * cols))), n, cols)
        for n in (ideal - 1, ideal, ideal + 1) if 1 <= n <= max_slices
        for cols in range(1, n + 1) if n % cols == 0
    )
    rows = n // cols
    xs = [i * width // cols for i in range(cols + 1)]
    ys = [i * height // rows for i in range(rows + 1)]
    rects = []
    dims = []
    for i in range(rows):
        for j in range(cols):
            rect = (xs[j], ys[i], xs[j + 1], ys[i + 1])
            rects.append(rect)
            dims.append((snap_to_patch(rect[2] - rect[0]), snap_to_patch(rect[3] - rect[1])))
    return SliceLayout(rows=rows, cols=cols, rects=rects, slice_dims=dims)


def extract_slices(image: Image, layout: SliceLayout) -> tuple[list[Image], Image]:
    """Crop and resize every slice; also produce the 336x336 overview.

    Crops are views, or for a loaded PPM crops of its file that read
    nothing.  Slices and overview are float32 whichever kind of pixels
    ``image`` holds; 8-bit codes are read and decoded only where a resize
    tap reads them.
    """
    if layout.rects[-1][2] != image.width or layout.rects[-1][3] != image.height:
        raise ValueError("layout was computed for different image dims")
    slices = []
    for rect, (w, h) in zip(layout.rects, layout.slice_dims):
        x0, y0, x1, y1 = rect
        crop = Image(image.pixels[y0:y1, x0:x1])
        slices.append(resize_image(crop, w, h))
    overview = resize_image(image, OVERVIEW_SIDE, OVERVIEW_SIDE)
    return slices, overview
