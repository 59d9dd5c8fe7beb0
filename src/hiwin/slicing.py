"""Adaptive partitioning of arbitrary-resolution images into at most six
slices plus a fixed-size overview image.

The slice count targets one slice per 336x336 tile of input area; among the
grid factorizations of that count (give or take one), the grid whose slices
are closest to square wins, scored by the absolute log aspect ratio.  Crops
use integer pixel boundaries that tile the input exactly; each crop is then
resized to sides of :func:`snap_to_patch`: multiples of 14 in [56, 336].
Each unit (the overview, then every slice) is one :class:`UnitJob`, cut from
the image by :func:`cut_unit` alone, so a pipeline unit can cut its own
slice when it starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .encoder import EncoderSpec
from .image_io import Image, resize_image

__all__ = [
    "SliceLayout",
    "UnitJob",
    "compute_slice_layout",
    "cut_unit",
    "extract_slices",
    "resize_to_patch_multiple",
    "snap_to_patch",
    "unit_jobs",
]

OVERVIEW_SIDE = 336
MAX_SLICES = 6
MIN_SLICE_SIDE = 56


def snap_to_patch(side: int) -> int:
    """The multiple of the encoder patch nearest to ``side``, clamped to
    [``MIN_SLICE_SIDE``, ``OVERVIEW_SIDE``]."""
    p = EncoderSpec.patch
    return min(max(round(side / p), MIN_SLICE_SIDE // p), OVERVIEW_SIDE // p) * p


def resize_to_patch_multiple(image: Image) -> Image:
    """Resize so each side is :func:`snap_to_patch` of itself."""
    return resize_image(image, snap_to_patch(image.width), snap_to_patch(image.height))


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
    rects = [(xs[j], ys[i], xs[j + 1], ys[i + 1]) for i in range(rows) for j in range(cols)]
    dims = [(snap_to_patch(x1 - x0), snap_to_patch(y1 - y0)) for x0, y0, x1, y1 in rects]
    return SliceLayout(rows=rows, cols=cols, rects=rects, slice_dims=dims)


@dataclass(frozen=True)
class UnitJob:
    """One unit of a layout: its ``origin`` name, its crop ``rect`` (x0, y0,
    x1, y1) in original-image pixels and its target ``dims`` (w, h)."""

    origin: str
    rect: tuple[int, int, int, int]
    dims: tuple[int, int]


def unit_jobs(layout: SliceLayout) -> list[UnitJob]:
    """The overview's job (the whole image at 336x336), then each slice's in
    layout order, named ``overview`` and ``slice:i``."""
    whole = (0, 0, layout.rects[-1][2], layout.rects[-1][3])
    return [UnitJob("overview", whole, (OVERVIEW_SIDE, OVERVIEW_SIDE))] + [
        UnitJob(f"slice:{i}", rect, dims) for i, (rect, dims) in enumerate(zip(layout.rects, layout.slice_dims))
    ]


def cut_unit(image: Image, job: UnitJob) -> Image:
    """Crop ``job.rect`` and resize it to ``job.dims``.

    The crop is a view, or for a loaded PPM a crop of its file that reads
    nothing.  The result is float32 whichever kind of pixels ``image``
    holds; 8-bit codes are read and decoded only where a resize tap reads
    them.
    """
    x0, y0, x1, y1 = job.rect
    return resize_image(Image(image.pixels[y0:y1, x0:x1]), *job.dims)


def extract_slices(image: Image, layout: SliceLayout) -> tuple[list[Image], Image]:
    """Every slice and the 336x336 overview, each cut by :func:`cut_unit`
    from its job in :func:`unit_jobs`; all of them are held at once."""
    if layout.rects[-1][2] != image.width or layout.rects[-1][3] != image.height:
        raise ValueError("layout was computed for different image dims")
    overview, *slices = [cut_unit(image, job) for job in unit_jobs(layout)]
    return slices, overview
