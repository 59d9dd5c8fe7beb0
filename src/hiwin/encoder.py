"""Pluggable source of base-level feature maps.

The synthetic encoder stands in for a frozen patch transformer: it flattens
non-overlapping 14x14 patches, applies a fixed seeded linear map, and
squashes with tanh.  It is a pure function of (pixels, seed, channels), so a
constant image yields a spatially constant map.  Real features exported from
elsewhere come in as ISPF files: :func:`load_features` reads each level once,
straight into its array, and scans it for NaN once; a
:class:`~hiwin.vdim.FeaturePyramid` of them goes straight to compression.
The patch projection is drawn once per (seed, channels) and kept read-only.

ISPF file format (little-endian), the header ``ISPF``: magic ``ISPF``, u32
version=1, u32 level, u32 h, u32 w, u32 C; then h*w*C float32 values
row-major, channel-fastest, and nothing more.  NaN or inf is refused with
``NumericalError``.  :func:`save_features` refuses with ``ValueError``,
before it opens the file, a 0 dim or a level that is not a u32, naming it;
:func:`load_features` refuses with ``DataFormatError`` a 0 dim and any byte
after the payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .formats import DataFormatError, Header, all_finite, expect_end, finite_f4, nonzero_dims, read_f4
from .image_io import Image
from .numerics import row_blocks

__all__ = [
    "EncoderSpec",
    "FeatureMap",
    "encode",
    "load_features",
    "save_features",
]

ISPF = Header(b"ISPF", "level", "height", "width", "channels")


@dataclass
class FeatureMap:
    """Dense (h, w, C) float32 feature grid tagged with pyramid level and
    origin.  ``data`` may instead be the top level of ``vdim.build_isp``,
    which computes its cells only when asked: it has an array's ``shape``;
    ``cells(rows, cols)``, the (rows, cols, C) cells of sorted distinct rows
    and columns, which ``window_attn.assemble_kv`` asks; and ``np.asarray``,
    which whole-map readers use."""

    data: np.ndarray
    level: int = 0
    origin: str = "overview"

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float32)
        if d.ndim != 3:
            raise ValueError("FeatureMap requires an (h, w, C) array")
        if not all_finite(d):  # no mask: a 96x96x64 one is 0.59 MB
            raise ValueError("FeatureMap values must be finite")
        self.data = d

    @classmethod
    def _of_checked(cls, data: np.ndarray, level: int, origin: str) -> "FeatureMap":
        """A map of an (h, w, C) float32 array whose reader has already
        refused non-finite values, or of a top level that refuses them in
        every cell it computes, built without scanning it."""
        fmap = cls.__new__(cls)
        fmap.data, fmap.level, fmap.origin = data, level, origin
        return fmap

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass
class EncoderSpec:
    """Configuration of the seeded synthetic patch encoder."""

    patch: ClassVar[int] = 14  # pixels per side of a patch; checkpoints do not record it
    channels: int = 64
    seed: int = 0


@lru_cache(maxsize=8)
def _patch_projection(seed: int, channels: int) -> np.ndarray:
    """The read-only (588, C) patch projection, drawn once per (seed, C)."""
    p = EncoderSpec.patch
    w = np.random.default_rng(seed).uniform(-0.1, 0.1, (p * p * 3, channels))
    w.flags.writeable = False
    return w


def encode(image: Image, spec: EncoderSpec, origin: str = "overview") -> FeatureMap:
    """Produce the level-0 feature map for an image whose dims divide the patch."""
    p = spec.patch
    if image.height % p or image.width % p:
        raise ValueError(
            f"image dims {image.width}x{image.height} are not multiples of patch {p}"
        )
    nh, nw = image.height // p, image.width // p
    pixels = image.decoded()
    projection = _patch_projection(spec.seed, spec.channels)
    feats = np.empty((nh, nw, spec.channels), dtype=np.float32)
    # one block of patch rows at a time, cast to float64 by the transpose's
    # copy; the stacked product is one GEMM per patch row, whatever the block
    for a, b in row_blocks(nh, nw * p * p * 3):
        block = pixels[a * p : b * p].reshape(b - a, p, nw, p, 3).transpose(0, 2, 1, 3, 4)
        patches = np.empty((b - a, nw, p * p * 3), dtype=np.float64)
        patches.reshape(b - a, nw, p, p, 3)[...] = block
        feats[a:b] = np.tanh(patches @ projection)
    return FeatureMap(feats, level=0, origin=origin)


def save_features(fmap: FeatureMap, path) -> None:
    dims = dict(height=fmap.height, width=fmap.width, channels=fmap.channels)
    header = ISPF.pack(level=fmap.level, **dims)
    what = f"ISPF level-{fmap.level} map"
    nonzero_dims(what, ValueError, **dims)
    data = finite_f4(fmap.data, what)
    with open(path, "wb") as f:
        f.write(header)
        f.write(data.tobytes())


def load_features(path) -> FeatureMap:
    with open(path, "rb") as f:
        level, h, w, c = ISPF.read(f)
        nonzero_dims("ISPF header", DataFormatError, height=h, width=w, channels=c)
        data = read_f4(f, (h, w, c), f"ISPF level-{level} map")
        expect_end(f, "ISPF")
    return FeatureMap._of_checked(data, level, "file")
