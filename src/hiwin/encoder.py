"""Pluggable source of base-level feature maps.

The synthetic encoder stands in for a frozen patch transformer: it flattens
non-overlapping 14x14 patches, applies a fixed seeded linear map, and
squashes with tanh.  It is a pure function of (pixels, seed, channels), so a
constant image yields a spatially constant map.  Real features exported from
elsewhere come in as ISPF files: :func:`load_features` reads each level, and
a :class:`~hiwin.vdim.FeaturePyramid` of them goes straight to compression.

ISPF file format (little-endian): magic ``ISPF``, u32 version=1, u32 level,
u32 h, u32 w, u32 C, then h*w*C float32 values row-major, channel-fastest.
NaN or inf is refused with ``NumericalError`` before the file is opened.
A height, width or channel count of 0 is refused naming the field: by
:func:`save_features` with ``ValueError`` before the file is opened, and in
a header with ``DataFormatError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .formats import DataFormatError, expect_magic, finite_f4, nonzero_dims, read_exact, read_u32, write_u32
from .image_io import Image

__all__ = [
    "EncoderSpec",
    "FeatureMap",
    "encode",
    "load_features",
    "save_features",
]

ISPF_MAGIC = b"ISPF"
ISPF_VERSION = 1


@dataclass
class FeatureMap:
    """Dense (h, w, C) float32 feature grid tagged with pyramid level and origin."""

    data: np.ndarray
    level: int = 0
    origin: str = "overview"

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float32)
        if d.ndim != 3:
            raise ValueError("FeatureMap requires an (h, w, C) array")
        if not np.all(np.isfinite(d)):
            raise ValueError("FeatureMap values must be finite")
        self.data = d

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


def _patch_projection(spec: EncoderSpec) -> np.ndarray:
    rng = np.random.default_rng(spec.seed)
    return rng.uniform(-0.1, 0.1, (spec.patch * spec.patch * 3, spec.channels))


def encode(image: Image, spec: EncoderSpec, origin: str = "overview") -> FeatureMap:
    """Produce the level-0 feature map for an image whose dims divide the patch."""
    p = spec.patch
    if image.height % p or image.width % p:
        raise ValueError(
            f"image dims {image.width}x{image.height} are not multiples of patch {p}"
        )
    nh, nw = image.height // p, image.width // p
    patches = (
        image.decoded()
        .astype(np.float64)
        .reshape(nh, p, nw, p, 3)
        .transpose(0, 2, 1, 3, 4)
        .reshape(nh, nw, p * p * 3)
    )
    feats = np.tanh(patches @ _patch_projection(spec))
    return FeatureMap(feats.astype(np.float32), level=0, origin=origin)


def save_features(fmap: FeatureMap, path) -> None:
    what = f"ISPF level-{fmap.level} map"
    nonzero_dims(what, ValueError, height=fmap.height, width=fmap.width, channels=fmap.channels)
    data = finite_f4(fmap.data, what)
    with open(path, "wb") as f:
        f.write(ISPF_MAGIC)
        write_u32(f, ISPF_VERSION)
        write_u32(f, fmap.level)
        write_u32(f, fmap.height)
        write_u32(f, fmap.width)
        write_u32(f, fmap.channels)
        f.write(data.tobytes())


def load_features(path) -> FeatureMap:
    with open(path, "rb") as f:
        expect_magic(f, ISPF_MAGIC)
        version = read_u32(f, "version")
        if version != ISPF_VERSION:
            raise DataFormatError(f"unsupported ISPF version {version}")
        level = read_u32(f, "level")
        h = read_u32(f, "height")
        w = read_u32(f, "width")
        c = read_u32(f, "channels")
        nonzero_dims("ISPF header", DataFormatError, height=h, width=w, channels=c)
        payload = read_exact(f, h * w * c * 4, "feature payload")
    data = finite_f4(np.frombuffer(payload, dtype="<f4"), f"ISPF level-{level} map")
    return FeatureMap(data.reshape(h, w, c).copy(), level=level, origin="file")
