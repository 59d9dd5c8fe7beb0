"""Image loading/saving, the synthetic training corpus, and image pyramids.

An image holds either float32 values in [0, 1] or 8-bit codes (uint8).
:func:`load_ppm` keeps a file's codes as a view on its bytes, and
:func:`save_ppm` writes codes unchanged.  Codes become values by one rule,
``float32(code) / 255`` (:func:`hiwin.numerics.decode_codes`): resizes decode
only the cells their taps read, and :meth:`Image.decoded` decodes a whole
image for arithmetic that wants values (the encoder and the guided
upsampler take their pixels through it).  The only required on-disk format is
binary PPM (P6, maxval 255), chosen because round trips are bit-exact and
need no dependencies.  The image pyramid resamples every level from the
original image rather than cascading, which avoids compounding interpolation
blur across levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .formats import DataFormatError, finite_f4
from .numerics import bilinear_resize, decode_codes

__all__ = [
    "Image",
    "ImagePyramid",
    "PpmDepthError",
    "PpmError",
    "build_image_pyramid",
    "checkerboard_image",
    "gradient_image",
    "load_ppm",
    "rectangles_image",
    "resize_image",
    "resize_to_patch_multiple",
    "save_ppm",
    "snap_to_patch",
    "strokes_image",
    "synth_corpus",
]

_WHITESPACE = b" \t\r\n\x0b\x0c"


class PpmError(DataFormatError):
    """Malformed PPM content; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class PpmDepthError(PpmError):
    """PPM with a maxval other than 255 (only 8-bit channels are supported)."""


@dataclass
class Image:
    """One RGB image of float32 values in [0, 1] or of 8-bit codes.

    A uint8 array holds codes and is kept as given, with no scan.  Any other
    array becomes float32 clamped to [0, 1]; a float32 array already in
    range is kept as given, not copied.
    """

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels)
        if p.dtype != np.uint8:
            p = np.asarray(p, dtype=np.float32)
        if p.ndim != 3 or p.shape[2] != 3 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("Image requires an (H, W, 3) array with H, W >= 1")
        if p.dtype == np.float32 and (p.min() < 0.0 or p.max() > 1.0):
            p = np.clip(p, 0.0, 1.0)
        self.pixels = p

    def decoded(self) -> np.ndarray:
        """The float32 values: the pixels themselves, or the decoded codes."""
        return decode_codes(self.pixels)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass
class ImagePyramid:
    """Guidance images ordered coarse to fine; dims double at every level."""

    levels: list[Image]

    def __post_init__(self):
        for lo, hi in zip(self.levels, self.levels[1:]):
            if hi.height != 2 * lo.height or hi.width != 2 * lo.width:
                raise ValueError("pyramid level dims must double at every step")


def _next_token(data: bytes, pos: int) -> tuple[bytes, int, int]:
    """Scan past whitespace/comments; returns (token, token_start, next_pos)."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PpmError("unexpected end of header", pos)
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != ord("#"):
        pos += 1
    return data[start:pos], start, pos


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, start, pos = _next_token(data, pos)
    if not token.isdigit():
        raise PpmError(f"invalid {what} {token!r}", start)
    return int(token), pos


def load_ppm(path) -> Image:
    """Read a binary P6 PPM with 8-bit channels; the image holds its codes,
    a view on the file's bytes."""
    data = Path(path).read_bytes()
    magic, start, pos = _next_token(data, 0)
    if magic != b"P6":
        raise PpmError(f"invalid magic {magic!r}, expected P6", start)
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval_start = pos
    maxval, pos = _header_int(data, pos, "maxval")
    if maxval != 255:
        raise PpmDepthError(f"unsupported maxval {maxval}, only 255 is readable", maxval_start)
    if width < 1 or height < 1:
        raise PpmError(f"degenerate dimensions {width}x{height}", start)
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PpmError("missing single whitespace after maxval", pos)
    pos += 1
    expected = width * height * 3
    if len(data) - pos < expected:
        raise PpmError(
            f"truncated pixel data: expected {expected} bytes, got {len(data) - pos}",
            len(data),
        )
    return Image(np.frombuffer(data, np.uint8, count=expected, offset=pos).reshape(height, width, 3))


def save_ppm(image: Image, path) -> None:
    """Write a canonical binary P6 PPM (8-bit, no comments); codes are
    written unchanged, values rounded to the nearest code.  NaN or inf
    values raise :class:`~hiwin.numerics.NumericalError` before the file is
    opened."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    codes = image.pixels
    if codes.dtype != np.uint8:
        codes = np.rint(np.clip(finite_f4(codes, "PPM image"), 0.0, 1.0) * 255.0).astype(np.uint8)
    Path(path).write_bytes(header + codes.tobytes())


def resize_image(image: Image, out_w: int, out_h: int) -> Image:
    return Image(bilinear_resize(image.pixels, out_h, out_w))


def snap_to_patch(side: int) -> int:
    """The multiple of the 14-pixel encoder patch nearest to ``side``,
    clamped to [56, 336]."""
    return int(np.clip(round(side / 14), 4, 24)) * 14


def resize_to_patch_multiple(image: Image) -> Image:
    """Resize so each side is :func:`snap_to_patch` of itself."""
    return resize_image(image, snap_to_patch(image.width), snap_to_patch(image.height))


def build_image_pyramid(image: Image, patch: int = 14, levels: int = 3) -> ImagePyramid:
    """Guidance pyramid: level l is the image resampled to (H*2^l/patch, W*2^l/patch).

    Every level comes from the original image, not from the previous level.
    """
    if image.height % patch or image.width % patch:
        raise ValueError(
            f"image dims {image.width}x{image.height} are not multiples of patch {patch}"
        )
    out = []
    for level in range(levels):
        h = image.height * 2**level // patch
        w = image.width * 2**level // patch
        out.append(resize_image(image, w, h))
    return ImagePyramid(out)


def gradient_image(size: int, rng: np.random.Generator) -> Image:
    """Linear two-color ramp at a random angle."""
    theta = rng.uniform(0, 2 * np.pi)
    yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij")
    d = np.cos(theta) * xx + np.sin(theta) * yy
    d = (d - d.min()) / max(d.max() - d.min(), 1e-9)
    c0 = rng.uniform(0, 1, 3)
    c1 = rng.uniform(0, 1, 3)
    return Image(c0 + (c1 - c0) * d[:, :, None])


def checkerboard_image(size: int, cell: int, rng: np.random.Generator) -> Image:
    """Alternating cells with guaranteed contrast between the two colors."""
    c0 = rng.uniform(0.0, 0.35, 3)
    c1 = rng.uniform(0.65, 1.0, 3)
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    parity = ((yy // cell) + (xx // cell)) % 2
    return Image(np.where(parity[:, :, None] == 0, c0, c1))


def rectangles_image(size: int, rng: np.random.Generator, count: int = 6) -> Image:
    """Axis-aligned filled rectangles over a flat background."""
    pixels = np.tile(rng.uniform(0, 1, 3).astype(np.float32), (size, size, 1))
    for _ in range(count):
        y0, x0 = rng.integers(0, size - 4, 2)
        h = int(rng.integers(4, max(5, size // 2)))
        w = int(rng.integers(4, max(5, size // 2)))
        pixels[y0 : y0 + h, x0 : x0 + w] = rng.uniform(0, 1, 3)
    return Image(pixels)


def strokes_image(size: int, rng: np.random.Generator, strokes: int = 10) -> Image:
    """Glyph-like dark polyline strokes on a light background."""
    pixels = np.full((size, size, 3), rng.uniform(0.75, 1.0), dtype=np.float32)
    for _ in range(strokes):
        color = rng.uniform(0.0, 0.3, 3)
        y, x = rng.uniform(2, size - 2, 2)
        for _ in range(int(rng.integers(1, 4))):
            y2, x2 = np.clip(np.array([y, x]) + rng.uniform(-size / 3, size / 3, 2), 1, size - 2)
            steps = int(max(abs(y2 - y), abs(x2 - x)) * 2) + 1
            ys = np.linspace(y, y2, steps).astype(int)
            xs = np.linspace(x, x2, steps).astype(int)
            pixels[ys, xs] = color
            pixels[np.minimum(ys + 1, size - 1), xs] = color
            y, x = y2, x2
    return Image(pixels)


def synth_corpus(seed: int, count: int, size: int) -> list[Image]:
    """Deterministic mixture of gradients, checkerboards, rectangles, strokes."""
    if count < 1:
        raise ValueError("synth_corpus requires count >= 1")
    children = np.random.SeedSequence(seed).spawn(count)
    images = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        kind = i % 4
        if kind == 0:
            images.append(gradient_image(size, rng))
        elif kind == 1:
            cell = int(rng.integers(4, max(5, size // 6)))
            images.append(checkerboard_image(size, cell, rng))
        elif kind == 2:
            images.append(rectangles_image(size, rng))
        else:
            images.append(strokes_image(size, rng))
    return images
