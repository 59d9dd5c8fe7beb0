"""Image loading/saving, the synthetic training corpus, and image pyramids.

An image holds either float32 values in [0, 1] or 8-bit codes (uint8).
:func:`load_ppm` reads a file's header only: its image's codes are a
:class:`PpmCodes`, which reads rows from the file when a resize asks for
them, so no whole-file buffer is kept.  :func:`save_ppm` writes codes
unchanged.  Codes become values by one rule, ``float32(code) / 255``
(:func:`hiwin.numerics.decode_codes`): resizes read only the rows their
taps read, take each column tap's codes from them by one flat gather, and
decode only the codes they take, and :meth:`Image.decoded` decodes a whole
image for arithmetic that wants values (the encoder and the guided
upsampler take their pixels through it).  The only required on-disk format is
binary PPM (P6, maxval 255), chosen because round trips are bit-exact and
need no dependencies.  The image pyramid resamples every level from the
original image rather than cascading, which avoids compounding interpolation
blur across levels.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .formats import DataFormatError, finite_f4
from .numerics import bilinear_resize, decode_codes

__all__ = [
    "Image",
    "ImagePyramid",
    "PpmCodes",
    "PpmDepthError",
    "PpmError",
    "build_image_pyramid",
    "checkerboard_image",
    "gradient_image",
    "load_ppm",
    "rectangles_image",
    "resize_image",
    "save_ppm",
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

    A uint8 array, or a loaded file's :class:`PpmCodes`, holds codes and is
    kept as given, with no scan or read.  Any other array becomes float32
    clamped to [0, 1]; a float32 array already in range is kept as given,
    not copied.
    """

    pixels: np.ndarray | PpmCodes

    def __post_init__(self):
        p = self.pixels
        if getattr(p, "dtype", None) != np.uint8:
            p = np.asarray(p, dtype=np.float32)
        if p.ndim != 3 or p.shape[2] != 3 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("Image requires an (H, W, 3) array with H, W >= 1")
        if p.dtype == np.float32 and (p.min() < 0.0 or p.max() > 1.0):
            p = np.clip(p, 0.0, 1.0)
        self.pixels = p

    def decoded(self) -> np.ndarray:
        """The float32 values: the pixels themselves, or the decoded codes."""
        return decode_codes(np.asarray(self.pixels))

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


def _signature(st: os.stat_result) -> tuple[int, int, int]:
    return st.st_ino, st.st_size, st.st_mtime_ns


@dataclass(frozen=True)
class PpmCodes:
    """The (H, W, 3) 8-bit codes of a PPM file's payload, read on demand.

    It offers the part of an array that :class:`Image` and
    :func:`~hiwin.numerics.bilinear_resize` use: ``shape``, ``ndim`` and
    ``dtype``; a basic slice of rows and columns, a crop that reads nothing;
    ``read_rows(rows)``, which reads those rows of the crop into rows of the
    file's width and gives the crop's first column in them, so that a
    resize's flat column taps address them with no copy of the crop; and
    ``np.asarray``, which reads them all.  A read opens the file and reads
    each run of consecutive rows in one ``os.preadv``, from the run's first
    crop cell to its last (no shared file position, so threads may read one
    image at once).  A file whose inode, size or ``mtime_ns`` differ from
    those at load, or that reads short, raises :class:`DataFormatError`
    naming it.
    """

    path: str
    offset: int  # of the payload in the file
    width: int  # of the file's rows
    signature: tuple[int, int, int]  # of the file at load (:func:`_signature`)
    rows: range
    cols: range

    dtype = np.dtype(np.uint8)
    ndim = 3

    @property
    def shape(self) -> tuple[int, int, int]:
        return len(self.rows), len(self.cols), 3

    def __getitem__(self, key) -> PpmCodes:
        keys = key if isinstance(key, tuple) else (key,)
        if not 1 <= len(keys) <= 2 or not all(isinstance(k, slice) for k in keys):
            raise IndexError("PPM codes are cropped by slices of rows and columns only")
        rows = self.rows[keys[0]]
        cols = self.cols[keys[1]] if len(keys) == 2 else self.cols
        if rows.step != 1 or cols.step != 1:
            raise IndexError("PPM codes are cropped with a step of 1 only")
        return replace(self, rows=rows, cols=cols)

    def read_rows(self, indices) -> tuple[np.ndarray, int]:
        """The rows ``indices`` (1-D, or a slice) of the crop, read from the
        file at the file's width, and the crop's first column in them."""
        rows = np.arange(self.rows.start, self.rows.stop)[indices]
        out = np.empty((rows.size, self.width, 3), dtype=np.uint8)
        flat = out.reshape(-1)
        breaks = ((rows[1:] - rows[:-1] != 1).nonzero()[0] + 1).tolist()  # where later runs start
        starts = [0, *breaks] if rows.size else []
        first = rows.tolist()
        stride, x0, x1 = 3 * self.width, 3 * self.cols.start, 3 * self.cols.stop
        want = got = 0
        fd = os.open(self.path, os.O_RDONLY)
        try:
            for a, b in zip(starts, [*breaks, rows.size]):
                # the run's bytes from its first crop cell to its last
                span = flat[a * stride + x0 : (b - 1) * stride + x1]
                want += span.size
                got += _pread_into(fd, span, self.offset + first[a] * stride + x0)
            st = os.fstat(fd)
        finally:
            os.close(fd)
        if got != want or _signature(st) != self.signature:
            raise DataFormatError(f"{self.path}: the PPM file changed after it was loaded")
        return out, self.cols.start

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        rows, first = self.read_rows(slice(None))
        codes = rows[:, first : first + len(self.cols)]
        return codes if dtype is None else codes.astype(dtype, copy=False)


def _pread_into(fd: int, buf: np.ndarray, offset: int) -> int:
    """Fill the 1-D uint8 ``buf`` from byte ``offset`` of ``fd``; the bytes
    read, fewer only at the end of the file."""
    done = 0
    while done < buf.size:
        n = os.preadv(fd, [buf[done:]], offset + done)
        if n == 0:
            break
        done += n
    return done


class _Head:
    """The start of an open file, read in doubling chunks as the header
    parse asks for bytes."""

    def __init__(self, f):
        self.f = f
        self.data = b""
        self.eof = False

    def has(self, pos: int) -> bool:
        while pos >= len(self.data) and not self.eof:
            chunk = self.f.read(max(4096, len(self.data)))
            self.eof = not chunk
            self.data += chunk
        return pos < len(self.data)


def _next_token(head: _Head, pos: int) -> tuple[bytes, int, int]:
    """Scan past whitespace/comments; returns (token, token_start, next_pos)."""
    while head.has(pos):
        c = head.data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            while head.has(pos) and head.data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if not head.has(pos):
        raise PpmError("unexpected end of header", pos)
    start = pos
    while head.has(pos) and head.data[pos] not in _WHITESPACE and head.data[pos] != ord("#"):
        pos += 1
    return head.data[start:pos], start, pos


def _header_int(head: _Head, pos: int, what: str) -> tuple[int, int]:
    token, start, pos = _next_token(head, pos)
    if not token.isdigit():
        raise PpmError(f"invalid {what} {token!r}", start)
    return int(token), pos


def load_ppm(path) -> Image:
    """Open a binary P6 PPM with 8-bit channels.  The header, of any length,
    is parsed and the file checked to hold the whole payload; the image's
    codes are a :class:`PpmCodes` that reads them from the file on demand."""
    path = os.fspath(path)
    with open(path, "rb") as f:
        head = _Head(f)
        magic, start, pos = _next_token(head, 0)
        if magic != b"P6":
            raise PpmError(f"invalid magic {magic!r}, expected P6", start)
        width, pos = _header_int(head, pos, "width")
        height, pos = _header_int(head, pos, "height")
        maxval_start = pos
        maxval, pos = _header_int(head, pos, "maxval")
        if maxval != 255:
            raise PpmDepthError(f"unsupported maxval {maxval}, only 255 is readable", maxval_start)
        if width < 1 or height < 1:
            raise PpmError(f"degenerate dimensions {width}x{height}", start)
        if not head.has(pos) or head.data[pos] not in _WHITESPACE:
            raise PpmError("missing single whitespace after maxval", pos)
        pos += 1
        st = os.fstat(f.fileno())
    expected = width * height * 3
    if st.st_size - pos < expected:
        raise PpmError(
            f"truncated pixel data: expected {expected} bytes, got {st.st_size - pos}",
            st.st_size,
        )
    return Image(PpmCodes(path, pos, width, _signature(st), range(height), range(width)))


def save_ppm(image: Image, path) -> None:
    """Write a canonical binary P6 PPM (8-bit, no comments): the header, then
    the codes' own buffer.  Codes are written unchanged, values rounded to
    the nearest code.  NaN or inf values raise
    :class:`~hiwin.numerics.NumericalError` before the file is opened."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    codes = image.pixels
    if codes.dtype != np.uint8:
        codes = np.rint(np.clip(finite_f4(codes, "PPM image"), 0.0, 1.0) * 255.0).astype(np.uint8)
    codes = np.ascontiguousarray(codes)
    with open(path, "wb") as f:
        f.write(header)
        f.write(codes)


def resize_image(image: Image, out_w: int, out_h: int) -> Image:
    return Image(bilinear_resize(image.pixels, out_h, out_w))


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
