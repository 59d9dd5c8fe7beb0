"""Shared helpers for the package's little-endian binary file formats."""

from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO

import numpy as np

from .numerics import NumericalError

__all__ = [
    "DataFormatError",
    "check_room",
    "expect_magic",
    "finite_f4",
    "nonzero_dims",
    "read_array",
    "read_exact",
    "read_u32",
    "write_array",
    "write_u32",
]


class DataFormatError(ValueError):
    """A file does not match its declared binary format."""


def check_room(f: BinaryIO, n: int, what: str) -> None:
    """Refuse ``n`` more bytes of ``what`` when fewer are left in the file,
    before anything of that size is allocated or read."""
    here = f.tell()
    left = f.seek(0, os.SEEK_END) - here
    f.seek(here)
    if n > left:
        raise DataFormatError(f"truncated {what}: expected {n} bytes, got {left}")


def read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    """The next ``n`` bytes; a length the file cannot hold is refused first."""
    check_room(f, n, what)
    return f.read(n)


def write_u32(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<I", value))


def read_u32(f: BinaryIO, what: str = "field") -> int:
    return struct.unpack("<I", read_exact(f, 4, what))[0]


def expect_magic(f: BinaryIO, magic: bytes) -> None:
    got = read_exact(f, len(magic), "magic")
    if got != magic:
        raise DataFormatError(f"bad magic: expected {magic!r}, got {got!r}")


def finite_f4(arr, what: str) -> np.ndarray:
    """``arr`` as the little-endian float32 a file stores; NaN or inf there
    raises :class:`~hiwin.numerics.NumericalError` naming ``what``."""
    out = np.asarray(arr, dtype="<f4")
    if not np.isfinite(out).all():
        raise NumericalError(f"{what} holds non-finite values")
    return out


def nonzero_dims(what: str, error: type[Exception], **dims: int) -> None:
    """Refuse, with ``error`` naming it, the first of ``dims`` that is 0: no
    format here holds an empty map, so writers and readers share this rule."""
    for name, dim in dims.items():
        if dim == 0:
            raise error(f"{what} has 0 {name}")


def write_array(f: BinaryIO, arr: np.ndarray) -> None:
    """Tensor record: rank (u32), dims (u32 each), float32 payload."""
    arr = np.asarray(arr)
    write_u32(f, arr.ndim)
    for d in arr.shape:
        write_u32(f, d)
    f.write(arr.astype("<f4").tobytes())


def read_array(f: BinaryIO, what: str = "tensor") -> np.ndarray:
    rank = read_u32(f, f"{what} rank")
    dims = tuple(read_u32(f, f"{what} dim") for _ in range(rank))
    count = math.prod(dims)
    payload = read_exact(f, count * 4, f"{what} payload")
    return np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
