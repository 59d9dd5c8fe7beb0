"""Shared helpers for the package's little-endian binary file formats: one
:class:`Header` per format, which its writer and its reader both use, and
the payload rules that both ends apply."""

from __future__ import annotations

import math
import os
import struct
from collections import namedtuple
from typing import BinaryIO

import numpy as np

from .numerics import NumericalError

__all__ = [
    "DataFormatError",
    "Header",
    "all_finite",
    "check_room",
    "check_shape",
    "expect_end",
    "f4_bytes",
    "finite_f4",
    "nonzero_dims",
    "read_f4",
    "read_tensor",
    "tensor_record",
]

VERSION = 1  # the version of every header


class DataFormatError(ValueError):
    """A file does not match its declared binary format."""


def _left(f: BinaryIO) -> int:
    """Bytes between the file position and the end, counted by a seek."""
    here = f.tell()
    end = f.seek(0, os.SEEK_END)
    f.seek(here)
    return end - here


def check_room(f: BinaryIO, n: int, what: str) -> None:
    """Refuse ``n`` more bytes of ``what`` when fewer are left in the file,
    before anything of that size is allocated or read."""
    left = _left(f)
    if n > left:
        raise DataFormatError(f"truncated {what}: expected {n} bytes, got {left}")


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    """The next ``n`` bytes; a length the file cannot hold is refused first."""
    check_room(f, n, what)
    return f.read(n)


def expect_end(f: BinaryIO, fmt: str) -> None:
    """Refuse a ``fmt`` file with bytes left after its last section."""
    left = _left(f)
    if left:
        raise DataFormatError(f"{fmt} file has {left} trailing bytes")


class Header:
    """One binary header: ``magic``, u32 version 1, then the u32 ``fields``
    in order.  :meth:`pack` and :meth:`read` both follow this declaration,
    so a writer and its reader cannot disagree on the layout."""

    def __init__(self, magic: bytes, *fields: str):
        self.magic = magic
        self.format = magic.decode("ascii")
        self._row = namedtuple(f"{self.format}Header", fields)
        self._struct = struct.Struct(f"<{len(magic)}s{1 + len(fields)}I")

    def pack(self, **values: int) -> bytes:
        """The header's bytes; a value that is not a u32 integer is refused
        with ``ValueError`` naming the format and the field."""
        row = self._row(**values)
        for name, value in row._asdict().items():
            if not (isinstance(value, (int, np.integer)) and 0 <= value < 2**32):
                raise ValueError(f"{self.format} header field {name} = {value!r} is not a u32")
        return self._struct.pack(self.magic, VERSION, *row)

    def read(self, f: BinaryIO):
        """The fields, as a named tuple, after checking magic and version."""
        raw = _read_exact(f, self._struct.size, f"{self.format} header")
        magic, version, *values = self._struct.unpack(raw)
        if magic != self.magic:
            raise DataFormatError(f"bad magic: expected {self.magic!r}, got {magic!r}")
        if version != VERSION:
            raise DataFormatError(f"unsupported {self.format} version {version}")
        return self._row(*values)

    def follows(self, f: BinaryIO) -> bool:
        """Whether this header's magic is next in ``f``; nothing is consumed."""
        here = f.tell()
        found = f.read(len(self.magic)) == self.magic
        f.seek(here)
        return found


def all_finite(arr: np.ndarray) -> bool:
    """Whether ``arr`` holds no NaN or inf, checked without a mask: ``min``
    and ``max`` both propagate NaN, and an inf is one of them."""
    return not arr.size or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def finite_f4(arr, what: str) -> np.ndarray:
    """``arr`` as the little-endian float32 a file stores; NaN or inf there
    raises :class:`~hiwin.numerics.NumericalError` naming ``what``."""
    out = np.asarray(arr, dtype="<f4")
    if not all_finite(out):
        raise NumericalError(f"{what} holds non-finite values")
    return out


def nonzero_dims(what: str, error: type[Exception], **dims: int) -> None:
    """Refuse, with ``error`` naming it, the first of ``dims`` that is 0: no
    format here holds an empty map, so writers and readers share this rule."""
    for name, dim in dims.items():
        if dim == 0:
            raise error(f"{what} has 0 {name}")


def check_shape(what: str, shape: tuple[int, ...], implied: tuple[int, ...], error: type[Exception]) -> None:
    """Refuse, with ``error`` naming ``what``, an array whose shape is not
    the one its header implies."""
    if tuple(shape) != tuple(implied):
        raise error(f"{what} has shape {tuple(shape)}, header implies {tuple(implied)}")


def f4_bytes(arr, shape: tuple[int, ...], what: str) -> bytes:
    """``arr`` as the float32 payload of the ``shape`` a header implies,
    refused naming ``what`` when it has another shape or holds NaN or inf."""
    check_shape(what, np.shape(arr), shape, ValueError)
    return finite_f4(arr, what).tobytes()


def read_f4(f: BinaryIO, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The float32 payload of ``shape`` as a new writable array, refused
    naming ``what`` when the file is too short for it or it holds NaN or
    inf.  The room is checked first, then the bytes are read once, straight
    into the array."""
    check_room(f, 4 * math.prod(shape), f"{what} payload")
    out = np.empty(shape, dtype="<f4")
    got = f.readinto(out.reshape(-1).view(np.uint8))
    if got != out.nbytes:
        raise DataFormatError(f"truncated {what} payload: expected {out.nbytes} bytes, got {got}")
    return finite_f4(out, what)


def tensor_record(arr, shape: tuple[int, ...], what: str) -> bytes:
    """Tensor record: rank (u32), dims (u32 each), then :func:`f4_bytes`."""
    payload = f4_bytes(arr, shape, what)
    return struct.pack(f"<{1 + np.ndim(arr)}I", np.ndim(arr), *np.shape(arr)) + payload


def read_tensor(f: BinaryIO, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The tensor record of ``what``, refused unless it holds ``shape``."""
    (rank,) = struct.unpack("<I", _read_exact(f, 4, f"{what} rank"))
    dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, f"{what} dims"))
    check_shape(what, dims, shape, DataFormatError)
    return read_f4(f, shape, what)
