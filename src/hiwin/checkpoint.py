"""Checkpoint serialization for the trainable modules.

Layout (little-endian): magic ``VDIM``, u32 version=1, u32 d_proj, u32 C,
then the tensors of :func:`hiwin.vdim.trainable_arrays`: for each
upsampling level the fields of ``LevelKernel`` in declaration order, then
for each downsampler level those of ``LevelDown``.  Each is stored as rank
(u32), dims (u32 each), float32 payload.  An attention section may follow
under the tag ``HATT``: u32 version=1, u32 N, u32 heads, u32 C, then the
fields of ``AttnParams`` in declaration order (queries, level embeddings,
and the q/k/v/output projection weights and biases) with the same tensor
encoding.  Reordering a field of these dataclasses changes the format.

The format holds exactly two detail-injection levels (three pyramid levels
for the level embeddings): the header does not record the depth, so
``save_checkpoint`` refuses any other depth before it writes anything, as
it does 0 channels and any attention header or tensor shape that the
loader's own checks would refuse.  It records no geometry either: the
guided-upsampling radius 3 (a 7x7 window) and the patch side 14 are fixed
by the format, as the constants ``autodiff.RADIUS``,
``DownsamplerParams.patch`` and ``EncoderSpec.patch``.  The loader refuses a header with 0 channels, builds
header-shaped parameters with the classes' own ``init``, fills them in
place, and raises :class:`~hiwin.formats.DataFormatError` naming the first
tensor whose shape disagrees.  A checkpoint without an attention section
implies N = 12.  A tensor holding NaN or inf is refused by name with
:class:`~hiwin.numerics.NumericalError`, on save before anything is written
and on load.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import BinaryIO, Iterable

import numpy as np

from .formats import DataFormatError, check_room, finite_f4, read_array, read_u32, write_array, write_u32
from .vdim import DownsamplerParams, VdimParams, trainable_arrays
from .window_attn import AttnParams, HiwinConfig

__all__ = ["Checkpoint", "load_checkpoint", "save_checkpoint"]

VDIM_MAGIC = b"VDIM"
HATT_MAGIC = b"HATT"
VERSION = 1
LEVELS = 2  # detail-injection levels of every checkpoint


@dataclass
class Checkpoint:
    vdim: VdimParams
    down: DownsamplerParams
    attn: AttnParams | None
    channels: int
    heads: int = 4
    grid_side: int = 12


def save_checkpoint(
    path,
    vdim: VdimParams,
    down: DownsamplerParams,
    attn: AttnParams | None = None,
    heads: int = 4,
) -> None:
    for part, depth in (("detail-injection", len(vdim.levels)), ("downsampler", len(down.levels))):
        if depth != LEVELS:
            raise ValueError(f"checkpoints hold {LEVELS} levels; the {part} model has {depth}")
    if down.channels < 1:
        raise ValueError(f"checkpoints need at least 1 channel; the downsampler has {down.channels}")
    vdim_fields = trainable_arrays(vdim, down)
    templates = trainable_arrays(*_vdim_template(vdim.d_proj, down.channels))
    attn_fields = []
    if attn is not None:
        grid_side, channels = attn.queries.shape[0], attn.queries.shape[-1]
        _check_attn_header(grid_side, heads, channels, down.channels, ValueError)
        attn_fields = _attn_arrays(attn)
        templates += _attn_arrays(_attn_template(grid_side, channels))
    for (name, arr), (_, target) in zip(vdim_fields + attn_fields, templates):
        _check_shape(name, np.shape(arr), target, ValueError)
        finite_f4(arr, f"checkpoint tensor {name}")
    with open(path, "wb") as f:
        f.write(VDIM_MAGIC)
        write_u32(f, VERSION)
        write_u32(f, vdim.d_proj)
        write_u32(f, down.channels)
        for _, arr in vdim_fields:
            write_array(f, arr)
        if attn is not None:
            f.write(HATT_MAGIC)
            write_u32(f, VERSION)
            write_u32(f, attn.queries.shape[0])
            write_u32(f, heads)
            write_u32(f, attn.queries.shape[2])
            for _, arr in attn_fields:
                write_array(f, arr)


def _attn_arrays(attn: AttnParams) -> list[tuple[str, np.ndarray]]:
    """The attention tensors in checkpoint order: ``AttnParams``' fields."""
    return [(f.name, getattr(attn, f.name)) for f in fields(attn)]


def _vdim_template(d_proj: int, channels: int) -> tuple[VdimParams, DownsamplerParams]:
    """Parameters of the shapes that a VDIM header of d_proj and C fixes."""
    return VdimParams.init(d_proj, levels=LEVELS), DownsamplerParams.init(channels, levels=LEVELS)


def _attn_template(grid_side: int, channels: int) -> AttnParams:
    """Parameters of the shapes that an HATT header of N and C fixes."""
    return AttnParams.init(HiwinConfig(grid_side=grid_side, channels=channels), levels=LEVELS + 1)


def _check_attn_header(grid_side: int, heads: int, channels: int, vdim_channels: int, error) -> None:
    """Refuse with ``error`` an attention header that the model cannot use."""
    if channels != vdim_channels:
        raise error(f"attention channels {channels} != detail-injection channels {vdim_channels}")
    if grid_side == 0 or heads < 1 or channels % heads:
        raise error(f"bad attention header: N={grid_side}, heads={heads}, C={channels}")


def _check_shape(name: str, shape: tuple[int, ...], target: np.ndarray, error) -> None:
    """Refuse with ``error`` a tensor not of its template's shape, which the
    header fixed."""
    if shape != target.shape:
        raise error(f"checkpoint tensor {name} has shape {shape}, header implies {target.shape}")


def _read_into(f: BinaryIO, tensors: Iterable[tuple[str, np.ndarray]]) -> None:
    """Read each named tensor into its template array."""
    for name, target in tensors:
        arr = read_array(f, name)
        _check_shape(name, arr.shape, target, DataFormatError)
        target[...] = finite_f4(arr, f"checkpoint tensor {name}")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != VDIM_MAGIC:
            raise DataFormatError(f"bad checkpoint magic {magic!r}")
        version = read_u32(f, "version")
        if version != VERSION:
            raise DataFormatError(f"unsupported checkpoint version {version}")
        d_proj = read_u32(f, "d_proj")
        channels = read_u32(f, "channels")
        if channels == 0:
            raise DataFormatError("checkpoint header has 0 channels")
        # the header's tensors hold at least these floats; refuse a header
        # the file cannot back before allocating them
        check_room(f, 4 * (d_proj + channels), "checkpoint VDIM tensors")
        vdim, down = _vdim_template(d_proj, channels)
        _read_into(f, trainable_arrays(vdim, down))

        attn = None
        heads, grid_side = 4, 12
        tag = f.read(4)
        if tag == HATT_MAGIC:
            aversion = read_u32(f, "attention version")
            if aversion != VERSION:
                raise DataFormatError(f"unsupported attention section version {aversion}")
            grid_side = read_u32(f, "N")
            heads = read_u32(f, "heads")
            attn_channels = read_u32(f, "attention channels")
            _check_attn_header(grid_side, heads, attn_channels, channels, DataFormatError)
            attn_floats = grid_side * grid_side * channels + channels * channels
            check_room(f, 4 * attn_floats, "checkpoint HATT tensors")
            attn = _attn_template(grid_side, channels)
            _read_into(f, _attn_arrays(attn))
        elif tag != b"":
            raise DataFormatError(f"unexpected trailing section {tag!r}")
    return Checkpoint(
        vdim=vdim, down=down, attn=attn, channels=channels, heads=heads, grid_side=grid_side
    )
