"""Checkpoint serialization for the trainable modules.

Layout (little-endian): the header ``VDIM`` (u32 version=1, d_proj, C), then
the tensors of :func:`hiwin.vdim.trainable_arrays`: for each upsampling
level the fields of ``LevelKernel`` in declaration order, then for each
downsampler level those of ``LevelDown``.  Each is stored as rank (u32),
dims (u32 each), float32 payload.  An attention section may follow: the
header ``HATT`` (u32 version=1, N, heads, C), then the fields of
``AttnParams`` in declaration order (queries, level embeddings, and the
q/k/v/output projection weights and biases) with the same tensor encoding.
No byte may follow.  Reordering a field of these dataclasses changes the
format.

The format holds exactly ``vdim.LEVELS`` (two) detail-injection levels, the
depth that ``VdimParams.init`` and ``DownsamplerParams.init`` build (three
pyramid levels for the level embeddings): the header does not record it, so
``save_checkpoint`` refuses any other depth before it writes anything, as
it does any header or tensor that the loader's own checks would refuse.  It
records no geometry either: the guided-upsampling radius 3 (a 7x7 window)
and the patch side 14 are fixed by the format, as the constants
``autodiff.RADIUS``, ``DownsamplerParams.patch`` and ``EncoderSpec.patch``.
The loader refuses a header with 0 channels, builds header-shaped
parameters with the classes' own ``init``, fills them in place, and raises
:class:`~hiwin.formats.DataFormatError` naming the first tensor whose shape
disagrees.  Without an attention section, N and heads are ``HiwinConfig``'s
defaults.  A tensor holding NaN or inf is refused by name with
:class:`~hiwin.numerics.NumericalError`, on save before anything is written
and on load.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import BinaryIO, Iterable

import numpy as np

from .formats import DataFormatError, Header, check_room, expect_end, nonzero_dims, read_tensor, tensor_record
from .vdim import LEVELS, DownsamplerParams, VdimParams, trainable_arrays
from .window_attn import AttnParams, HiwinConfig

__all__ = ["Checkpoint", "load_checkpoint", "save_checkpoint"]

VDIM = Header(b"VDIM", "d_proj", "channels")
HATT = Header(b"HATT", "N", "heads", "channels")
Tensors = Iterable[tuple[str, np.ndarray]]


@dataclass
class Checkpoint:
    vdim: VdimParams
    down: DownsamplerParams
    attn: AttnParams | None
    channels: int
    heads: int = HiwinConfig.heads
    grid_side: int = HiwinConfig.grid_side


def save_checkpoint(
    path,
    vdim: VdimParams,
    down: DownsamplerParams,
    attn: AttnParams | None = None,
    heads: int = HiwinConfig.heads,
) -> None:
    for part, depth in (("detail-injection", len(vdim.levels)), ("downsampler", len(down.levels))):
        if depth != LEVELS:
            raise ValueError(f"checkpoints hold {LEVELS} levels; the {part} model has {depth}")
    blob = [VDIM.pack(d_proj=vdim.d_proj, channels=down.channels)]
    nonzero_dims("the downsampler", ValueError, channels=down.channels)
    templates = _vdim_template(vdim.d_proj, down.channels)
    blob += _records(trainable_arrays(vdim, down), trainable_arrays(*templates))
    if attn is not None:
        grid_side, channels = attn.queries.shape[0], attn.queries.shape[-1]
        blob.append(HATT.pack(N=grid_side, heads=heads, channels=channels))
        _check_attn_header(grid_side, heads, channels, down.channels, ValueError)
        blob += _records(_attn_arrays(attn), _attn_arrays(_attn_template(grid_side, channels)))
    with open(path, "wb") as f:
        f.writelines(blob)


def _attn_arrays(attn: AttnParams) -> list[tuple[str, np.ndarray]]:
    """The attention tensors in checkpoint order: ``AttnParams``' fields."""
    return [(f.name, getattr(attn, f.name)) for f in fields(attn)]


def _vdim_template(d_proj: int, channels: int) -> tuple[VdimParams, DownsamplerParams]:
    """Parameters of the shapes that a VDIM header of d_proj and C fixes."""
    return VdimParams.init(d_proj), DownsamplerParams.init(channels)


def _attn_template(grid_side: int, channels: int) -> AttnParams:
    """Parameters of the shapes that an HATT header of N and C fixes."""
    return AttnParams.init(HiwinConfig(grid_side=grid_side, channels=channels), levels=LEVELS + 1)


def _check_attn_header(grid_side: int, heads: int, channels: int, vdim_channels: int, error) -> None:
    """Refuse with ``error`` an attention header that the model cannot use."""
    if channels != vdim_channels:
        raise error(f"attention channels {channels} != detail-injection channels {vdim_channels}")
    if grid_side == 0 or heads < 1 or channels % heads:
        raise error(f"bad attention header: N={grid_side}, heads={heads}, C={channels}")


def _records(tensors: Tensors, templates: Tensors) -> list[bytes]:
    """Each named tensor's record, refused unless it has its template's
    shape, which the header fixed, and finite values."""
    pairs = zip(tensors, templates)
    return [tensor_record(arr, t.shape, f"checkpoint tensor {name}") for (name, arr), (_, t) in pairs]


def _read_into(f: BinaryIO, tensors: Tensors) -> None:
    """Read each named tensor into its template array."""
    for name, target in tensors:
        target[...] = read_tensor(f, target.shape, f"checkpoint tensor {name}")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        d_proj, channels = VDIM.read(f)
        nonzero_dims("checkpoint header", DataFormatError, channels=channels)
        # the header's tensors hold at least these floats; refuse a header
        # the file cannot back before allocating them
        check_room(f, 4 * (d_proj + channels), "checkpoint VDIM tensors")
        vdim, down = _vdim_template(d_proj, channels)
        _read_into(f, trainable_arrays(vdim, down))

        attn, attn_header = None, {}
        if HATT.follows(f):
            grid_side, heads, attn_channels = HATT.read(f)
            _check_attn_header(grid_side, heads, attn_channels, channels, DataFormatError)
            attn_floats = grid_side * grid_side * channels + channels * channels
            check_room(f, 4 * attn_floats, "checkpoint HATT tensors")
            attn = _attn_template(grid_side, channels)
            _read_into(f, _attn_arrays(attn))
            attn_header = dict(heads=heads, grid_side=grid_side)
        expect_end(f, "checkpoint")
    return Checkpoint(vdim=vdim, down=down, attn=attn, channels=channels, **attn_header)
