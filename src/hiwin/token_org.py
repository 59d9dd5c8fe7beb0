"""Spatially consistent organization of per-slice token maps.

Slice token maps are stitched into one large 2D map according to the slice
grid, so tokens that are horizontally adjacent in the image stay adjacent in
the flattened sequence regardless of which slice they came from.  The
overview map is kept separate and emitted first.  No separator tokens are
used; the index map carries the structure instead.

TOKS file format (little-endian): magic ``TOKS``, u32 version=1, u32 rows,
u32 cols, u32 N, u32 C, then the overview (N*N*C float32) and the stitched
global map (N*rows * N*cols * C float32), both row-major channel-fastest.
NaN or inf is refused with ``NumericalError``, by :func:`save_tokens`
before the file is opened and by :func:`load_tokens`.  A rows, cols, N or
C of 0 is refused naming the field, by the writer with ``ValueError`` and
in a header with ``DataFormatError``.
The optional plain-text index map has one ``seq_idx row col origin`` line
per token.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .formats import DataFormatError, expect_magic, finite_f4, nonzero_dims, read_exact, read_u32, write_u32
from .slicing import SliceLayout
from .window_attn import TokenMap

__all__ = [
    "AssembledTokens",
    "TokenSequence",
    "assemble",
    "flatten",
    "load_tokens",
    "save_index",
    "save_tokens",
]

TOKS_MAGIC = b"TOKS"
TOKS_VERSION = 1


@dataclass
class AssembledTokens:
    """Stitched (N*rows, N*cols, C) slice tokens plus the overview map."""

    global_map: np.ndarray
    overview: np.ndarray
    rows: int
    cols: int

    @property
    def side(self) -> int:
        return self.overview.shape[0]

    @property
    def channels(self) -> int:
        return self.overview.shape[2]


@dataclass
class TokenSequence:
    """Flattened tokens plus, per sequence position, (origin, row, col)."""

    tokens: np.ndarray  # (T, C)
    entries: list[tuple[str, int, int]]


def assemble(
    slice_maps: Sequence[TokenMap], layout: SliceLayout, overview: TokenMap
) -> AssembledTokens:
    """Place slice (i, j)'s token map at block (i, j) of the global map."""
    if len(slice_maps) != layout.count:
        raise ValueError(
            f"got {len(slice_maps)} slice maps for a {layout.cols}x{layout.rows} layout"
        )
    n = overview.side
    c = overview.channels
    for m in slice_maps:
        if m.side != n or m.channels != c:
            raise ValueError("all token maps must share the overview's N and C")
    global_map = np.zeros((n * layout.rows, n * layout.cols, c), dtype=np.float32)
    for i in range(layout.rows):
        for j in range(layout.cols):
            block = slice_maps[i * layout.cols + j].data
            global_map[i * n : (i + 1) * n, j * n : (j + 1) * n] = block
    return AssembledTokens(
        global_map=global_map, overview=overview.data, rows=layout.rows, cols=layout.cols
    )


def flatten(assembled: AssembledTokens) -> TokenSequence:
    """Overview tokens first (row-major), then the global map row-major
    across its full stitched width."""
    n = assembled.side
    c = assembled.channels
    gh, gw, _ = assembled.global_map.shape
    tokens = np.concatenate(
        [assembled.overview.reshape(-1, c), assembled.global_map.reshape(-1, c)]
    )
    entries = [("overview", r, col) for r in range(n) for col in range(n)]
    entries += [("global", r, col) for r in range(gh) for col in range(gw)]
    return TokenSequence(tokens=tokens, entries=entries)


def save_tokens(assembled: AssembledTokens, path) -> None:
    n, c, rows, cols = assembled.side, assembled.channels, assembled.rows, assembled.cols
    nonzero_dims("TOKS tokens", ValueError, rows=rows, cols=cols, N=n, C=c)
    if assembled.global_map.shape != (n * rows, n * cols, c):
        raise ValueError(
            f"TOKS global map has shape {assembled.global_map.shape}, "
            f"header implies {(n * rows, n * cols, c)}"
        )
    overview = finite_f4(assembled.overview, "TOKS overview")
    global_map = finite_f4(assembled.global_map, "TOKS global map")
    with open(path, "wb") as f:
        f.write(TOKS_MAGIC)
        write_u32(f, TOKS_VERSION)
        write_u32(f, assembled.rows)
        write_u32(f, assembled.cols)
        write_u32(f, assembled.side)
        write_u32(f, assembled.channels)
        f.write(overview.tobytes())
        f.write(global_map.tobytes())


def load_tokens(path) -> AssembledTokens:
    with open(path, "rb") as f:
        expect_magic(f, TOKS_MAGIC)
        version = read_u32(f, "version")
        if version != TOKS_VERSION:
            raise DataFormatError(f"unsupported TOKS version {version}")
        rows = read_u32(f, "rows")
        cols = read_u32(f, "cols")
        n = read_u32(f, "N")
        c = read_u32(f, "C")
        nonzero_dims("TOKS header", DataFormatError, rows=rows, cols=cols, N=n, C=c)
        overview = read_exact(f, n * n * c * 4, "overview payload")
        global_map = read_exact(f, n * rows * n * cols * c * 4, "global payload")
    overview = finite_f4(np.frombuffer(overview, dtype="<f4"), "TOKS overview")
    global_map = finite_f4(np.frombuffer(global_map, dtype="<f4"), "TOKS global map")
    return AssembledTokens(
        global_map=global_map.reshape(n * rows, n * cols, c).copy(),
        overview=overview.reshape(n, n, c).copy(),
        rows=rows,
        cols=cols,
    )


def save_index(sequence: TokenSequence, path) -> None:
    lines = [
        f"{seq} {row} {col} {origin}"
        for seq, (origin, row, col) in enumerate(sequence.entries)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
