"""Spatially consistent organization of per-slice token maps.

Slice token maps are stitched into one large 2D map according to the slice
grid, so tokens that are horizontally adjacent in the image stay adjacent in
the flattened sequence regardless of which slice they came from.  The
overview map is kept separate and emitted first.  No separator tokens are
used; the index map carries the structure instead.

TOKS file format (little-endian), the header ``TOKS``: magic ``TOKS``, u32
version=1, u32 rows, u32 cols, u32 N, u32 C; then the overview (N*N*C
float32) and the stitched global map (N*rows * N*cols * C float32), both
row-major channel-fastest, and nothing more.  NaN or inf is refused with
``NumericalError``.  :func:`save_tokens` refuses with ``ValueError``, before
it opens the file, a field that is 0 or not a u32 and an array not of the
shape the header implies, naming it; :func:`load_tokens` refuses with
``DataFormatError`` a field of 0 and any byte after the global map.
The optional plain-text index map has one ``seq_idx row col origin`` line
per token.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .formats import DataFormatError, Header, expect_end, f4_bytes, nonzero_dims, read_f4
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

TOKS = Header(b"TOKS", "rows", "cols", "N", "C")


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


def _payload_shapes(rows: int, cols: int, N: int, C: int) -> dict[str, tuple[int, int, int]]:
    """The overview and global-map shapes that a TOKS header implies."""
    return {"overview": (N, N, C), "global map": (N * rows, N * cols, C)}


def save_tokens(assembled: AssembledTokens, path) -> None:
    dims = dict(rows=assembled.rows, cols=assembled.cols, N=assembled.side, C=assembled.channels)
    header = TOKS.pack(**dims)
    nonzero_dims("TOKS tokens", ValueError, **dims)
    shapes = _payload_shapes(**dims).items()
    arrays = (assembled.overview, assembled.global_map)
    payloads = [f4_bytes(arr, shape, f"TOKS {name}") for (name, shape), arr in zip(shapes, arrays)]
    with open(path, "wb") as f:
        f.write(header)
        f.writelines(payloads)


def load_tokens(path) -> AssembledTokens:
    with open(path, "rb") as f:
        header = TOKS.read(f)
        nonzero_dims("TOKS header", DataFormatError, **header._asdict())
        shapes = _payload_shapes(*header).items()
        overview, global_map = (read_f4(f, shape, f"TOKS {name}") for name, shape in shapes)
        expect_end(f, "TOKS")
    return AssembledTokens(global_map=global_map, overview=overview, rows=header.rows, cols=header.cols)


def save_index(sequence: TokenSequence, path) -> None:
    lines = [
        f"{seq} {row} {col} {origin}"
        for seq, (origin, row, col) in enumerate(sequence.entries)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
