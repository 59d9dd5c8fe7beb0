"""Hierarchical window attention: grid-size selection, RoI sampling,
cross-scale key/value assembly, and the per-window cross-attention that
compresses a feature pyramid into an N x N token map.

Every level of the pyramid is cut into the same N x N float-coordinate
windows: window (i, j) of an H x W level is the box
``(j*W/N, i*H/N, (j+1)*W/N, (i+1)*H/N)``, so the windows sharing a 2D index
cover the same normalized image region at every level, and a level's windows
follow from its dims and N alone.  One pooling grid (r_w, r_h) per map is
chosen from the five :data:`PROPOSALS` by maximizing
``-|log(W/H) - log(r_w/r_h)|``, i.e. the grid whose aspect best matches the
map.  Each learnable query attends only to the RoI samples of its own
window, concatenated across levels, so a token depends on exactly its
window's content.

:func:`cross_attention` serves both attention projectors: :func:`compress`
passes one group of one query per window, the resampler baseline one group
of all N*N queries over every pyramid feature.  Where each key and value is
read by one query, as in every window, the key and value projections are
folded into the query and the weighted sum instead of being applied to each
sample; the resampler's shared keys and values are projected once.  A
window's keys are its values plus two additive terms, the level embedding
and zeta, the positional embedding of each sample point; :func:`assemble_kv`
hands them over as those three addends and never builds their sum, and the
folded query scores each addend on its own, so the level and position terms
cost one product over L levels and one over S sample points, not a pass
over a key array.

RoI sampling convention: each window box is clamped to map bounds and split
into r_h x r_w bins; one bilinear sample is taken per bin at the bin center,
with the sample coordinate clamped half a cell inside the box so the
interpolation support never crosses the window boundary (windows narrower
than one cell, where N exceeds a level's side, sample at their midpoint).  Coordinates are continuous with
half-pixel centers: cell (p, q) is centered at (q + 0.5, p + 0.5).  The
lookups use the package's one bilinear rule, :func:`hiwin.numerics.bilinear_taps`
applied by :func:`hiwin.numerics.lerp` along x, then y.  Bin centers are
separable, and each level's windows form a grid, so each level is sampled
over the sample columns and rows of all its windows, in blocks of whole
window rows written straight into the value array (:func:`assemble_kv`);
no single-box sampler is kept.  The scalar references
for this rule, the window boxes and the grid choice are in
:mod:`hiwin.selfcheck`, with the attention reference: its
``window-sampling`` check compares :func:`assemble_kv`'s value rows with
them, and its ``window-attention`` check compares :func:`compress` with
attention over written-out keys; ``selftest`` and the tests both use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .numerics import bilinear_taps, gather_taps, lerp, row_blocks, softmax
from .vdim import FeaturePyramid

__all__ = [
    "AttnParams",
    "HiwinConfig",
    "PROPOSALS",
    "TokenMap",
    "assemble_kv",
    "compress",
    "cross_attention",
    "position_embedding_2d",
    "select_grid",
]

# the pooling grids (r_w, r_h) that select_grid chooses from
PROPOSALS: tuple[tuple[int, int], ...] = ((3, 3), (2, 3), (3, 2), (2, 4), (4, 2))


@dataclass(frozen=True)
class HiwinConfig:
    """Projector configuration: query grid side N, attention heads, and
    feature channels."""

    grid_side: int = 12
    heads: int = 4
    channels: int = 64


def _spans(extent: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the n uniform float spans that tile ``[0, extent]``."""
    lo = np.arange(n, dtype=np.float64) * extent / n
    return lo, lo + extent / n


@dataclass
class TokenMap:
    """The N x N x C compressed query grid for one slice or overview."""

    data: np.ndarray
    origin: str = "overview"

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float32)
        if d.ndim != 3 or d.shape[0] != d.shape[1]:
            raise ValueError("TokenMap requires an (N, N, C) array")
        self.data = d

    @property
    def side(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass
class AttnParams:
    """Learnable queries, level embeddings (keys only), and the per-head
    query/key/value/output projections."""

    queries: np.ndarray  # (N, N, C)
    level_emb: np.ndarray  # (L, C)
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray

    @classmethod
    def init(cls, config: HiwinConfig, seed: int = 0, levels: int = 3) -> "AttnParams":
        n, c = config.grid_side, config.channels
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(c)
        weight = lambda: rng.uniform(-scale, scale, (c, c))
        return cls(
            queries=rng.uniform(-0.5, 0.5, (n, n, c)),
            level_emb=rng.uniform(-0.1, 0.1, (levels, c)),
            wq=weight(),
            bq=np.zeros(c),
            wk=weight(),
            bk=np.zeros(c),
            wv=weight(),
            bv=np.zeros(c),
            wo=weight(),
            bo=np.zeros(c),
        )


def select_grid(width: float, height: float) -> tuple[int, int]:
    """Pick the pooling grid of :data:`PROPOSALS` whose aspect ratio best
    matches the map.

    Score is ``-|log(width/height) - log(r_w/r_h)|``; ties keep the earliest
    proposal in list order, as ``max`` does.
    """
    if width <= 0 or height <= 0:
        raise ValueError("select_grid requires positive dims")
    target = np.log(width / height)
    return max(PROPOSALS, key=lambda g: -abs(target - np.log(g[0] / g[1])))


def _bin_centers(lo: np.ndarray, hi: np.ndarray, r: int, size: int) -> np.ndarray:
    """RoI sample coordinates (..., r) along one axis of ``size`` cells for
    spans ``[lo, hi]`` (...,): the spans are clamped to the axis and their
    r bin centers clamped half a cell inside them."""
    lo = np.clip(np.asarray(lo, dtype=np.float64), 0.0, size)[..., None]
    hi = np.clip(np.asarray(hi, dtype=np.float64), 0.0, size)[..., None]
    empty = np.flatnonzero(hi <= lo)
    if empty.size:
        k = empty[0]
        raise ValueError(
            f"zero-area box: span [{lo.flat[k]}, {hi.flat[k]}] of a {size}-cell axis is empty"
        )
    c = lo + (np.arange(r, dtype=np.float64) + 0.5) * (hi - lo) / r
    # keep the two-cell bilinear support inside [lo, hi]; sub-cell spans
    # collapse to the midpoint
    return np.where(hi - lo >= 1.0, np.clip(c, lo + 0.5, hi - 0.5), (lo + hi) / 2.0)


def position_embedding_2d(coords: np.ndarray, channels: int) -> np.ndarray:
    """Fixed sinusoidal embedding of normalized (x, y) coordinates.

    Quarter blocks: sin/cos over x, then sin/cos over y, of the coordinates
    times 16 at geometrically spaced frequencies.
    """
    if channels % 4:
        raise ValueError("position embedding needs channels divisible by 4")
    q = channels // 4
    freqs = 1.0 / (10000.0 ** (np.arange(q, dtype=np.float64) / max(q - 1, 1)))
    ax = coords[..., 0:1] * 16.0 * freqs
    ay = coords[..., 1:2] * 16.0 * freqs
    return np.concatenate([np.sin(ax), np.cos(ax), np.sin(ay), np.cos(ay)], axis=-1)


def _nominal_sample_coords(n: int, grid: tuple[int, int]) -> np.ndarray:
    """Normalized [0,1]^2 bin-center positions, (n^2, S, 2).

    These are the unclamped sample locations, identical at every level by
    construction, so the positional embedding of a sample point does not
    depend on which level it was drawn from.
    """
    rw, rh = grid
    ij = np.arange(n, dtype=np.float64)
    bx = (np.arange(rw, dtype=np.float64) + 0.5) / rw
    by = (np.arange(rh, dtype=np.float64) + 0.5) / rh
    x = (ij[None, :, None, None] + bx[None, None, None, :]) / n  # (1, n, 1, rw)
    y = (ij[:, None, None, None] + by[None, None, :, None]) / n  # (n, 1, rh, 1)
    pts = np.empty((n, n, rh, rw, 2), dtype=np.float64)
    pts[..., 0] = x
    pts[..., 1] = y
    return pts.reshape(n * n, rh * rw, 2)


@lru_cache(maxsize=8)
def _sample_embedding(n: int, grid: tuple[int, int], channels: int) -> np.ndarray:
    """zeta: the read-only (n^2, S, C) positional embedding of the nominal
    sample points, the same at every level.  At a 1x1 grid the one sample
    point of a window is its centre, where its query sits."""
    zeta = position_embedding_2d(_nominal_sample_coords(n, grid), channels)
    zeta.flags.writeable = False
    return zeta


def assemble_kv(
    isp: FeaturePyramid, n: int, grid: tuple[int, int], params: AttnParams
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Keys and values for the n x n windows of every level, rows in window
    order ``i * n + j``: the (n^2, levels*S, C) values, and the keys as the
    three addends whose broadcast sum they are, ``(values, level embedding,
    zeta)`` of shapes (n^2, levels, S, C), (1, levels, 1, C) and
    (n^2, 1, S, C).  The first addend is a view of the value array; their
    sum is never built (:func:`cross_attention` scores each addend).

    Window (i, j) of each level spans column ``j`` and row ``i`` of the
    uniform n-way split of that level's own width and height.  Values are
    the raw samples.  Each level is sampled in the
    :func:`~hiwin.numerics.row_blocks` of its window rows: a block gathers
    only the map rows its taps read, lerps them along x, then along y, and
    writes the result, through a transposed view, into its place in the
    value array.  Zeta is
    the positional embedding of each sample point's normalized coordinate;
    it depends only on (n, grid, C), so it is computed once per geometry.
    """
    rw, rh = grid
    c = isp.channels
    levels = len(isp.levels)
    emb = params.level_emb
    if emb.ndim != 2 or emb.shape[0] < levels or emb.shape[1] != c:
        raise ValueError(
            f"AttnParams.level_emb has shape {emb.shape}; a {levels}-level pyramid of {c} channels "
            f"needs {levels} or more rows of {c}"
        )
    v = np.empty((n, n, levels, rh, rw, c), dtype=np.float64)
    for lvl, fmap in enumerate(isp.levels):
        h, w = fmap.height, fmap.width
        cols = bilinear_taps(_bin_centers(*_spans(w, n), rw, w).reshape(-1), w)  # column j, bin v
        i0, i1, frac = bilinear_taps(_bin_centers(*_spans(h, n), rh, h), h)  # (row i, bin u)
        out = v[:, :, lvl].transpose(0, 2, 1, 3, 4)  # (i, u, j, v, C)
        for a, b in row_blocks(n, rh * n * rw * c):
            block_taps = (i0[a:b].ravel(), i1[a:b].ravel(), frac[a:b].ravel())
            rows, row_taps = gather_taps(fmap.data, block_taps, axis=0)
            out[a:b] = lerp(lerp(rows, cols, axis=1), row_taps, axis=0).reshape(b - a, rh, n, rw, c)
    v = v.reshape(n * n, levels, rh * rw, c)
    keys = (v, emb[None, :levels, None], _sample_embedding(n, tuple(grid), c)[:, None])
    return keys, v.reshape(n * n, -1, c)


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` over the rows of ``x`` flattened to 2-D, as one GEMM
    with the bias added in place."""
    out = x.reshape(-1, x.shape[-1]) @ w
    out += b
    return out


def _addend_scores(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``u`` (G, M, C) dotted with every row of a (G or 1, L1, ..., C) key
    addend, (G, M, L1, ...), in one product; an addend of one group takes
    every group's rows of ``u`` at once."""
    g, m, c = u.shape
    part = u.reshape(t.shape[0], -1, c) @ t.reshape(t.shape[0], -1, c).transpose(0, 2, 1)
    return part.reshape((g, m) + t.shape[1:-1])


def cross_attention(
    q: np.ndarray,
    k: np.ndarray | tuple[np.ndarray, ...],
    v: np.ndarray,
    params: AttnParams,
    heads: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head scaled dot-product attention with output projection, over
    groups: ``q`` is (G, Q, C) and ``v`` is (G, L, C), and the Q queries of
    group g attend over the L keys of group g.  ``k`` is the (G, L, C) keys,
    or a tuple of addends whose broadcast sum they are, each of shape
    (G or 1, L1, ..., C) with ``L1 * ... = L`` in the values' order, as
    :func:`assemble_kv` gives them.  Returns the (G, Q, C) outputs and the
    (G, heads, Q, L) attention weights.  A ``heads`` below 1, or one that
    does not divide C, raises ``ValueError``.

    The operand shapes choose the order of the products.  Projecting every
    key and value costs ``2 L C^2 + 2 Q L C`` multiply-adds per group (the
    addends are summed first).  Folding the key and value projections into
    the queries costs ``2 Q C^2 + heads Q C (L + K)``, where K counts the key
    rows scored per group: L for a key array, and for addends the sum of
    their L1 * ... (values, L levels and S points for :func:`assemble_kv`'s).
    Folding is done when that is less, i.e. when
    ``Q * (2 C + heads (L + K) - 2 L) < 2 L C``.  Folded, head h scores key k
    as ``(qh W_k,h^T) . k``, addend by addend: the ``qh . b_k,h`` term of
    ``qh . (k W_k,h + b_k,h)`` is the same for every key of a row, and the
    softmax cancels it.  The weights sum the raw values, the sum goes
    through ``W_v,h``, and ``b_v,h`` is added once, since each row of
    weights sums to 1.  :func:`compress` (one query per window) folds; the
    resampler baseline (N^2 queries over every pyramid feature) projects.
    Each product is one batched GEMM.
    """
    g, nq, c = q.shape
    if heads < 1:
        raise ValueError(f"heads must be a positive integer, got {heads}")
    if c % heads:
        raise ValueError(f"channels {c} not divisible by heads {heads}")
    dk, l = c // heads, v.shape[1]
    qh = _linear(q, params.wq, params.bq).reshape(g, nq, heads, dk).transpose(0, 2, 1, 3)
    addends = (k,) if isinstance(k, np.ndarray) else k
    key_rows = sum(math.prod(t.shape[1:-1]) for t in addends)
    fold = nq * (2 * c + heads * (l + key_rows) - 2 * l) < 2 * l * c
    if fold:
        u = (qh @ params.wk.reshape(c, heads, dk).transpose(1, 2, 0)).reshape(g, heads * nq, c)
        scores = reduce(np.add, (_addend_scores(u, t) for t in addends)).reshape(g, heads, nq, l)
    else:
        k = reduce(np.add, addends).reshape(g, l, c)
        kh = _linear(k, params.wk, params.bk).reshape(g, l, heads, dk).transpose(0, 2, 3, 1)
        vh = _linear(v, params.wv, params.bv).reshape(g, l, heads, dk).transpose(0, 2, 1, 3)
        scores = qh @ kh  # (G, heads, Q, L)
    scores /= np.sqrt(dk)
    att = softmax(scores, axis=-1)
    if fold:
        a = (att.reshape(g, heads * nq, l) @ v).reshape(g, heads, nq, c)
        ctx = a @ params.wv.reshape(c, heads, dk).transpose(1, 0, 2)
        ctx += params.bv.reshape(heads, 1, dk)
    else:
        ctx = att @ vh
    ctx = ctx.transpose(0, 2, 1, 3).reshape(g, nq, c)
    out = _linear(ctx, params.wo, params.bo).reshape(g, nq, c)
    return out, att


def compress(isp: FeaturePyramid, params: AttnParams, config: HiwinConfig) -> TokenMap:
    """Condense a feature pyramid into the N x N token map.

    One pooling grid is selected from the level-0 dims; each query token
    attends only to the cross-level RoI samples of its own window, the same
    normalized region of every level.  The queries carry the positional
    embedding of their window centres, which, like the keys' zeta, is
    computed once per geometry.  Queries that are
    not (N, N, C), or fewer level embeddings than the pyramid has levels,
    raise a ``ValueError`` naming the field.
    """
    n = config.grid_side
    base = isp.levels[0]
    if params.queries.shape != (n, n, base.channels):
        raise ValueError(
            f"AttnParams.queries has shape {params.queries.shape}, expected "
            f"({n}, {n}, {base.channels}) for grid side {n} and {base.channels} channels"
        )
    grid = select_grid(base.width, base.height)
    keys, v = assemble_kv(isp, n, grid, params)
    q = params.queries.reshape(n * n, -1) + _sample_embedding(n, (1, 1), base.channels)[:, 0]
    out, _ = cross_attention(q[:, None], keys, v, params, config.heads)
    return TokenMap(out.reshape(n, n, -1).astype(np.float32), origin=isp.origin)
