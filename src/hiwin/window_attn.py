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
and zeta, the positional embedding of each sample point.  Zeta is
separable: its x half depends only on a sample's column and its y half only
on its row, so it is kept as two small per-axis tables per geometry and
written out for one block of windows at a time.  :func:`assemble_kv` hands
the keys over as those three addends and never builds their sum, and the
folded query scores each addend on its own, so the level and position terms
cost one product over L levels and one over S sample points, not a pass
over a key array.  :func:`compress` samples and attends its windows a block
of window rows at a time, so no value array of every window is built; the
products that span every window (the query projections and the level
embedding's scores) are taken once, and the tokens' bits do not depend on
the blocks.

RoI sampling convention: each window box is clamped to map bounds and split
into r_h x r_w bins; one bilinear sample is taken per bin at the bin center,
with the sample coordinate clamped half a cell inside the box so the
interpolation support never crosses the window boundary (windows narrower
than one cell, where N exceeds a level's side, sample at their midpoint).  Coordinates are continuous with
half-pixel centers: cell (p, q) is centered at (q + 0.5, p + 0.5).  The
lookups use the package's one bilinear rule, :func:`hiwin.numerics.bilinear_taps`
applied by :func:`hiwin.numerics.lerp` along x, then y.  Bin centers are
separable, and each level's windows form a grid, so each level is sampled
over the sample columns and rows of all the windows asked for, in one
gather written straight into the value array (:func:`assemble_kv`); no
single-box sampler is kept.  The scalar references for this rule, the
window boxes, zeta and the grid choice are in :mod:`hiwin.selfcheck`, with
the attention reference: its ``window-sampling`` check compares
:func:`assemble_kv`'s value rows with them and its zeta, bit for bit, with
the written-out zeta, and its ``window-attention`` check compares
:func:`compress` with attention over written-out keys; ``selftest`` and the
tests both use them.
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


@lru_cache(maxsize=8)
def _axis_embeddings(n: int, grid: tuple[int, int], channels: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only halves of zeta: the x half of
    :func:`position_embedding_2d` at the normalized bin-centre columns of
    the n windows, (n * r_w, C/2), and its y half at their rows, (n * r_h,
    C/2).  The nominal sample points, the same at every level, are these
    columns crossed with these rows."""
    half = channels // 2
    tables = []
    for r, part in zip(grid, (slice(None, half), slice(half, None))):
        centres = (np.arange(n, dtype=np.float64)[:, None] + (np.arange(r, dtype=np.float64) + 0.5) / r) / n
        table = position_embedding_2d(np.repeat(centres.reshape(-1, 1), 2, axis=1), channels)[:, part].copy()
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _zeta(n: int, grid: tuple[int, int], channels: int, first: int, last: int) -> np.ndarray:
    """zeta of the windows of window rows ``first .. last - 1``, (W, 1, S,
    C): the two tables of :func:`_axis_embeddings` broadcast against each
    other, each by one assignment.  At a 1x1 grid each window's one sample
    point is its centre, where its query sits."""
    rw, rh = grid
    x_table, y_table = _axis_embeddings(n, grid, channels)
    zeta = np.empty((last - first, n, rh, rw, channels), dtype=np.float64)
    zeta[..., : channels // 2] = x_table.reshape(n, 1, rw, -1)  # column j, bin v
    zeta[..., channels // 2 :] = y_table.reshape(n, rh, 1, -1)[first:last, None]  # row i, bin u
    return zeta.reshape(-1, 1, rh * rw, channels)


@lru_cache(maxsize=32)
def _window_taps(size: int, n: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only :func:`~hiwin.numerics.bilinear_taps` ``(i0, i1, frac)``,
    each (n, r), of the r bin centres of each of the n uniform windows
    along an axis of ``size`` cells.  They depend only on (size, n, r), so
    they are computed once per geometry, as zeta's tables are."""
    taps = bilinear_taps(_bin_centers(*_spans(size, n), r, size), size)
    for t in taps:
        t.flags.writeable = False
    return taps


def assemble_kv(
    isp: FeaturePyramid,
    n: int,
    grid: tuple[int, int],
    params: AttnParams,
    rows: tuple[int, int] | None = None,
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Keys and values for the n x n windows of every level, or, given
    ``rows = (a, b)``, for those of window rows ``a .. b - 1`` only, rows in
    window order ``i * n + j``: the (W, levels*S, C) values of those W
    windows, and the keys as the three addends whose broadcast sum they
    are, ``(values, level embedding, zeta)`` of shapes (W, levels, S, C),
    (1, levels, 1, C) and (W, 1, S, C).  The first addend is a view of the
    value array; their sum is never built (:func:`cross_attention` scores
    each addend).

    Window (i, j) of each level spans column ``j`` and row ``i`` of the
    uniform n-way split of that level's own width and height.  Values are
    the raw samples.  Each level gathers by
    :func:`~hiwin.numerics.gather_taps` only the map rows the taps of the
    window rows asked for read, lerps them along x, then along y, and
    writes the result into the value array in the expression that computes
    it.  A cell source, the top level of ``vdim.build_isp``, gives a lazy
    block of those rows, and is asked by a second ``gather_taps`` for the
    columns the taps read: it computes only those cells.  An array level
    is lerped along x as it is, with no column copy.  :func:`compress`
    asks for a block of window rows at a time.  Each window's samples are
    the same whichever rows are asked for.  Zeta is the positional
    embedding of each sample point's normalized coordinate, written for
    the rows asked for by :func:`_zeta` from two per-axis tables.  Those tables and each level's taps depend
    only on the geometry, so they are computed once per geometry.  An
    ``n`` below 1, a ``grid`` entry below 1, or ``rows`` outside
    ``0 <= a < b <= n`` raises ``ValueError`` naming it, before anything
    is built.
    """
    rw, rh = grid
    first, last = (0, n) if rows is None else rows
    if n < 1:
        raise ValueError(f"assemble_kv needs n >= 1 windows per side, got n={n}")
    if rw < 1 or rh < 1:
        raise ValueError(f"assemble_kv needs a grid of positive (r_w, r_h), got grid={tuple(grid)}")
    if not 0 <= first < last <= n:
        raise ValueError(f"assemble_kv needs rows=(a, b) with 0 <= a < b <= n={n}, got rows={tuple(rows)}")
    c = isp.channels
    levels = len(isp.levels)
    emb = params.level_emb
    if emb.ndim != 2 or emb.shape[0] < levels or emb.shape[1] != c:
        raise ValueError(
            f"AttnParams.level_emb has shape {emb.shape}; a {levels}-level pyramid of {c} channels "
            f"needs {levels} or more rows of {c}"
        )
    v = np.empty((last - first, n, levels, rh, rw, c), dtype=np.float64)
    for lvl, fmap in enumerate(isp.levels):
        cols = tuple(t.reshape(-1) for t in _window_taps(fmap.width, n, rw))  # column j, bin v
        row_bins = tuple(t[first:last].reshape(-1) for t in _window_taps(fmap.height, n, rh))  # row i, bin u
        gathered, row_taps = gather_taps(fmap.data, row_bins, axis=0)
        if not isinstance(gathered, np.ndarray):  # a cell source's block: computes only the columns read
            gathered, cols = gather_taps(gathered, cols, axis=1)
        # (i, u, j, v, C) samples, written to (i, j, u, v, C)
        v[:, :, lvl] = lerp(lerp(gathered, cols, axis=1), row_taps, axis=0).reshape(-1, rh, n, rw, c).swapaxes(1, 2)
    v = v.reshape(-1, levels, rh * rw, c)
    keys = (v, emb[None, :levels, None], _zeta(n, tuple(grid), c, first, last))
    return keys, v.reshape(len(v), -1, c)


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


class _Attention:
    """Multi-head attention of the (G, Q, C) queries ``q`` over keys and
    values handed over a block of groups at a time: :meth:`context` attends
    the groups of one block, and :meth:`output` projects the contexts of
    every group.  A ``heads`` below 1, or one that does not divide C,
    raises ``ValueError``.

    What does not depend on a block's keys and values is computed once,
    over every group: the query projection, the folded key projection, and
    the scores of each key addend of one group, which every block shares.
    So each group sees the same products whatever the blocks, and its bits
    do not depend on them; a product over the rows of every group, such as
    a shared addend's, may round differently when taken over fewer rows.
    """

    def __init__(self, q: np.ndarray, params: AttnParams, heads: int):
        g, nq, c = q.shape
        if heads < 1:
            raise ValueError(f"heads must be a positive integer, got {heads}")
        if c % heads:
            raise ValueError(f"channels {c} not divisible by heads {heads}")
        self.params, self.heads, self.shape = params, heads, q.shape
        self.qh = _linear(q, params.wq, params.bq).reshape(g, nq, heads, c // heads).transpose(0, 2, 1, 3)
        self.u = None  # the folded queries of every group, once a block folds
        self.shared = {}  # position of a one-group addend -> its scores over every group

    def _scores(self, i: int, t: np.ndarray, a: int, b: int) -> np.ndarray:
        """The folded scores of groups ``a .. b - 1`` against key addend
        ``t``, the i-th of a block's addends."""
        if t.shape[0] == 1:
            if i not in self.shared:
                self.shared[i] = _addend_scores(self.u, t)
            return self.shared[i][a:b]
        return _addend_scores(self.u[a:b], t)

    def context(self, a: int, b: int, k, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (b - a, Q, C) contexts of groups ``a .. b - 1``, before the
        output projection, and their (b - a, heads, Q, L) weights, over
        those groups' keys ``k`` and (b - a, L, C) values ``v``, given as
        :func:`cross_attention` takes them."""
        params, heads = self.params, self.heads
        g_all, nq, c = self.shape
        g, dk, l = b - a, c // heads, v.shape[1]
        addends = (k,) if isinstance(k, np.ndarray) else k
        key_rows = sum(math.prod(t.shape[1:-1]) for t in addends)
        fold = nq * (2 * c + heads * (l + key_rows) - 2 * l) < 2 * l * c
        if fold:
            if self.u is None:
                wk = params.wk.reshape(c, heads, dk).transpose(1, 2, 0)
                self.u = (self.qh @ wk).reshape(g_all, heads * nq, c)
            scores = reduce(np.add, (self._scores(i, t, a, b) for i, t in enumerate(addends)))
            scores = scores.reshape(g, heads, nq, l)
        else:
            k = reduce(np.add, addends).reshape(g, l, c)
            kh = _linear(k, params.wk, params.bk).reshape(g, l, heads, dk).transpose(0, 2, 3, 1)
            vh = _linear(v, params.wv, params.bv).reshape(g, l, heads, dk).transpose(0, 2, 1, 3)
            scores = self.qh[a:b] @ kh  # (G, heads, Q, L)
        scores = scores / np.sqrt(dk)  # a shared addend's scores stay as they are
        att = softmax(scores, axis=-1)
        if fold:
            ctx = (att.reshape(g, heads * nq, l) @ v).reshape(g, heads, nq, c)
            ctx = ctx @ params.wv.reshape(c, heads, dk).transpose(1, 0, 2)
            ctx += params.bv.reshape(heads, 1, dk)
        else:
            ctx = att @ vh
        return ctx.transpose(0, 2, 1, 3).reshape(g, nq, c), att

    def output(self, ctx: np.ndarray) -> np.ndarray:
        """The (G, Q, C) outputs of the contexts of every group."""
        return _linear(ctx, self.params.wo, self.params.bo).reshape(self.shape)


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
    Each product is one batched GEMM.  :func:`compress` runs the same
    attention over its windows a block of window rows at a time.
    """
    attn = _Attention(q, params, heads)
    ctx, att = attn.context(0, q.shape[0], k, v)
    return attn.output(ctx), att


def compress(isp: FeaturePyramid, params: AttnParams, config: HiwinConfig) -> TokenMap:
    """Condense a feature pyramid into the N x N token map.

    One pooling grid is selected from the level-0 dims; each query token
    attends only to the cross-level RoI samples of its own window, the same
    normalized region of every level.  The queries carry the positional
    embedding of their window centres, zeta of a 1x1 grid, built from
    per-axis tables as the keys' zeta is.  The windows are sampled and
    attended in the :func:`~hiwin.numerics.row_blocks` of their window
    rows, each block dropped before the next is sampled; the output
    projection runs once, over every window's context.  Queries that are
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
    q = params.queries.reshape(n * n, -1) + _zeta(n, (1, 1), base.channels, 0, n)[:, 0, 0]
    attn = _Attention(q[:, None], params, config.heads)
    ctx = np.empty((n * n, 1, base.channels))
    # blocks of twice a window row's samples of one level: lerp holds two float64 arrays of them
    for a, b in row_blocks(n, 2 * n * grid[0] * grid[1] * base.channels):
        keys, v = assemble_kv(isp, n, grid, params, (a, b))
        ctx[a * n : b * n] = attn.context(a * n, b * n, keys, v)[0]
        del keys, v  # before the next block's values are sampled
    out = attn.output(ctx)
    return TokenMap(out.reshape(n, n, -1).astype(np.float32), origin=isp.origin)
