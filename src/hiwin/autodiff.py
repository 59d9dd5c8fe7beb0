"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray and, for derived values, records a
closure mapping the output gradient back onto the operands (define-by-run).
``backward()`` runs the recorded closures once, newest node first, and
accumulates gradients into every leaf created with ``requires_grad=True``.

The training graph is three fused ops with hand-written VJPs:
:func:`guided_upsample` per pyramid step, :func:`window_pool` per upper
level, and :func:`recon_loss`, the multi-level reconstruction loss over the
pooled maps.  All of them are vectorized and rely on numpy's fixed reduction
order, so repeated runs on the same inputs produce bit-identical values and
gradients.  Data is promoted to float64 on entry; loss evaluation and
finite-difference checks need 64-bit accumulation to reach their tolerances.
This is the training graph only: inference reads the guided upsampler's
cells through :mod:`hiwin.vdim`'s ``_UpsampledLevel``, which runs the same
kernels by :func:`guided_upsample_rows`, at the asked cells only.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .numerics import NumericalError, resize_matrix, resize_taps, row_blocks, softmax as _softmax

__all__ = [
    "CellLayout",
    "NumericalError",
    "RADIUS",
    "Tensor",
    "as_tensor",
    "backward",
    "cell_layout",
    "check_guided_operands",
    "guided_upsample",
    "guided_upsample_rows",
    "guided_weights",
    "recon_loss",
    "window_pool",
]


_created = itertools.count()


class Tensor:
    """float64 array node in the differentiation graph.

    Leaves are created directly (``Tensor(data, requires_grad=True)`` for
    trainable parameters); everything else comes out of the op functions
    below.  A graph is single-owner: build it, call :meth:`backward` once,
    read ``.grad`` off the leaves.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._seq = next(_created)  # creation number: above every operand's

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


RADIUS = 3  # guided-upsampling window radius (7x7); checkpoints do not record it
_K = 2 * RADIUS + 1
_TILE = 8  # cells per banded tile of guided_upsample
# the window offsets (dy, dx), as start corners in an edge-padded map, in
# row-major order: the order of the weight axis K
_DY, _DX = np.divmod(np.arange(_K * _K), _K)
_DIST2 = ((_DY - RADIUS) ** 2 + (_DX - RADIUS) ** 2).astype(np.float64)  # from the window center
# The 2x lift.  The window rows y - r .. y + r of output row y = 2i + p read
# the coarse rows i - _PAD .. i + _PAD, with the (K, _CK) taps
# _LIFT[p : p + K]: rows of a 2x resize matrix whose taps are never clamped.
_PAD = (RADIUS + 1) // 2  # edge padding of the coarse map
_CK = 2 * _PAD + 1  # coarse cells per window axis
_LIFT = resize_matrix(_CK, 2 * _CK)[2 * _PAD - RADIUS :]
# the composite weights of an output cell of row and column parity (p, q)
# are its (K, K) weights w mapped to (_CK, _CK) coarse ones Ry[p]^T w Rx[q]:
# row-major flattened, w @ _COMPOSE[p][q]
_COMPOSE = [[np.kron(_LIFT[p : p + _K], _LIFT[q : q + _K]) for q in (0, 1)] for p in (0, 1)]
_CA, _CB = np.divmod(np.arange(_CK * _CK), _CK)  # the coarse offsets (a, b) of a composite weight


class _Bands(NamedTuple):
    """Layout of one banded window operation of :func:`guided_upsample`.

    Output row y is cut into tiles of ``cells`` cells; in the 2x mix, two
    output rows (phases) share each window row.  Tile t reads the source
    window of ``window`` (rows, columns) cells that starts at row y and
    column ``t * _TILE``, flattened row-major into a patch, and its
    (``cells``, patch rows) band ``B`` gives ``B @ patch``.  ``index``
    holds the flat position of each cell's taps, in tap order, in ``B``.
    """

    window: tuple[int, int]
    cells: int
    index: np.ndarray


def _bands(window, cells, rows, cols) -> _Bands:
    """The layout whose cell x reads its taps at patch rows ``rows`` and
    columns ``cols[x]``, (taps,) and (cells, taps) integer arrays."""
    index = (np.arange(cells)[:, None] * window[0] + rows) * window[1] + cols
    return _Bands(window, cells, index.reshape(-1))


# the 7x7 window sums on the guide's grid: cell x reads (dy, x + dx) of
# its tile's window, rows y .. y + 2r of the map edge-padded by r
_FINE = _bands((_K, _TILE + 2 * RADIUS), _TILE, _DY, np.arange(_TILE)[:, None] + _DX)
# the 2x mix: output rows 2i and 2i + 1, columns 2j .. 2j + 2T - 1 of a tile
# read the coarse rows i .. i + 2 * _PAD and columns j .. j + T + 2 * _PAD - 1
# of the map edge-padded by _PAD; cell x reads (a, x // 2 + b).  Its VJP
# takes both transposes of the same product B @ patch
_COARSE = _bands((_CK, _TILE + 2 * _PAD), 2 * _TILE, _CA, np.arange(2 * _TILE)[:, None] // 2 + _CB)


@lru_cache(maxsize=64)
def _edge_index(n: int, pad: int) -> np.ndarray:
    """Source cells of the cells ``-pad .. n + pad - 1`` of an n-cell axis
    edge-padded by ``pad``, read-only: computed once per geometry."""
    index = np.clip(np.arange(-pad, n + pad), 0, n - 1)
    index.flags.writeable = False
    return index


def _edge_pad(a: np.ndarray, pad: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """The rows ``lo .. hi - 1`` (all by default) of ``a`` (h, w, ...) edge-padded by ``pad`` cells on both axes."""
    h, w = a.shape[:2]
    return a[_edge_index(h, pad)[lo : (h if hi is None else hi) + 2 * pad]][:, _edge_index(w, pad)]


def _fold_edges(a: np.ndarray, pad: int) -> np.ndarray:
    """The adjoint of edge padding by ``pad``: each cell of the map gets the
    sum of ``a`` over the padded cells that copy it."""
    rows = a[pad:-pad].copy()
    rows[0] += a[:pad].sum(axis=0)
    rows[-1] += a[-pad:].sum(axis=0)
    out = rows[:, pad:-pad].copy()
    out[:, 0] += rows[:, :pad].sum(axis=1)
    out[:, -1] += rows[:, -pad:].sum(axis=1)
    return out


def _zero_pad(a: np.ndarray, width: int) -> np.ndarray:
    """``a`` (H, W, ...) with zero columns appended up to ``width``."""
    if a.shape[1] >= width:
        return a
    out = np.zeros((a.shape[0], width) + a.shape[2:], dtype=a.dtype)
    out[:, : a.shape[1]] = a
    return out


def _windows(src: np.ndarray, bands: _Bands, n: int) -> np.ndarray:
    """The (rows, n, kh, kw, C) view of the source window of each of the n
    tiles of every output row of ``src``, as laid out by ``bands``, zero
    past its right edge."""
    kh, kw = bands.window
    src = _zero_pad(src, (n - 1) * _TILE + kw)
    windows = np.lib.stride_tricks.sliding_window_view(src, (kh, kw), axis=(0, 1))[:, ::_TILE]
    return windows[:, :n].transpose(0, 1, 3, 4, 2)


def _tiled(windows: np.ndarray, bands: _Bands, lo: int, hi: int):
    """Yield ``(y0, y1, patches)`` for the row blocks of output rows
    ``lo .. hi - 1`` of the :func:`_windows` ``windows``; ``patches``
    (rows, 1, n, patch rows, C) holds each tile's source window, flattened
    row-major, in float64 whatever the source's dtype, with a phase axis to
    broadcast over.  A caller may take
    ``B @ patch`` and either of its transposes, and drops ``patches`` before
    it asks for the next block, whose patches then reuse that memory.

    The blocks are the :func:`~hiwin.numerics.row_blocks` of the larger
    per-row operand of a product: the patches or the bands.  In
    :func:`guided_upsample_rows` the window dots and the mix ask for the
    rows of one block of coarse rows at a time; in training they, the VJP
    and :func:`guided_weights` ask for the whole map.
    """
    _, n, kh, kw, c = windows.shape
    for a, b in row_blocks(hi - lo, n * kh * kw * max(c, bands.cells)):
        y0, y1 = lo + a, lo + b
        patches = np.ascontiguousarray(windows[y0:y1], dtype=np.float64)
        yield y0, y1, patches.reshape(b - a, 1, n, kh * kw, c)
        del patches  # before the next block's are cut, as the caller has dropped its view


def _scatter(tiles: np.ndarray, bands: _Bands) -> np.ndarray:
    """Each tile's (cells, patch rows) band ``B``: a row block's (rows, P,
    n, cells * patch rows) tap weights ``tiles`` scattered by ``bands.index``
    into zeros."""
    taps = bands.window[0] * bands.window[1]
    band = np.zeros(tiles.shape[:3] + (bands.cells * taps,), dtype=np.float64)
    band[..., bands.index] = tiles
    return band.reshape(tiles.shape[:3] + (bands.cells, taps))


def _gather(band: np.ndarray, bands: _Bands) -> np.ndarray:
    """The transpose of :func:`_scatter`: each cell's taps, (rows, P, n,
    cells * taps), picked from the (rows, P, n, cells, patch rows) ``band``."""
    return band.reshape(band.shape[:3] + (-1,))[..., bands.index]


def _banded_mix(weights: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """(H, W, C) ``out[y, x] = sum_k weights[y, x, k] * src_pad[y + dy, x + dx]``
    for (H, W, K) weights and the :func:`_windows` of a source
    (H + 2r, W + 2r, C) edge-padded by r."""
    h, w = weights.shape[:2]
    n = windows.shape[1]
    tiles = _zero_pad(weights, n * _TILE).reshape(h, 1, n, -1)
    out = np.empty((h, 1, n, _TILE, windows.shape[-1]), dtype=np.float64)
    for y0, y1, patches in _tiled(windows, _FINE, 0, h):
        np.matmul(_scatter(tiles[y0:y1], _FINE), patches, out=out[y0:y1])
        del patches
    return out.reshape(h, n * _TILE, -1)[:, :w]


def _window_dots(a: np.ndarray, windows: np.ndarray, lo: int, taps: np.ndarray | None = None) -> np.ndarray:
    """(R, W, K) dot products of each cell of ``a`` (R, W, C), the rows
    ``lo .. lo + R - 1`` of a map, with the cells of its window in the
    :func:`_windows` ``windows`` of ``src_pad``:
    ``out[i, x, k] = a[i, x] . src_pad[lo + i + dy, x + dx]``.  The
    transpose of :func:`_banded_mix`: ``a_tile @ patch.T`` fills each
    tile's band, and :func:`_gather` picks each cell's taps from it, or,
    given a :class:`CellLayout`'s ``taps``, only its columns' taps: (R,
    columns, K)."""
    h, w = a.shape[:2]
    n = windows.shape[1]
    tiles = _zero_pad(a, n * _TILE).reshape(h, 1, n, _TILE, -1)
    out = np.empty((h, 1, n, _TILE * _K * _K) if taps is None else (h, taps.size), dtype=np.float64)
    for y0, y1, patches in _tiled(windows, _FINE, lo, lo + h):
        dots = np.matmul(tiles[y0 - lo : y1 - lo], patches.swapaxes(-1, -2))
        del patches
        if taps is None:
            out[y0 - lo : y1 - lo] = _gather(dots, _FINE)
        else:  # mode="clip" writes to out unbuffered
            dots.reshape(y1 - y0, -1).take(taps, axis=1, out=out[y0 - lo : y1 - lo], mode="clip")
        del dots  # before the next block's are multiplied
    return out.reshape(h, n * _TILE, -1)[:, :w] if taps is None else out.reshape(h, -1, _K * _K)


def _guide_windows(guide: np.ndarray, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``lo .. hi - 1`` of the float64 homogeneous guide [r, g, b, 1]
    edge-padded by ``RADIUS``, and their :func:`_windows`: what those rows' weights read."""
    pad = _edge_pad(guide, RADIUS, lo, hi)
    g_hat_pad = np.concatenate([pad, np.ones(pad.shape[:2] + (1,))], axis=-1)
    return g_hat_pad, _windows(g_hat_pad, _FINE, -(-guide.shape[1] // _TILE))


def _weights_at(g_hat_pad, g_windows, gram, log_sigma_dist, log_sigma_sim, lo: int, hi: int):
    """The (R, W, K) weights of :func:`guided_weights` at the guide rows
    ``lo .. hi - 1`` and their logits, from :func:`_guide_windows` and the
    4x4 Gram ``gram``."""
    g_hat = g_hat_pad[lo + RADIUS : hi + RADIUS, RADIUS:-RADIUS]
    logits = _window_dots(g_hat @ gram, g_windows, lo)
    return _softmax_weights(logits, log_sigma_dist, log_sigma_sim), logits


def _softmax_weights(logits, log_sigma_dist, log_sigma_sim) -> np.ndarray:
    """The (..., K) weights of the (..., K) window dots ``logits``, which
    are scaled in place into the similarity logits: one softmax per cell."""
    sigma_sim = np.exp(log_sigma_sim)
    logits /= sigma_sim * sigma_sim
    sigma_dist = np.exp(log_sigma_dist)
    weights = logits - (0.5 * _DIST2) / (sigma_dist * sigma_dist)
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def guided_weights(guide: np.ndarray, proj_w, proj_b, log_sigma_dist, log_sigma_sim) -> np.ndarray:
    """Window weights of the guided upsampler, (H, W, K) for an (H, W, 3)
    guide.

    The weights sum to 1 over each cell's 7x7 window of edge-clamped
    neighbors, in row-major offset order.  Their logits are the dot
    products of each cell's projected guide pixel ``g_hat @ M`` with those
    of its neighbors, over ``sigma_sim^2``, where ``g_hat`` = [r, g, b, 1]
    is the homogeneous guide and ``M = [proj_w; proj_b]``: the logits are
    ``g_hat A g_hat^T`` over each window, with the 4x4 Gram ``A = M M^T``.
    The joint-bilateral kernel, a similarity softmax times the spatial
    decay ``exp(-|dxy|^2 / (2 sigma_dist^2))`` renormalized per cell, is
    one softmax over K, since the similarity normalizer cancels:
    ``weights = softmax(logits - |dxy|^2 / (2 sigma_dist^2))``.

    A cell's weights depend on its own window alone.
    :func:`guided_upsample_rows` runs the same kernel on one block of rows
    at a time and takes the softmax at the asked cells only; this function
    and training build the weights whole.
    """
    m = np.vstack([proj_w, proj_b])
    return _weights_at(*_guide_windows(guide), m @ m.T, log_sigma_dist, log_sigma_sim, 0, guide.shape[0])[0]


def _compose(weights: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` (rows, 2, w, 2, _CK^2) the composite weights
    ``Ry[p]^T w Rx[q]`` of the (rows, 2, w, 2, K) ``weights`` of output
    rows 2i + p and columns 2j + q: one product over the w cells of a row
    per parity (p, q), the shapes that fix a cell's bits."""
    for p in (0, 1):
        for q in (0, 1):
            np.matmul(weights[:, p, :, q], _COMPOSE[p][q], out=out[:, p, :, q])


def _mix_bands(weights: np.ndarray, n: int) -> np.ndarray:
    """The (rows, 2, n, 2 * _TILE, patch rows) bands of the 2x mix of
    output rows 2i and 2i + 1, from their (rows, 2, 2w, K) ``weights``: their
    :func:`_compose` weights, zero past column 2w, scattered into each
    tile's band."""
    rows, _, w2 = weights.shape[:3]
    composite = np.zeros((rows, 2, n * 2 * _TILE, _CK * _CK), dtype=np.float64)
    _compose(weights.reshape(rows, 2, w2 // 2, 2, -1), composite[:, :, :w2].reshape(rows, 2, w2 // 2, 2, -1))
    return _scatter(composite.reshape(rows, 2, n, -1), _COARSE)


def check_guided_operands(feats: np.ndarray, guide: np.ndarray, proj_w: np.ndarray, proj_b: np.ndarray) -> None:
    """Refuse with ``ValueError`` a map that is not (h, w, C), a guide that
    is not (2h, 2w, 3), or a projection that is not a (3, D) ``proj_w`` and
    a (D,) ``proj_b``: the operand checks of both guided-upsampler entries."""
    if guide.ndim != 3 or guide.shape[2] != 3 or feats.ndim != 3:
        raise ValueError("guided_upsample expects an (h', w', C) map and an (H, W, 3) guide")
    if proj_b.ndim != 1 or proj_w.shape != (3, proj_b.size):
        raise ValueError("guided_upsample expects a (3, D) proj_w and a (D,) proj_b")
    h, w = feats.shape[:2]
    if guide.shape[:2] != (2 * h, 2 * w):
        raise ValueError(
            f"guide dims {guide.shape[1]}x{guide.shape[0]} do not match 2x feature dims "
            f"{2 * w}x{2 * h} of the {w}x{h} map"
        )


class CellLayout(NamedTuple):
    """Where :func:`guided_upsample_rows` finds and puts the asked columns
    ``cols`` (sorted, unique) of an output row.

    A column's weights are its K window dots in the row's tiles of
    :func:`_window_dots`, at ``taps`` of the row's flat dots.  The mix keeps
    the ``n`` tiles of ``2 * _TILE`` output cells of
    :func:`guided_upsample` and mixes ``cells`` cells of each: the tile's
    asked columns, then repeats of one of them, whose results are dropped,
    up to one count for every tile.  Entry i of the row's flat (n, cells,
    patch rows) bands is entry ``bands[i]`` of the row's flat (2w, _CK^2)
    composite weights, or zero where it is their length.  Asked column i is
    mixed cell ``picks[i]`` of the row."""

    cols: np.ndarray
    cells: int
    taps: np.ndarray
    bands: np.ndarray
    picks: np.ndarray


@lru_cache(maxsize=8)
def cell_layout(width: int, cols: tuple[int, ...]) -> CellLayout:
    """The read-only :class:`CellLayout` of the output columns ``cols``
    (sorted, unique) of the 2x upsample of a map ``width`` cells wide.  It
    depends only on them, so it is computed once per geometry."""
    cols = np.array(cols, dtype=np.int64)
    span, patch = 2 * _TILE, _COARSE.window[0] * _COARSE.window[1]
    n = -(-width // _TILE)
    starts = span * np.arange(n)
    tile = cols // span
    first = np.searchsorted(cols, starts)  # of each tile's asked columns
    counts = np.bincount(tile, minlength=n)
    # at least 2: a product of one row is a vector product, which rounds differently
    cells = max(2, int(counts.max()))
    slots = np.repeat(np.where(counts > 0, cols[np.minimum(first, cols.size - 1)], starts)[:, None], cells, axis=1)
    rank = np.arange(cols.size) - first[tile]
    slots[tile, rank] = cols
    # slot s of tile t holds the taps of its cell's row of _COARSE's band,
    # moved to row s of the tile's band; every other entry reads the zero
    # past a row's composite weights
    local = slots - starts[:, None]
    shift = np.arange(cells) - local + np.arange(n)[:, None] * cells
    at = _COARSE.index.reshape(span, -1)[local] + (shift * patch)[..., None]
    bands = np.full(n * cells * patch, 2 * width * _CK * _CK)
    bands[at.reshape(-1)] = (slots[..., None] * (_CK * _CK) + np.arange(_CK * _CK)).reshape(-1)
    fine = _FINE.index.reshape(_TILE, -1)  # a tile's cells' taps in its (_TILE, patch rows) dots
    taps = (cols // _TILE * _TILE * _FINE.window[0] * _FINE.window[1])[:, None] + fine[cols % _TILE]
    layout = CellLayout(cols, cells, taps.reshape(-1), bands, tile * cells + rank)
    for a in (layout.cols, layout.taps, layout.bands, layout.picks):
        a.flags.writeable = False
    return layout


def guided_upsample_rows(
    out, feats, guide, proj_w, proj_b, log_sigma_dist, log_sigma_sim, rows: np.ndarray, layout: CellLayout
) -> None:
    """Write the cells of the output rows ``rows`` (sorted, unique) and the
    columns of ``layout`` of :func:`guided_upsample` into ``out`` (rows,
    columns, C), cast to its dtype, from operands that
    :func:`check_guided_operands` passed (float64 kernel arrays): the
    inference kernel, which only ``vdim._UpsampledLevel.cells`` calls.

    Only the map and guide rows those rows read are edge-padded, the map
    in its own dtype.  The coarse rows between the first and the last
    asked are cut into the :func:`~hiwin.numerics.row_blocks` sized by one
    coarse row's weights (``2 * 2w * K`` entries: 3 rows of a 48-wide map);
    a block that holds no asked row is skipped.  A block takes the window
    dots of its output rows' guide tiles as training does, and the softmax
    weights only at the asked cells.  Their composite weights are the same
    per-row products as training's, over rows of weights that are zero at
    the cells not asked, so a coarse row's phase that is not asked gets a
    zero band.  The bands hold only each tile's asked cells
    (:class:`CellLayout`); they mix the float64 patches of one
    :func:`_tiled` block of coarse rows at a time.  Each cell sees the same
    operations in products of the same shapes as in training, but for the
    count of a band's cells, which does not change a cell's bits: its bits,
    training's cast to ``out``'s dtype, do not depend on the cells asked
    for."""
    w, c = feats.shape[1:]
    lo, hi = rows[0] // 2, rows[-1] // 2 + 1
    n, a_cols = -(-w // _TILE), layout.cols.size
    m = np.vstack([proj_w, proj_b])
    gram = m @ m.T
    f_windows = _windows(_edge_pad(feats, _PAD, lo, hi), _COARSE, n)
    g_hat_pad, g_windows = _guide_windows(guide, 2 * lo, 2 * hi)
    blocks = row_blocks(hi - lo, 2 * 2 * w * _K * _K)  # sized by one coarse row's weights
    ends = np.searchsorted(rows, 2 * (lo + np.array([b for _, b in blocks]))).tolist()
    # the asked columns, as the mixed cells of a row
    picks = slice(a_cols) if layout.picks[-1] == a_cols - 1 else layout.picks
    for (a, b), first, last in zip(blocks, [0, *ends], ends):
        if first == last:
            continue
        asked = rows[first:last] - 2 * (lo + a)  # the block's asked rows, from its first output row
        every = asked.size == 2 * (b - a)
        g_hat = g_hat_pad[2 * a + RADIUS : 2 * b + RADIUS, RADIUS:-RADIUS]
        logits = _window_dots(g_hat @ gram, g_windows, 2 * a, layout.taps)
        weights = _softmax_weights(logits if every else logits[asked], log_sigma_dist, log_sigma_sim)
        del logits
        if not every or a_cols < 2 * w:  # rows of weights, zero at the cells not asked
            asked_weights, weights = weights, np.zeros((2 * (b - a), 2 * w, _K * _K))
            weights[asked[:, None], layout.cols] = asked_weights
            del asked_weights
        composite = np.empty((b - a, 2, 2 * w * _CK * _CK + 1))  # and the zero that padding reads
        composite[..., -1] = 0.0
        _compose(weights.reshape(b - a, 2, w, 2, -1), composite[..., :-1].reshape(b - a, 2, w, 2, -1))
        del weights
        at = asked.tolist()
        for y0, y1, patches in _tiled(f_windows, _COARSE, a, b):
            bands = composite[y0 - a : y1 - a].take(layout.bands, axis=2)
            mixed = np.matmul(bands.reshape(y1 - y0, 2, n, layout.cells, -1), patches).reshape(2 * (y1 - y0), -1, c)
            del bands, patches  # before the next block's patches are cut
            k0, k1 = bisect_left(at, 2 * (y0 - a)), bisect_left(at, 2 * (y1 - a))
            out[first + k0 : first + k1] = (mixed if every else mixed[asked[k0:k1] - 2 * (y0 - a)])[:, picks]
            del mixed
        del composite  # before the next block's weights are built


def guided_upsample(feats, guide, proj_w, proj_b, log_sigma_dist, log_sigma_sim):
    """Joint bilateral 2x upsampling of a feature map to its guide's grid, fused.

    ``feats`` (h, w, C) is the feature map and ``guide`` (2h, 2w, 3) the
    guidance image, a constant; ``proj_w`` (3, D) and ``proj_b`` (D,)
    project its pixels and the two log-sigmas are scalars.  Output cell
    (y, x) is the weighted sum over its 7x7 window, the cell's edge-clamped
    neighbors, of the bilinear 2x lift of ``feats`` (align-corners false),
    with the joint-bilateral weights ``w`` of :func:`guided_weights`.
    :func:`check_guided_operands` refuses any other ratio of guide to map.
    The result is the float64 (2h, 2w, C) :class:`Tensor`, a graph node
    when an operand requires grad.  This is the training op: inference
    reads the same kernels' cells through :func:`guided_upsample_rows`.
    It builds the weights and logits of the whole map at once, as
    :func:`guided_weights` does, keeps them for the VJP and mixes them in
    the row blocks of :func:`_tiled`, each building its own bands
    (:func:`_mix_bands`).

    The lift is never built.  Both steps are linear, so the mix reads the
    map edge-padded by 2 through the (5, 5) composite weights
    ``Ry[p]^T w[y, x] Rx[q]``, where ``Ry[p]`` and ``Rx[q]`` are the lift
    taps of the window rows and columns of an output cell of row and column
    parity p and q: constants taken from ``resize_matrix``.  Every window
    operation loops over the row blocks of :func:`_tiled`, with a banded
    product per tile of cells.  Output rows 2i and 2i + 1 and the 2T
    columns of a tile read one (5, T + 4) coarse patch.  The VJP makes one
    more pass over the same patches, rebuilds each tile's band ``B`` and
    takes both transposes of the forward's ``out = B @ patch``:
    ``g_tile @ patch.T`` gives the composite weights' gradient ``dWc``,
    which goes back as ``dw = Ry dWc Rx^T``, and ``B^T @ g_tile`` the
    patch's gradient, which is overlap-added onto the padded map, whose
    padding is then folded back.  Each cell sees the same operations in any
    row block, and the overlap-add sums its source rows in one order: the
    bits do not depend on block size.

    The projection is linear in the pixel, so the similarity logits go
    through the 4x4 Gram ``A = M M^T`` of ``M = [proj_w; proj_b]`` and only
    4-channel guide maps are built, never the (H, W, D) projection: the
    logits are window dots (``a_tile @ patch.T``) and the Gram gradient a
    banded mix (``B @ patch``) on the guide's grid.  No (H, W, K, C)
    neighbor array is built.  Gradients flow to every operand but
    ``guide``.
    """
    feats, proj_w, proj_b = as_tensor(feats), as_tensor(proj_w), as_tensor(proj_b)
    lsd, lss = as_tensor(log_sigma_dist), as_tensor(log_sigma_sim)
    guide = np.asarray(guide)  # cast to float64 as it is padded
    check_guided_operands(feats.data, guide, proj_w.data, proj_b.data)
    h, w, c = feats.data.shape
    n = -(-w // _TILE)  # tiles per row: _TILE map, 2 * _TILE output columns
    m = np.vstack([proj_w.data, proj_b.data])
    f_windows = _windows(_edge_pad(feats.data, _PAD), _COARSE, n)
    g_hat_pad, g_windows = _guide_windows(guide)
    del guide  # the weights and the VJP read only the padded homogeneous guide
    weights, logits = _weights_at(g_hat_pad, g_windows, m @ m.T, lsd.data, lss.data, 0, 2 * h)
    out = np.empty((2 * h, 2 * w, c), dtype=np.float64)
    for y0, y1, patches in _tiled(f_windows, _COARSE, 0, h):
        bands = _mix_bands(weights[2 * y0 : 2 * y1].reshape(y1 - y0, 2, 2 * w, -1), n)
        out[2 * y0 : 2 * y1] = np.matmul(bands, patches).reshape(2 * (y1 - y0), -1, c)[:, : 2 * w]
        del bands, patches  # before the next block's patches are cut

    def vjp(g):
        # one pass over the forward's patches takes both transposes of each
        # tile's out = B @ patch.  g_tile @ patch.T holds the composite
        # weights' gradient dWc, which goes back as dw = Ry dWc Rx^T
        g_tiles = _zero_pad(g, n * 2 * _TILE).reshape(h, 2, n, 2 * _TILE, c)
        g_weights = np.empty_like(weights)
        # B^T @ g_tile is the patch's gradient, overlap-added onto the padded
        # map: a tile's _TILE main columns, then its 2 * _PAD overhang
        # columns, which are the next tile's first ones
        g_pad = np.zeros((h + 2 * _PAD, n + 1, _TILE, c), dtype=np.float64)
        for y0, y1, patches in _tiled(f_windows, _COARSE, 0, h):
            rows, g_tile = y1 - y0, g_tiles[y0:y1]
            dots = _gather(np.matmul(g_tile, patches.swapaxes(-1, -2)), _COARSE)
            dots = dots.reshape(rows, 2, -1, _CK * _CK)
            cells = g_weights[2 * y0 : 2 * y1].reshape(rows, 2, w, 2, -1)
            for p in (0, 1):
                for q in (0, 1):
                    np.matmul(dots[:, p, q : 2 * w : 2], _COMPOSE[p][q].T, out=cells[:, p, :, q])
            del dots, patches
            band = _mix_bands(weights[2 * y0 : 2 * y1].reshape(rows, 2, 2 * w, -1), n).swapaxes(-1, -2)
            g_patch = np.matmul(band[:, 0], g_tile[:, 0])  # one phase at a time: no (2, ...) product
            g_patch += np.matmul(band[:, 1], g_tile[:, 1])
            g_patch = g_patch.reshape(rows, n, _CK, _TILE + 2 * _PAD, c)
            # patch rows in descending order, so that each cell sums its
            # source rows in ascending order whatever the block size
            for a in reversed(range(_CK)):
                g_pad[y0 + a : y1 + a, :n] += g_patch[:, :, a, :_TILE]
                g_pad[y0 + a : y1 + a, 1:, : 2 * _PAD] += g_patch[:, :, a, _TILE:]
            del band, g_patch  # before the next block's patches are cut
        del g_tiles
        g_feats = _fold_edges(g_pad.reshape(h + 2 * _PAD, -1, c)[:, : w + 2 * _PAD], _PAD)
        del g_pad
        # weights = softmax(logits - |dxy|^2 / (2 sigma_dist^2))
        g_logits = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
        sigma_dist = np.exp(lsd.data)
        g_lsd = (g_logits * _DIST2).sum() / (sigma_dist * sigma_dist)
        g_lss = -2.0 * (g_logits * logits).sum()
        sigma_sim = np.exp(lss.data)
        g_dots = g_logits / (sigma_sim * sigma_sim)
        # dots = g_hat A g_hat_pad^T, so dA = g_hat^T (window sum of g_dots
        # over g_hat_pad) and, with A = M M^T, dM = (dA + dA^T) M
        g_hat = g_hat_pad[RADIUS:-RADIUS, RADIUS:-RADIUS].reshape(-1, 4)
        g_gram = g_hat.T @ _banded_mix(g_dots, g_windows).reshape(-1, 4)
        g_m = (g_gram + g_gram.T) @ m
        return g_feats, g_m[:3], g_m[3], np.asarray(g_lsd), np.asarray(g_lss)

    return _node(out, (feats, proj_w, proj_b, lsd, lss), vjp)


@lru_cache(maxsize=8)
def _pool_layout(h: int, w: int, ih: int, iw: int, patch: int) -> tuple:
    """What :func:`window_pool` of an (h, w) map lifted to (ih, iw) reads
    that depends only on those shapes, computed once per shape and
    read-only: the resize matrices ``rm`` (ih, h) and ``cm`` (iw, w), the
    column taps ``cm3`` of each window column (iw/patch, patch, w), and each
    window row's band ``lo .. hi - 1`` of source rows with its row taps
    there, (patch, hi - lo)."""
    rm, cm = resize_matrix(h, ih), resize_matrix(w, iw)
    rm.flags.writeable = cm.flags.writeable = False
    i0, i1, _ = resize_taps(h, ih)
    rows = []
    for a in range(ih // patch):
        # the taps never decrease, and i1 == i0 wherever frac == 0
        lo, hi = int(i0[a * patch]), int(i1[(a + 1) * patch - 1]) + 1
        rows.append((lo, hi, rm[a * patch : (a + 1) * patch, lo:hi]))
    return rm, cm, cm.reshape(iw // patch, patch, w), tuple(rows)


def window_pool(f, gamma, beta, sal_w, sal_b, image_hw: tuple[int, int], patch: int) -> Tensor:
    """Saliency-weighted window pooling of a bilinearly lifted map, fused.

    Lifting ``f`` (h, w, C) bilinearly to ``image_hw`` (ih, iw), applying
    ``y = up * gamma + beta``, scoring each pixel by ``y @ sal_w + sal_b``
    and averaging ``y`` over each ``patch`` x ``patch`` window under the
    softmax of its scores gives the (ih/patch, iw/patch, C) output.  It is
    computed without the (ih, iw, C) lift.  The scores are linear in the
    lift, so they are the lift of the one-channel map ``f @ (gamma * sal_w)``
    plus ``beta @ sal_w + sal_b``, a constant the window softmax ignores.
    The output is ``gamma * (M f) + beta``, where window (a, b) of ``M``
    holds its softmax weights pushed back through the resize taps.  A
    window row reads a band of a few source rows, so ``M`` is kept per
    window row as an (iw/patch, band, w) block and applied with one matmul.
    The resize matrices and bands come from :func:`_pool_layout`, and each
    contraction over the row taps is the ``np.dot`` that ``np.tensordot``
    would make of the same operands, without its wrapper.
    ``sal_b`` cannot change the output; its gradient is exactly zero.
    """
    f, gamma, beta, sal_w, sal_b = (as_tensor(t) for t in (f, gamma, beta, sal_w, sal_b))
    h, w, c = f.data.shape
    ih, iw = image_hw
    if ih % patch or iw % patch:
        raise ValueError(f"image dims {iw}x{ih} are not multiples of patch {patch}")
    nh, nw = ih // patch, iw // patch
    rm, cm, cm3, rows = _pool_layout(h, w, ih, iw, patch)
    v = gamma.data * sal_w.data
    scores = rm @ (f.data @ v) @ cm.T
    att = _softmax(scores.reshape(nh, patch, nw, patch), axis=(1, 3))
    mats = []  # per window row: M on its band of source rows, (nw, hi - lo, w)
    pooled = np.empty((nh, nw, c), dtype=np.float64)
    for a, (lo, hi, taps) in enumerate(rows):
        # t[b, j, p]: column j of window (a, b) pushed back through row taps
        t = np.dot(att[a].transpose(1, 2, 0).reshape(nw * patch, patch), taps).reshape(nw, patch, hi - lo)
        mats.append(np.matmul(t.transpose(0, 2, 1), cm3))
        pooled[a] = mats[a].reshape(nw, -1) @ f.data[lo:hi].reshape(-1, c)
    out = gamma.data * pooled + beta.data

    def vjp(g):
        g_pooled = g * gamma.data
        g_f = np.zeros_like(f.data)
        g_att = np.empty_like(att)
        for a, ((lo, hi, taps), mat) in enumerate(zip(rows, mats)):
            g_f[lo:hi] += (mat.reshape(nw, -1).T @ g_pooled[a]).reshape(hi - lo, w, c)
            g_mat = (g_pooled[a] @ f.data[lo:hi].reshape(-1, c).T).reshape(mat.shape)
            g_t = np.matmul(cm3, g_mat.transpose(0, 2, 1))  # (nw, patch, hi - lo)
            g_att[a] = np.dot(taps, g_t.transpose(2, 0, 1).reshape(hi - lo, nw * patch)).reshape(patch, nw, patch)
        g_scores = att * (g_att - (g_att * att).sum(axis=(1, 3), keepdims=True))
        g_s = rm.T @ g_scores.reshape(ih, iw) @ cm
        g_v = f.data.reshape(-1, c).T @ g_s.reshape(-1)
        g_f += g_s[:, :, None] * v
        g_gamma = (g * pooled).sum(axis=(0, 1)) + g_v * sal_w.data
        return g_f, g_gamma, g.sum(axis=(0, 1)), g_v * gamma.data, np.zeros_like(sal_b.data)

    return _node(out, (f, gamma, beta, sal_w, sal_b), vjp)


def recon_loss(pooled, base) -> Tensor:
    """Multi-level reconstruction loss ``0.5 * sum_l mean((pooled[l] - base)^2)``.

    ``pooled`` is a sequence of maps, each of ``base``'s shape; ``base`` is a
    constant.  Each level's mean is its sum of squares times ``1 / N``, the
    levels are added in order and the total halved.  The VJP gives map l
    ``c * d_l + c * d_l``, with ``d_l = pooled[l] - base`` and
    ``c = (g * 0.5) * (1 / N)``: the square's gradient as the sum of its two
    factors' shares.
    """
    pooled = [as_tensor(p) for p in pooled]
    base = np.asarray(base, dtype=np.float64)
    if not pooled or any(p.data.shape != base.shape for p in pooled):
        raise ValueError(f"recon_loss expects one or more maps of the base's shape {base.shape}")
    diffs = [p.data - base for p in pooled]
    total = None
    for d in diffs:
        term = (d * d).sum() * (1.0 / base.size)
        total = term if total is None else total + term

    def vjp(g):
        c = (g * 0.5) * (1.0 / base.size)
        return tuple(c * d + c * d for d in diffs)

    return _node(np.asarray(total * 0.5), tuple(pooled), vjp)


def backward(out: Tensor) -> None:
    """Accumulate d(out)/d(leaf) into ``.grad`` of every trainable leaf.

    The nodes reachable from ``out`` through parents that require grad are
    gathered with a stack, then run in decreasing creation number: an op's
    output is built after its operands, so each node runs after every node
    that reads it, once it holds its whole gradient.  Each VJP returns one
    array per operand; a leaf reused by several operands sums their shares.
    """
    if out.data.shape != ():
        raise ValueError("backward() requires a scalar output")
    if not np.isfinite(out.data):
        raise NumericalError("backward() called on a non-finite value")
    if not out.requires_grad:
        return
    nodes, stack = {out._seq: out}, [out]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and parent._seq not in nodes:
                nodes[parent._seq] = parent
                stack.append(parent)
    grads = {out._seq: np.ones((), dtype=np.float64)}
    for seq in sorted(nodes, reverse=True):
        node, g = nodes[seq], grads.pop(seq)
        if node._vjp is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if parent.requires_grad:
                grads[parent._seq] = grads[parent._seq] + pg if parent._seq in grads else pg
