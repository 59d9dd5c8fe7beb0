"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray and, for derived values, records a
closure mapping the output gradient back onto the operands (define-by-run).
``backward()`` walks the recorded graph once in reverse topological order and
accumulates gradients into every leaf created with ``requires_grad=True``.

The training graph is three fused ops with hand-written VJPs:
:func:`guided_upsample` per pyramid step, :func:`window_pool` per upper
level, and :func:`recon_loss`, the multi-level reconstruction loss over the
pooled maps.  All of them are vectorized and rely on numpy's fixed reduction
order, so repeated runs on the same inputs produce bit-identical values and
gradients.  Data is promoted to float64 on entry; loss evaluation and
finite-difference checks need 64-bit accumulation to reach their tolerances.
"""

from __future__ import annotations

import numpy as np

from .numerics import NumericalError, resize_matrix, softmax as _softmax

__all__ = [
    "NumericalError",
    "RADIUS",
    "Tensor",
    "as_tensor",
    "backward",
    "guided_upsample",
    "guided_weights",
    "recon_loss",
    "window_pool",
]


class Tensor:
    """float64 array node in the differentiation graph.

    Leaves are created directly (``Tensor(data, requires_grad=True)`` for
    trainable parameters); everything else comes out of the op functions
    below.  A graph is single-owner: build it, call :meth:`backward` once,
    read ``.grad`` off the leaves.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

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
_TILE = 8  # output columns per banded block of guided_upsample
_SPAN = _TILE + 2 * RADIUS  # source columns of one tile's windows
_BLOCK_ELEMS = 1 << 15  # float64 entries per row block of guided_upsample (256 KiB)
# the window offsets (dy, dx), as start corners in an edge-padded map, in
# row-major order: the order of the weight axis K
_DY, _DX = np.divmod(np.arange(_K * _K), _K)
_DIST2 = ((_DY - RADIUS) ** 2 + (_DX - RADIUS) ** 2).astype(np.float64)  # from the window center
# cell x of a tile meets offset (dy, dx) at row dy * _SPAN + x + dx of its
# patch: the flat positions of each cell's K entries in the tile's
# flattened (_TILE, _K * _SPAN) band
_INDEX = (np.arange(_TILE)[:, None] * (_K * _SPAN + 1) + _DY * _SPAN + _DX).reshape(-1)


def _row_blocks(h: int, row_elems: int) -> list[tuple[int, int]]:
    """Ranges of the h rows of a map, each about ``_BLOCK_ELEMS`` entries of
    an operand that holds ``row_elems`` entries per row.

    :func:`guided_upsample` loops over these blocks so that each block's
    operands stay in cache: the window gathers size them by the gathered
    map, the banded products by their per-row patches.  Every cell is
    computed by the same operations in any block, so results do not depend
    on the block size.
    """
    rows = max(1, _BLOCK_ELEMS // row_elems)
    return [(y0, min(y0 + rows, h)) for y0 in range(0, h, rows)]


def _edge_index(n: int) -> np.ndarray:
    """Source cells of the n + 2r cells of an axis edge-padded by ``RADIUS``."""
    return np.clip(np.arange(-RADIUS, n + RADIUS), 0, n - 1)


def _zero_pad(a: np.ndarray, at: int, hw: tuple[int, int]) -> np.ndarray:
    """``a`` placed at row and column ``at`` of a zero map of (H', W') ``hw``."""
    out = np.zeros(hw + a.shape[2:], dtype=np.float64)
    out[at : at + a.shape[0], at : at + a.shape[1]] = a
    return out


def _aligned(w: int) -> int:
    """``w`` output columns rounded up to whole tiles of :func:`_tiled`."""
    return -(-w // _TILE) * _TILE


def _tiled(a: np.ndarray, src_pad: np.ndarray, w: int, out_c: int, product) -> np.ndarray:
    """One window operation of :func:`guided_upsample` as banded products
    over column tiles; returns its (H, ``w``, ``out_c``) result as a view on
    the tile-aligned output, so that a ragged last tile adds no output copy.

    ``a`` (H, ., .) holds each cell's operand and ``src_pad`` the padded
    (H + 2r, ., C) source of the ``w`` output columns, cut into tiles of
    ``_TILE`` cells; an operand narrower than the tile-aligned width is
    zero-padded to it.  A tile's cells read the ``(_K, _SPAN)`` source
    window ``src_pad[y : y + _K, x0 : x0 + _SPAN]``, flattened into a patch
    of ``_K * _SPAN`` rows; ``_INDEX`` places each cell's K offsets in the
    tile's band.  ``product(a_tiles, patches, out)`` fills a row block's
    (rows, n, _TILE, out_c) ``out`` from its (rows, n, _TILE, .) tiles of
    ``a`` and (rows, n, _K * _SPAN, C) patches.
    """
    h = a.shape[0]
    c = src_pad.shape[-1]
    n = -(-w // _TILE)  # tiles per row
    if a.shape[1] < n * _TILE:
        a = _zero_pad(a, 0, (h, n * _TILE))
    if src_pad.shape[1] < n * _TILE + 2 * RADIUS:
        src_pad = _zero_pad(src_pad, 0, (h + 2 * RADIUS, n * _TILE + 2 * RADIUS))
    # (H, n, C, k, _SPAN) view of every tile's source window
    windows = np.lib.stride_tricks.sliding_window_view(src_pad, (_K, _SPAN), axis=(0, 1))[:, ::_TILE]
    out = np.empty((h, n, _TILE, out_c), dtype=np.float64)
    # row blocks sized by the larger per-row operand: the patches or the bands
    for y0, y1 in _row_blocks(h, n * _K * _SPAN * max(c, _TILE)):
        rows = y1 - y0
        patches = windows[y0:y1].transpose(0, 1, 3, 4, 2).reshape(rows, n, -1, c)
        product(a[y0:y1].reshape(rows, n, _TILE, -1), patches, out[y0:y1])
        del patches  # the next block's patches reuse this memory
    return out.reshape(h, n * _TILE, out_c)[:, :w]


def _banded_mix(weights: np.ndarray, src_pad: np.ndarray, w: int) -> np.ndarray:
    """(H, w, C) ``out[y, x] = sum_k weights[y, x, k] * src_pad[y + dy, x + dx]``
    for (H, ., K) weights and a padded (H + 2r, ., C) source.

    A tile's weights scatter by ``_INDEX`` into its banded block ``B`` and
    the window sum is ``B @ patch``.
    """

    def product(tiles, patches, out):
        rows, n = tiles.shape[:2]
        bands = np.zeros((rows, n, _TILE * patches.shape[2]), dtype=np.float64)
        bands[:, :, _INDEX] = tiles.reshape(rows, n, -1)
        np.matmul(bands.reshape(rows, n, _TILE, -1), patches, out=out)

    return _tiled(weights, src_pad, w, src_pad.shape[-1], product)


def _window_dots(a: np.ndarray, src_pad: np.ndarray) -> np.ndarray:
    """(H, W, K) dot products of each cell of ``a`` (H, W, C) with the cells
    of its window in ``src_pad``: ``out[y, x, k] = a[y, x] . src_pad[y + dy, x + dx]``.

    The transpose of :func:`_banded_mix`: a tile's products with every row
    of its patch, ``a_tile @ patch.T``, fill its band, and gathering
    ``_INDEX`` from the band picks each cell's K offsets.
    """

    def product(tiles, patches, out):
        rows, n = tiles.shape[:2]
        bands = np.matmul(tiles, patches.swapaxes(-1, -2)).reshape(rows, n, -1)
        out[...] = bands[:, :, _INDEX].reshape(out.shape)

    return _tiled(a, src_pad, a.shape[1], _K * _K, product)


def _flipped(weights: np.ndarray) -> np.ndarray:
    """Weights of the adjoint of :func:`_banded_mix` in its padded source,
    at the tile-aligned width of the (H + 2r, W + 2r) padded grid.

    The padded-source gradient adds ``g[y, x] * weights[y, x, k]`` at
    ``(y + dy, x + dx)``.  Read from the receiving cell (Y, X), that is
    itself a window sum on the padded grid over ``g`` zero-padded by 2r:
    its offset K-1-k reads ``g[Y - dy, X - dx]`` and weighs it by
    ``weights[Y - dy, X - dx, k]``, zero off the map.  These flipped weights
    take one (H, W) slice copy per offset, so the adjoint is a forward
    :func:`_banded_mix` with no overlapping adds.
    """
    h, w, kk = weights.shape
    out = np.zeros((h + 2 * RADIUS, _aligned(w + 2 * RADIUS), kk), dtype=np.float64)
    for k, (dy, dx) in enumerate(zip(_DY, _DX)):
        out[dy : dy + h, dx : dx + w, kk - 1 - k] = weights[:, :, k]
    return out


def guided_weights(guide: np.ndarray, proj_w, proj_b, log_sigma_dist, log_sigma_sim):
    """Window weights of the guided upsampler and what their VJP needs.

    Returns ``(weights, logits, g_hat, g_hat_pad)``.  ``weights`` (H, W, K)
    sum to 1 over each cell's 7x7 window of edge-clamped neighbors, in
    row-major offset order.  ``logits`` (H, W, K) are the dot products of
    each cell's projected guide pixel ``g_hat @ M`` with those of its
    neighbors, over ``sigma_sim^2``; ``g_hat`` = [r, g, b, 1] is the
    (H, W, 4) homogeneous guide, ``g_hat_pad`` its edge pad and
    ``M = [proj_w; proj_b]``, so the logits are ``g_hat A g_hat_pad^T`` with
    the 4x4 Gram ``A = M M^T``.  The joint-bilateral kernel, a similarity
    softmax times the spatial decay ``exp(-|dxy|^2 / (2 sigma_dist^2))``
    renormalized per cell, is built in place as one softmax over K, since
    the similarity normalizer cancels:
    ``weights = softmax(logits - |dxy|^2 / (2 sigma_dist^2))``.
    """
    h, w = guide.shape[:2]
    g_hat = np.concatenate([guide, np.ones((h, w, 1))], axis=-1)
    m = np.vstack([proj_w, proj_b])
    g_hat_pad = g_hat[_edge_index(h)][:, _edge_index(w)]
    logits = _window_dots(g_hat @ (m @ m.T), g_hat_pad)
    sigma_sim = np.exp(log_sigma_sim)
    logits /= sigma_sim * sigma_sim
    sigma_dist = np.exp(log_sigma_dist)
    weights = logits - (0.5 * _DIST2) / (sigma_dist * sigma_dist)
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights, logits, g_hat, g_hat_pad


def guided_upsample(feats, guide, proj_w, proj_b, log_sigma_dist, log_sigma_sim) -> Tensor:
    """Joint bilateral upsampling of a feature map to its guide's grid, fused.

    ``feats`` (h', w', C) is the feature map and ``guide`` (H, W, 3) the
    guidance image, a constant; ``proj_w`` (3, D) and ``proj_b`` (D,)
    project its pixels and the two log-sigmas are scalars.  ``feats`` is
    lifted bilinearly (align-corners false) straight onto the grid
    edge-padded by ``RADIUS``: a padding row or column of the resize
    matrices repeats the taps of the border cell it copies.  Output cell
    (y, x) is the weighted sum of the lift over its 7x7 window, the cell's
    edge-clamped neighbors, with the joint-bilateral weights of
    :func:`guided_weights`.

    The projection is linear in the pixel, so the similarity logits go
    through the 4x4 Gram ``A = M M^T`` of ``M = [proj_w; proj_b]`` and only
    4-channel guide maps are built, never the (H, W, D) projection.  Every
    window operation is one banded product over column tiles
    (:func:`_tiled`): the logits and the weight gradient are
    :func:`_window_dots` (``a_tile @ patch.T``), and the forward output,
    the Gram gradient and the lift's gradient are :func:`_banded_mix`
    (``B @ patch``).  The lift's gradient is a forward mix of the
    zero-padded gradient over :func:`_flipped` weights on the padded grid,
    which the transposed resize matrices fold back onto ``feats``.  No
    (H, W, K, C) neighbor array is built.  Gradients flow to every operand
    but ``guide``; without one that requires grad, the logits are dropped
    before the mix and no VJP recorded.
    """
    feats, proj_w, proj_b = as_tensor(feats), as_tensor(proj_w), as_tensor(proj_b)
    lsd, lss = as_tensor(log_sigma_dist), as_tensor(log_sigma_sim)
    guide = np.asarray(guide, dtype=np.float64)
    if guide.ndim != 3 or guide.shape[2] != 3 or feats.data.ndim != 3:
        raise ValueError("guided_upsample expects an (h', w', C) map and an (H, W, 3) guide")
    if proj_b.data.ndim != 1 or proj_w.data.shape != (3, proj_b.data.size):
        raise ValueError("guided_upsample expects a (3, D) proj_w and a (D,) proj_b")
    h, w = guide.shape[:2]
    rows = resize_matrix(feats.data.shape[0], h)[_edge_index(h)]
    cols = resize_matrix(feats.data.shape[1], w)[_edge_index(w)]
    lift = np.tensordot(rows, feats.data, axes=(1, 0))  # (H + 2r, w', C)
    up_pad = np.matmul(cols, lift)  # (H + 2r, W + 2r, C)
    del lift
    operands = (feats, proj_w, proj_b, lsd, lss)
    weights, logits, g_hat, g_hat_pad = guided_weights(guide, proj_w.data, proj_b.data, lsd.data, lss.data)
    if not any(p.requires_grad for p in operands):
        logits = g_hat = g_hat_pad = None  # inference keeps only the weights through the mix
    out = np.ascontiguousarray(_banded_mix(weights, up_pad, w))

    def vjp(g):
        # the lift's gradient first, so that its padded-grid temporaries are
        # gone before the weight gradients are built
        g_pad = _zero_pad(g, 2 * RADIUS, (h + 4 * RADIUS, _aligned(w + 2 * RADIUS) + 2 * RADIUS))
        g_up = _banded_mix(_flipped(weights), g_pad, w + 2 * RADIUS)
        del g_pad
        g_lift = np.tensordot(rows.T, g_up, axes=(1, 0))  # (h', W + 2r, C)
        g_feats = np.matmul(cols.T, g_lift)  # (h', w', C)
        del g_up, g_lift
        g_weights = _window_dots(g, up_pad)
        # weights = softmax(logits - |dxy|^2 / (2 sigma_dist^2))
        g_logits = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
        sigma_dist = np.exp(lsd.data)
        g_lsd = (g_logits * _DIST2).sum() / (sigma_dist * sigma_dist)
        g_lss = -2.0 * (g_logits * logits).sum()
        sigma_sim = np.exp(lss.data)
        g_dots = g_logits / (sigma_sim * sigma_sim)
        # dots = g_hat A g_hat_pad^T, so dA = g_hat^T (window sum of g_dots
        # over g_hat_pad) and, with A = M M^T, dM = (dA + dA^T) M
        g_gram = g_hat.reshape(-1, 4).T @ _banded_mix(g_dots, g_hat_pad, w).reshape(-1, 4)
        g_m = (g_gram + g_gram.T) @ np.vstack([proj_w.data, proj_b.data])
        return g_feats, g_m[:3], g_m[3], np.asarray(g_lsd), np.asarray(g_lss)

    return _node(out, operands, vjp)


def _band(rows: np.ndarray) -> tuple[int, int]:
    """The span [lo, hi) of source cells that some row of a resize matrix reads."""
    cols = np.flatnonzero(rows.any(axis=0))
    return int(cols[0]), int(cols[-1]) + 1


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
    ``sal_b`` cannot change the output; its gradient is exactly zero.
    """
    f, gamma, beta, sal_w, sal_b = (as_tensor(t) for t in (f, gamma, beta, sal_w, sal_b))
    h, w, c = f.data.shape
    ih, iw = image_hw
    if ih % patch or iw % patch:
        raise ValueError(f"image dims {iw}x{ih} are not multiples of patch {patch}")
    nh, nw = ih // patch, iw // patch
    rm, cm = resize_matrix(h, ih), resize_matrix(w, iw)
    cm3 = cm.reshape(nw, patch, w)  # column taps of each window column
    rows = []  # per window row: its band [lo, hi) of source rows and row taps
    for a in range(nh):
        taps = rm[a * patch : (a + 1) * patch]
        lo, hi = _band(taps)
        rows.append((lo, hi, taps[:, lo:hi]))
    v = gamma.data * sal_w.data
    scores = rm @ (f.data @ v) @ cm.T
    att = _softmax(scores.reshape(nh, patch, nw, patch), axis=(1, 3))
    mats = []  # per window row: M restricted to its band, (nw, hi - lo, w)
    pooled = np.empty((nh, nw, c), dtype=np.float64)
    for a, (lo, hi, taps) in enumerate(rows):
        # t[b, j, p]: column j of window (a, b) pushed back through row taps
        t = np.tensordot(att[a], taps, axes=(0, 0))
        mat = np.matmul(t.transpose(0, 2, 1), cm3)
        mats.append(mat)
        pooled[a] = mat.reshape(nw, -1) @ f.data[lo:hi].reshape(-1, c)
    out = gamma.data * pooled + beta.data

    def vjp(g):
        g_pooled = g * gamma.data
        g_f = np.zeros_like(f.data)
        g_att = np.empty_like(att)
        for a, (lo, hi, taps) in enumerate(rows):
            mat = mats[a]
            g_f[lo:hi] += (mat.reshape(nw, -1).T @ g_pooled[a]).reshape(hi - lo, w, c)
            g_mat = (g_pooled[a] @ f.data[lo:hi].reshape(-1, c).T).reshape(mat.shape)
            g_t = np.matmul(cm3, g_mat.transpose(0, 2, 1))  # (nw, patch, hi - lo)
            g_att[a] = np.tensordot(taps, g_t, axes=(1, 2))
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
    """Accumulate d(out)/d(leaf) into ``.grad`` of every trainable leaf."""
    if out.data.shape != ():
        raise ValueError("backward() requires a scalar output")
    if not np.isfinite(out.data):
        raise NumericalError("backward() called on a non-finite value")
    if not out.requires_grad:
        return

    order: list[Tensor] = []
    visited = {id(out)}
    stack: list[tuple[Tensor, object]] = [(out, iter(out._parents))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for parent in it:
            if parent.requires_grad and id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()

    grads: dict[int, np.ndarray] = {id(out): np.ones((), dtype=np.float64)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad or pg is None:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
