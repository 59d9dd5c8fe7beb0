"""Built-in consistency checks backing the ``selftest`` CLI command, and the
scalar reference implementations they use.

Each check pits a vectorized library path against a small, independently
written scalar reference, or against finite differences.  They are cheap
enough to run on every install.  The references (:func:`scalar_bilinear_at`,
:func:`scalar_roi_align`, :func:`scalar_window_box`,
:func:`scalar_grid_choice`, :func:`scalar_cross_attention`) are plain
per-element loops or written-out formulas; the window write-outs are built
from them: :func:`scalar_window_values` (the RoI samples of each window box
at every level), :func:`scalar_window_zeta` (the positional embedding of
each sample point), :func:`scalar_window_keys` (values + level embedding +
zeta) and :func:`scalar_window_queries`.  The test suite compares the
library against these same functions.  The window-sampling check compares
the value rows of :func:`~hiwin.window_attn.assemble_kv` with the written-out
values and its zeta addend, bit for bit, with the written-out zeta; the
window-attention check compares the tokens of
:func:`~hiwin.window_attn.compress` with :func:`scalar_cross_attention` of
the written-out queries over the written-out keys and values.
"""

from __future__ import annotations

import math

import numpy as np

from .encoder import FeatureMap
from .image_io import build_image_pyramid, synth_corpus
from .numerics import grad_check
from .vdim import DownsamplerParams, FeaturePyramid, VdimParams, mlr_objective
from .window_attn import (
    PROPOSALS,
    AttnParams,
    HiwinConfig,
    assemble_kv,
    compress,
    position_embedding_2d,
    select_grid,
)

__all__ = [
    "check_grid_selection",
    "check_gradients",
    "check_window_attention",
    "check_window_sampling",
    "run_all",
    "scalar_bilinear_at",
    "scalar_cross_attention",
    "scalar_grid_choice",
    "scalar_roi_align",
    "scalar_window_box",
    "scalar_window_keys",
    "scalar_window_queries",
    "scalar_window_values",
    "scalar_window_zeta",
]


def scalar_grid_choice(width: float, height: float) -> tuple[int, int]:
    """Plain-math argmax of ``-|log(W/H) - log(r_w/r_h)|`` over
    :data:`~hiwin.window_attn.PROPOSALS`; first maximum wins."""
    best, best_score = None, None
    for rw, rh in PROPOSALS:
        score = -abs(math.log(width / height) - math.log(rw / rh))
        if best_score is None or score > best_score:
            best, best_score = (rw, rh), score
    return best


def check_grid_selection(trials: int = 1000, seed: int = 0) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        w = int(rng.integers(8, 513))
        h = int(rng.integers(8, 513))
        if select_grid(w, h) != scalar_grid_choice(w, h):
            return False, f"grid mismatch at {w}x{h}"
    return True, f"{trials} random map dims match the reference argmax"


def scalar_bilinear_at(data: np.ndarray, x: float, y: float) -> np.ndarray:
    """One bilinear lookup on an (H, W, ...) map at a continuous (x, y)
    coordinate with half-pixel centers, clamped to the map; all four taps
    are widened, so the lookup is float64 whatever the map's dtype."""
    h, w = data.shape[:2]
    xf = min(max(x - 0.5, 0.0), w - 1.0)
    yf = min(max(y - 0.5, 0.0), h - 1.0)
    x0, y0 = int(math.floor(xf)), int(math.floor(yf))
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = xf - x0, yf - y0
    top = (1 - fx) * data[y0, x0].astype(np.float64) + fx * data[y0, x1].astype(np.float64)
    bot = (1 - fx) * data[y1, x0].astype(np.float64) + fx * data[y1, x1].astype(np.float64)
    return (1 - fy) * top + fy * bot


def scalar_roi_align(data: np.ndarray, box, grid: tuple[int, int]) -> np.ndarray:
    """RoI-align of one box on an (H, W, C) map, one bin at a time: the box
    is clamped to the map, each bin center is inset-clamped half a cell
    inside the box (sub-cell spans use the midpoint) and read bilinearly."""
    h, w, c = data.shape
    x0 = min(max(box[0], 0.0), float(w))
    y0 = min(max(box[1], 0.0), float(h))
    x1 = min(max(box[2], 0.0), float(w))
    y1 = min(max(box[3], 0.0), float(h))
    rw, rh = grid
    out = np.zeros((rh, rw, c))
    for u in range(rh):
        for v in range(rw):
            cx = x0 + (v + 0.5) * (x1 - x0) / rw
            cy = y0 + (u + 0.5) * (y1 - y0) / rh
            cx = min(max(cx, x0 + 0.5), x1 - 0.5) if x1 - x0 >= 1 else (x0 + x1) / 2
            cy = min(max(cy, y0 + 0.5), y1 - 0.5) if y1 - y0 >= 1 else (y0 + y1) / 2
            out[u, v] = scalar_bilinear_at(data, cx, cy)
    return out


def scalar_window_box(height: int, width: int, n: int, i: int, j: int) -> tuple[float, ...]:
    """Box (x0, y0, x1, y1) of window (i, j) when an H x W map is cut into
    n x n windows: column j and row i of the uniform n-way split of each axis."""
    return (j * width / n, i * height / n, (j + 1) * width / n, (i + 1) * height / n)


def scalar_window_values(levels, n: int, grid: tuple[int, int]) -> np.ndarray:
    """The (n^2, levels*S, C) values of the n x n windows of the feature maps
    ``levels``, window (i, j) in row ``i * n + j``: :func:`scalar_roi_align`
    of its :func:`scalar_window_box` at each level, in level order."""
    windows = [
        np.concatenate([scalar_roi_align(f.data, scalar_window_box(f.height, f.width, n, i, j), grid) for f in levels])
        for i in range(n) for j in range(n)
    ]
    return np.stack(windows).reshape(n * n, -1, levels[0].channels)


def scalar_window_zeta(n: int, grid: tuple[int, int], channels: int) -> np.ndarray:
    """zeta written out, (n^2, S, C): the positional embedding of each
    window's nominal bin centres in [0, 1]^2, one point at a time."""
    rw, rh = grid
    points = [
        ((j + (v + 0.5) / rw) / n, (i + (u + 0.5) / rh) / n)
        for i in range(n) for j in range(n) for u in range(rh) for v in range(rw)
    ]
    return position_embedding_2d(np.array(points).reshape(n * n, rw * rh, 2), channels)


def scalar_window_keys(values: np.ndarray, level_emb: np.ndarray, n: int, grid: tuple[int, int]) -> np.ndarray:
    """The keys of (n^2, levels*S, C) window ``values`` written out: each
    level block plus that level's embedding plus
    :func:`scalar_window_zeta`."""
    c = values.shape[-1]
    zeta = scalar_window_zeta(n, grid, c)[:, None]
    by_level = values.reshape(n * n, -1, grid[0] * grid[1], c)  # (window, level, sample, C)
    return (by_level + level_emb[: by_level.shape[1], None] + zeta).reshape(values.shape)


def scalar_window_queries(queries: np.ndarray, n: int) -> np.ndarray:
    """The (n^2, 1, C) queries of the n x n windows: each window's learnable
    query in ``queries`` (n, n, C) plus the embedding of its centre."""
    centres = [((j + 0.5) / n, (i + 0.5) / n) for i in range(n) for j in range(n)]
    return (queries.reshape(n * n, -1) + position_embedding_2d(np.array(centres), queries.shape[-1]))[:, None]


def check_window_sampling(trials: int = 50, seed: int = 0) -> tuple[bool, str]:
    """``assemble_kv``'s value rows against :func:`scalar_window_values`,
    and its zeta addend against :func:`scalar_window_zeta`, which it must
    equal bit for bit, over random level dims, window counts n and grids,
    for every window row and for a random range of them (a block, as
    ``compress`` asks for); n above a level's side gives windows narrower
    than one cell."""
    rng = np.random.default_rng(seed)
    worst, boxes, zeta_off = 0.0, 0, 0
    for _ in range(trials):
        h, w = (int(d) for d in rng.integers(1, 17, 2))
        n = int(rng.integers(1, 9))
        grid = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        levels = [FeatureMap(rng.standard_normal((h << l, w << l, 4)), level=l) for l in range(2)]
        params = AttnParams.init(HiwinConfig(grid_side=n, channels=4), levels=2)
        values, zeta = scalar_window_values(levels, n, grid), scalar_window_zeta(n, grid, 4)
        first = int(rng.integers(0, n))
        for a, b in ((0, n), (first, int(rng.integers(first + 1, n + 1)))):
            keys, got = assemble_kv(FeaturePyramid(levels), n, grid, params, (a, b))
            worst = max(worst, float(np.abs(got - values[a * n : b * n]).max()))
            zeta_off += int(np.count_nonzero(keys[2][:, 0] != zeta[a * n : b * n]))
            boxes += (b - a) * n * len(levels)
    ok = worst <= 1e-6 and zeta_off == 0
    return ok, f"{boxes} window boxes, max deviation {worst:.2e} from the scalar reference, {zeta_off} zeta entries off"


def scalar_cross_attention(q, k, v, params, heads: int):
    """Grouped multi-head attention oracle: for each group, query and head,
    the query, every key and every value are projected one row at a time,
    the scaled scores pass through a per-row softmax, and the weighted sum
    of the projected values goes through the output projection.  Returns
    the (G, Q, C) outputs and the (G, heads, Q, L) weights."""
    g, nq, c = q.shape
    l = k.shape[1]
    dk = c // heads
    out = np.zeros((g, nq, c))
    att = np.zeros((g, heads, nq, l))
    for gi in range(g):
        for qi in range(nq):
            qp = q[gi, qi] @ params.wq + params.bq
            ctx = np.zeros(c)
            for h in range(heads):
                cols = slice(h * dk, (h + 1) * dk)
                logits = []
                for li in range(l):
                    kp = k[gi, li] @ params.wk[:, cols] + params.bk[cols]
                    logits.append(float(qp[cols] @ kp) / math.sqrt(dk))
                top = max(logits)
                sims = [math.exp(s - top) for s in logits]
                total = sum(sims)
                for li in range(l):
                    att[gi, h, qi, li] = sims[li] / total
                    ctx[cols] += att[gi, h, qi, li] * (v[gi, li] @ params.wv[:, cols] + params.bv[cols])
            out[gi, qi] = ctx @ params.wo + params.bo
    return out, att


def check_window_attention(trials: int = 20, seed: int = 0) -> tuple[bool, str]:
    """``compress``'s tokens against :func:`scalar_cross_attention`, over
    the n^2 windows as groups, of :func:`scalar_window_queries` over
    :func:`scalar_window_keys` of :func:`scalar_window_values`.  Level dims,
    n, heads, biases and level embeddings are random; n above a level's
    side gives windows narrower than one cell, and non-square maps choose
    non-square grids."""
    rng = np.random.default_rng(seed)
    worst, windows, c = 0.0, 0, 8
    for _ in range(trials):
        h, w = (int(d) for d in rng.integers(1, 13, 2))
        n = int(rng.integers(1, 7))
        heads = int(rng.choice([1, 2, 4]))
        config = HiwinConfig(grid_side=n, heads=heads, channels=c)
        params = AttnParams.init(config, seed=int(rng.integers(2**31)))
        for name in ("bq", "bk", "bv", "bo"):
            setattr(params, name, rng.uniform(-0.5, 0.5, c))
        params.level_emb = rng.uniform(-1.0, 1.0, (3, c))
        levels = [FeatureMap(rng.standard_normal((h << l, w << l, c)), level=l) for l in range(3)]
        got = compress(FeaturePyramid(levels), params, config).data
        grid = scalar_grid_choice(w, h)
        values = scalar_window_values(levels, n, grid)
        keys = scalar_window_keys(values, params.level_emb, n, grid)
        want, _ = scalar_cross_attention(scalar_window_queries(params.queries, n), keys, values, params, heads)
        worst = max(worst, float(np.abs(got.reshape(n * n, c) - want[:, 0]).max()))
        windows += n * n
    ok = worst <= 1e-6
    return ok, f"{windows} windows, max deviation {worst:.2e} from attention over written-out keys"


def check_gradients(seed: int = 0) -> tuple[bool, str]:
    image = synth_corpus(seed, 1, 56)[0]
    pyramid = build_image_pyramid(image)
    channels, d_proj = 5, 6
    rng = np.random.default_rng(seed)
    f0 = FeatureMap(rng.standard_normal((4, 4, channels)).astype(np.float32))
    vdim = VdimParams.init(d_proj=d_proj, seed=seed)
    down = DownsamplerParams.init(channels, seed=seed)
    params, objective = mlr_objective(f0, pyramid, vdim, down)
    # some entries have gradients near 1e-9 against a loss near 0.4, so
    # their difference quotients are rounding noise; grad_check judges them
    # against its floor, and the error reads 1.5e-8 at seed 0
    err = grad_check(objective, params, h=2e-4)
    return err < 1e-4, f"max relative gradient error {err:.2e}"


def run_all(seed: int = 0) -> list[tuple[str, bool, str]]:
    return [
        ("grid-selection", *check_grid_selection(seed=seed)),
        ("window-sampling", *check_window_sampling(seed=seed)),
        ("window-attention", *check_window_attention(seed=seed)),
        ("gradients", *check_gradients(seed=seed)),
    ]
