"""Dense-array numerics: the bilinear sampling rule, the row-block cutter,
stable softmax, optimizer, gradient checks, and the PCA feature renderer.

Everything here works on plain ndarrays.  Every bilinear lookup in the
package, in whole-map resizes as in RoI samples, takes its taps from
:func:`bilinear_taps` (half-pixel centers, clamped to the edge, two taps per
axis); :func:`resize_taps` are those of a whole-axis resize.
:func:`tapped` names the sorted distinct cells a set of taps reads, and
remaps the taps to them: the RoI sampler of :mod:`hiwin.window_attn`
gathers each level's tapped rows by it, and asks the top pyramid level for
its tapped cells alone.  :func:`bilinear_resize` reads each tapped
row once, and each column tap of a block of rows by one flat take of
``cell * C + channel`` entries, which address a loaded PPM's rows at the
file's width directly.  :func:`lerp` applies the taps, one axis at a
time, decoding 8-bit codes only where it takes them; :func:`resize_matrix`
writes a resize's taps into a dense matrix: those with which
``autodiff.window_pool`` lifts saliency scores (it reads each window row's
source band off the taps themselves), and the one from which the guided upsampler's kernels in
``autodiff`` take the taps of its 2x lift, in training as in inference.
The scalar references are :func:`hiwin.selfcheck.scalar_bilinear_at` and
``tests/helpers.scalar_resize``.
Interpolation runs in float64; results are cast back to the caller's dtype,
except that 8-bit image codes resize to float32 values through
:func:`decode_codes`, the one rule that turns a code into a value.
:func:`row_blocks` cuts every memory-bounded loop of the package: those of
:func:`bilinear_resize`, ``window_attn.compress``, the guided upsampler's
kernels in ``autodiff`` and ``encoder.encode``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .autodiff import Tensor

__all__ = [
    "AdamState",
    "BLOCK_ELEMS",
    "NumericalError",
    "adam_step",
    "bilinear_resize",
    "bilinear_taps",
    "decode_codes",
    "fd_grads",
    "grad_check",
    "lerp",
    "pca_rgb",
    "resize_matrix",
    "resize_taps",
    "row_blocks",
    "softmax",
    "tapped",
]


class NumericalError(ArithmeticError):
    """A computation that must stay finite produced NaN or inf."""


_Taps = tuple[np.ndarray, np.ndarray, np.ndarray]


def bilinear_taps(coords, size: int) -> _Taps:
    """The two taps ``(i0, i1, frac)`` of linear lookups along one axis.

    ``coords`` are continuous positions in cells with half-pixel centers
    (cell q is centered at q + 0.5) on an axis of ``size`` cells.  A
    position is clamped to the outer cell centers; it reads
    ``(1 - frac) * a[i0] + frac * a[i1]``.  Where ``frac == 0``, ``i1 == i0``,
    so a zero-weight tap never reads a cell outside the sampled span.
    """
    x = np.clip(np.asarray(coords, dtype=np.float64) - 0.5, 0.0, size - 1.0)
    i0 = np.floor(x).astype(np.int64)
    frac = x - i0
    return i0, np.where(frac > 0, i0 + 1, i0), frac


def lerp(a: np.ndarray, taps: _Taps, axis: int) -> np.ndarray:
    """Apply 1-D :func:`bilinear_taps` along ``axis`` of ``a``, in float64:
    ``(1 - frac) * a[i0] + frac * a[i1]``, each tap's cells taken, turned
    into values by :func:`decode_codes`, cast to float64 once and weighted
    in place."""
    i0, i1, frac = taps
    f = frac.reshape(frac.shape + (1,) * (a.ndim - axis - 1))
    out = decode_codes(a.take(i0, axis=axis)).astype(np.float64, copy=False)
    out *= 1 - f
    upper = decode_codes(a.take(i1, axis=axis)).astype(np.float64, copy=False)
    upper *= f
    out += upper
    return out


def resize_taps(n_in: int, n_out: int) -> _Taps:
    """Taps of an align-corners=false resize: output sample i reads the
    source at ``(i + 0.5) * n_in / n_out`` in half-pixel coordinates."""
    return bilinear_taps((np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out), n_in)


def resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """1-D bilinear interpolation matrix of shape (n_out, n_in).

    Row i holds the two taps of :func:`resize_taps`, so constant inputs
    are preserved exactly and ``n_out == n_in`` yields the identity.  It is
    dense because ``autodiff.window_pool`` applies it and its transpose to
    whole score maps, and ``autodiff.guided_upsample`` reads its 2x taps
    off a small one.
    """
    if n_in < 1 or n_out < 1:
        raise ValueError("resize_matrix requires positive sizes")
    i0, i1, frac = resize_taps(n_in, n_out)
    m = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.arange(n_out)
    m[rows, i0] = 1.0 - frac
    m[rows, i1] += frac
    return m


def decode_codes(a: np.ndarray) -> np.ndarray:
    """Values in [0, 1] of a pixel array: uint8 codes become the float32
    ``float32(code) / 255``; any other array is returned as given."""
    if a.dtype != np.uint8:
        return a
    out = a.astype(np.float32)
    out /= 255.0
    return out


def tapped(taps: _Taps, size: int) -> tuple[np.ndarray, _Taps]:
    """The cells of an axis of ``size`` cells that ``taps`` read, sorted and
    distinct, and the taps remapped to them."""
    i0, i1, frac = taps
    read = np.zeros(size, dtype=bool)  # a mask, not np.unique, which imports numpy.ma
    read[i0] = True
    read[i1] = True
    at = read.cumsum() - 1
    return read.nonzero()[0], (at[i0], at[i1], frac)


BLOCK_ELEMS = 1 << 15  # entries per row block (256 KiB of float64)


def row_blocks(n: int, row_elems: int) -> list[tuple[int, int]]:
    """Ranges ``(a, b)`` that cut n rows of ``row_elems`` entries each into
    blocks of about :data:`BLOCK_ELEMS` entries, at least one row each."""
    rows = max(1, BLOCK_ELEMS // row_elems)
    return [(a, min(a + rows, n)) for a in range(0, n, rows)]


def bilinear_resize(src, out_h: int, out_w: int) -> np.ndarray:
    """Resample an (H, W, C) source to (out_h, out_w).

    The source is an array, or an object with an array's ``shape``, ``ndim``
    and ``dtype``, a ``read_rows(indices)`` that returns those rows as an
    array at the full width of a wider image, with the source's first
    column, and ``np.asarray``: a loaded PPM's
    :class:`~hiwin.image_io.PpmCodes`, which reads only the rows asked for.
    The output is filled in the :func:`row_blocks` of its rows.  A block
    reads, from the span of source rows its taps name, only the rows they
    read; then two :func:`lerp` passes, columns then rows, read them, and
    decode 8-bit codes into values (:func:`decode_codes`) only where they
    take them.  Each column tap of a block is one flat take of
    ``cell * C + channel`` entries of its rows, which address an array's
    rows, gathered as C-ordered copies, or a PPM's rows at the file's width
    as they were read.  A block's budget of :data:`BLOCK_ELEMS` float64
    entries counts, per output row, the float64 columns of its two source
    rows and, for an array, the bytes of the rows it gathers at the
    source's width, ``min(2, H / out_h)`` of them; a PPM's rows, read at
    the file's width, are not counted.  No resampling matrix and no float
    copy of the whole input are built, and every output cell sees the same
    float64 arithmetic whichever cells were gathered.  A
    uint8 source holds 8-bit image codes and resizes to float32; any other
    dtype is kept.  Identical input and output dims return an exact copy of
    the values.
    """
    if src.ndim != 3:
        raise ValueError("bilinear_resize expects an (H, W, C) array")
    h, w, c = src.shape
    if min(src.shape) < 1:
        raise ValueError("bilinear_resize: zero-size input")
    if out_h < 1 or out_w < 1:
        raise ValueError("bilinear_resize: output dims must be positive")
    if (out_h, out_w) == (h, w):
        values = decode_codes(np.asarray(src))
        return values.copy() if values is src else values
    i0, i1, frac = resize_taps(h, out_h)
    cols = None  # the column taps, addressed once the first block is read
    out = np.empty((out_h, out_w, c), dtype=decode_codes(np.empty(0, src.dtype)).dtype)  # the values' dtype
    # an array's rows are gathered as copies at its width, min(2, h / out_h) of them per output
    # row, counted in the float64 entries that their bytes would fill
    gathered = min(2 * out_h, h) * w * src.dtype.itemsize // (8 * out_h) if isinstance(src, np.ndarray) else 0
    for a, b in row_blocks(out_h, (2 * out_w + gathered) * c):
        lo, hi = i0[a], i1[b - 1] + 1  # the taps of a resize never decrease
        cells, rows = tapped((i0[a:b] - lo, i1[a:b] - lo, frac[a:b]), hi - lo)
        # a strided array's fancy index copies only the cells it names
        block, first = (src[lo + cells], 0) if isinstance(src, np.ndarray) else src.read_rows(lo + cells)
        if cols is None:  # entry (first + i) * C + ch of a row read is channel ch of the source's cell i
            i0c, i1c, fc = resize_taps(w, out_w)
            channel = np.arange(c)
            i0c, i1c = ((first + i[:, None]) * c + channel for i in (i0c, i1c))
            cols = (i0c.ravel(), i1c.ravel(), fc.repeat(c))
        block = lerp(block.reshape(cells.size, -1), cols, axis=1).reshape(cells.size, out_w, c)
        out[a:b] = lerp(block, rows, axis=0)
    return out


def softmax(x: np.ndarray, axis: int | tuple[int, ...] = -1) -> np.ndarray:
    """Stable softmax (max subtraction); slices along ``axis`` sum to 1."""
    x = np.asarray(x, dtype=np.float64)
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def fd_grads(f: Callable[[Sequence[Tensor]], Tensor], params: Sequence[Tensor], h: float) -> list[np.ndarray]:
    """Central differences of the scalar ``f(params)``, an array shaped like
    each param.  Each entry is nudged by ±h in place, so ``f`` must be a pure
    function of the params' values; a non-finite nudge raises."""
    grads = []
    for p in params:
        flat = p.data.reshape(-1)
        fd = np.empty(flat.size)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            f_hi = float(f(params).data)
            flat[i] = keep - h
            f_lo = float(f(params).data)
            flat[i] = keep
            if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
                raise NumericalError("grad_check: perturbed objective is not finite")
            fd[i] = (f_hi - f_lo) / (2.0 * h)
        grads.append(fd.reshape(p.data.shape))
    return grads


def grad_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
) -> float:
    """Max relative error between backprop and the central finite
    differences of :func:`fd_grads`.

    The relative error for one entry is
    ``|analytic - fd| / max(|analytic|, |fd|, floor)``, where ``floor`` is
    1e-3 times the largest analytic gradient magnitude over all params (at
    least 1e-12): an entry a thousand times smaller than the largest is
    judged against that scale, not against its own finite-difference
    rounding noise.  It is one float64 array expression over every entry
    of every param, so a NaN or infinite analytic gradient makes the result
    NaN, which no tolerance passes.
    """
    if h <= 0:
        raise ValueError("grad_check requires h > 0")
    out = f(params)
    if not np.isfinite(out.data):
        raise NumericalError("grad_check: objective is not finite")
    for p in params:
        p.grad = None
    out.backward()

    analytic = np.concatenate(
        [np.zeros(p.data.size) if p.grad is None else np.ravel(p.grad) for p in params]
    )
    fd = np.concatenate([d.reshape(-1) for d in fd_grads(f, params, h)])
    floor = max(1e-12, 1e-3 * np.abs(analytic).max())
    with np.errstate(invalid="ignore"):  # an infinite entry reads inf / inf = NaN
        err = np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
    return float(err.max())


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator floor


@dataclass
class AdamState:
    """Learning rate, step count and per-parameter moment accumulators."""

    lr: float = 1e-3
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray], lr: float = 1e-3) -> "AdamState":
        return cls(
            lr=lr,
            m=[np.zeros_like(p, dtype=np.float64) for p in params],
            v=[np.zeros_like(p, dtype=np.float64) for p in params],
        )


def adam_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    state: AdamState,
) -> list[np.ndarray]:
    """One bias-corrected Adam update; returns the new parameter values.

    ``state`` is advanced in place.  A zero gradient leaves the returned
    parameters equal to the inputs.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("adam_step: parameter/gradient/state length mismatch")
    state.step += 1
    t = state.step
    correct1 = 1.0 - ADAM_BETA1**t
    correct2 = 1.0 - ADAM_BETA2**t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        p = np.asarray(p, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        if p.shape != g.shape or p.shape != state.m[i].shape:
            raise ValueError(f"adam_step: shape mismatch at parameter {i}")
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[i] / correct1
        v_hat = state.v[i] / correct2
        out.append(p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
    return out


def pca_rgb(features: np.ndarray) -> np.ndarray:
    """Project an (H, W, C) map onto its top-3 principal components as RGB.

    The components are the leading eigenvectors of the channel covariance
    (``np.linalg.eigh``), each signed to have a positive dot product with a
    fixed probe, the c-th row of ``default_rng(0).standard_normal((3, C))``.
    Channels are min-max scaled to [0, 1].  A map with no variance renders
    mid-gray; components whose eigenvalue is below 1e-12 of the trace (those
    beyond the input's rank) render black.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 3:
        raise ValueError("pca_rgb expects an (H, W, C) array")
    h, w, c = feats.shape
    if h * w < 3:
        raise ValueError("pca_rgb requires at least 3 spatial positions")
    x = feats.reshape(-1, c)
    x = x - x.mean(axis=0)
    if float((x * x).sum()) <= 1e-24:
        return np.full((h, w, 3), 0.5, dtype=np.float32)
    cov = (x.T @ x) / max(x.shape[0] - 1, 1)
    values, vectors = np.linalg.eigh(cov)  # ascending
    k = min(c, 3)
    keep = values[::-1][:k] > 1e-12 * max(float(np.trace(cov)), 1.0)
    top = np.zeros((c, 3))
    top[:, :k] = vectors[:, ::-1][:, :k] * keep
    probes = np.random.default_rng(0).standard_normal((3, c))
    top *= np.where((probes.T * top).sum(axis=0) < 0, -1.0, 1.0)
    proj = x @ top  # (n, 3)
    out = np.zeros_like(proj)
    for ch in range(3):
        lo = proj[:, ch].min()
        span = proj[:, ch].max() - lo
        if span > 1e-12:
            out[:, ch] = (proj[:, ch] - lo) / span
    return out.reshape(h, w, 3).astype(np.float32)
