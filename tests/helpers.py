"""Scalar reference implementations of the resize, guided-upsampling,
attention-downsampling and reconstruction-loss paths, shared by the test
modules, the weighted sum that reduces an op's output to a scalar, the
window mask of the locality tests, the traced peak of the memory guards,
the call count of the call-count guard and the children that the worker
tests count.

These are written as plain per-element loops, independent of the vectorized
library paths they check.  The bilinear-lookup, RoI-align, window-box,
grid-choice and cross-attention references live in :mod:`hiwin.selfcheck`,
where ``selftest`` uses them too.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import tracemalloc

import numpy as np

from hiwin import autodiff as ad
from hiwin.encoder import FeatureMap
from hiwin.selfcheck import scalar_bilinear_at, scalar_window_box
from hiwin.vdim import FeaturePyramid


def weighted_sum(t, w) -> ad.Tensor:
    """``sum(t * w)`` for a constant array ``w`` of ``t``'s shape, as one
    graph node with VJP ``g * w``: distinct weights keep every entry's
    gradient distinct when a test reduces an op's output to a scalar."""
    t = ad.as_tensor(t)
    w = np.asarray(w, dtype=np.float64)
    return ad._node(np.asarray((t.data * w).sum()), (t,), lambda g: (g * w,))


def traced_peak(fn):
    """``fn()``'s result and the peak bytes that tracemalloc traced while
    it ran."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def counted_calls(fn):
    """``fn()``'s result and the number of Python function calls and C
    calls made while it ran, in this thread and any it starts, as
    ``sys.setprofile`` and ``threading.setprofile`` report them."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    threading.setprofile(count)
    sys.setprofile(count)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return result, calls


def children() -> list[int]:
    """The pids of this process's children, exited ones not yet reaped
    included, from each of its threads' ``/proc/self/task/<tid>/children``:
    every child, however it was started."""
    found = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as f:
                found += map(int, f.read().split())
        except FileNotFoundError:  # the thread ended while the list was read
            continue
    return sorted(found)


def exited(pid: int) -> bool:
    """Whether the child ``pid`` has exited and waits to be reaped, by then
    with every file it held closed."""
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rpartition(")")[2].split()[0] == "Z"


def scalar_resize(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Per-pixel align-corners=false resize oracle."""
    h, w = data.shape[:2]
    out = np.zeros((out_h, out_w) + data.shape[2:], dtype=np.float64)
    for i in range(out_h):
        for j in range(out_w):
            # sample position of the output pixel center in source cells; the
            # scale is rounded once, as the library rounds it, so that the two
            # agree to the bit
            x = (j + 0.5) * (w / out_w)
            y = (i + 0.5) * (h / out_h)
            out[i, j] = scalar_bilinear_at(data, x, y)
    return out


def scalar_guided_mix(
    proj: np.ndarray, up: np.ndarray, sigma_dist: float, sigma_sim: float, radius: int
) -> np.ndarray:
    """Per-cell guided window average over edge-clamped neighbors.

    Neighbor weight: softmax over the window of the projected dot products
    divided by sigma_sim^2, times exp(-|dxy|^2 / (2 sigma_dist^2)),
    renormalized to sum to 1.
    """
    h, w = up.shape[:2]
    out = np.zeros(up.shape, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            nbrs = []
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy = min(max(y + dy, 0), h - 1)
                    xx = min(max(x + dx, 0), w - 1)
                    nbrs.append((dy * dy + dx * dx, yy, xx))
            logits = [
                float(np.dot(proj[y, x], proj[yy, xx])) / sigma_sim**2 for _, yy, xx in nbrs
            ]
            top = max(logits)
            sims = [math.exp(v - top) for v in logits]
            total = sum(sims)
            ws = [
                s / total * math.exp(-d2 / (2 * sigma_dist**2))
                for s, (d2, _, _) in zip(sims, nbrs)
            ]
            norm = sum(ws)
            for wk, (_, yy, xx) in zip(ws, nbrs):
                out[y, x] += wk / norm * up[yy, xx]
    return out


def scalar_guided_upsample(
    feats: np.ndarray,
    guide: np.ndarray,
    proj_w: np.ndarray,
    proj_b: np.ndarray,
    sigma_dist: float,
    sigma_sim: float,
    radius: int,
) -> np.ndarray:
    """Guided upsampling oracle: bilinear lift of ``feats`` to the guide's
    dims, per-pixel linear projection of the guide, guided window average."""
    gh, gw = guide.shape[:2]
    up = scalar_resize(feats, gh, gw)
    proj = np.zeros((gh, gw, proj_w.shape[1]), dtype=np.float64)
    for y in range(gh):
        for x in range(gw):
            proj[y, x] = guide[y, x].astype(np.float64) @ proj_w + proj_b
    return scalar_guided_mix(proj, up, sigma_dist, sigma_sim, radius)


def scalar_attention_downsample(
    feats: np.ndarray,
    image_hw: tuple[int, int],
    gamma: np.ndarray,
    beta: np.ndarray,
    sal_w: np.ndarray,
    sal_b: float,
    patch: int,
) -> np.ndarray:
    """Attention-downsampler oracle: bilinear lift of ``feats`` to
    ``image_hw``, per-pixel affine ``y = up * gamma + beta`` and saliency
    ``y @ sal_w + sal_b``, then a softmax-weighted average of ``y`` over each
    ``patch`` x ``patch`` window."""
    ih, iw = image_hw
    up = scalar_resize(feats, ih, iw)
    out = np.zeros((ih // patch, iw // patch, feats.shape[2]), dtype=np.float64)
    for wy in range(ih // patch):
        for wx in range(iw // patch):
            ys = [up[y, x] * gamma + beta for y in range(wy * patch, (wy + 1) * patch)
                  for x in range(wx * patch, (wx + 1) * patch)]
            logits = [float(y @ sal_w) + sal_b for y in ys]
            top = max(logits)
            weights = [math.exp(v - top) for v in logits]
            total = sum(weights)
            for wk, y in zip(weights, ys):
                out[wy, wx] += wk / total * y
    return out


def scalar_recon_loss(pooled, base: np.ndarray) -> float:
    """Reconstruction-loss oracle: half the sum over maps of the mean squared
    difference to ``base``, one entry at a time."""
    total = 0.0
    for p in pooled:
        squares = 0.0
        for a, b in zip(np.ravel(p), np.ravel(base)):
            squares += (float(a) - float(b)) ** 2
        total += squares / base.size
    return 0.5 * total


def zero_outside_window(isp, n, index):
    """Copy of the pyramid with features zeroed outside window (i, j) of the
    n x n windows of every level."""
    i, j = index
    levels = []
    for fmap in isp.levels:
        x0, y0, x1, y1 = scalar_window_box(fmap.height, fmap.width, n, i, j)
        masked = np.zeros_like(fmap.data)
        ys, ye = int(np.floor(y0)), int(np.ceil(y1))
        xs, xe = int(np.floor(x0)), int(np.ceil(x1))
        masked[ys:ye, xs:xe] = fmap.data[ys:ye, xs:xe]
        levels.append(FeatureMap(masked, level=fmap.level, origin=fmap.origin))
    return FeaturePyramid(levels=levels, origin=isp.origin)
