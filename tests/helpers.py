"""Scalar reference implementations shared by the test modules.

These are written as plain per-element loops, independent of the vectorized
library paths they check.
"""

from __future__ import annotations

import math

import numpy as np


def scalar_bilinear_at(data: np.ndarray, x: float, y: float) -> np.ndarray:
    """One bilinear lookup on an (H, W, C) map at a continuous (x, y)
    coordinate with half-pixel centers, clamped to the map."""
    h, w = data.shape[:2]
    xf = min(max(x - 0.5, 0.0), w - 1.0)
    yf = min(max(y - 0.5, 0.0), h - 1.0)
    x0, y0 = int(math.floor(xf)), int(math.floor(yf))
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = xf - x0, yf - y0
    top = (1 - fx) * data[y0, x0].astype(np.float64) + fx * data[y0, x1]
    bot = (1 - fx) * data[y1, x0].astype(np.float64) + fx * data[y1, x1]
    return (1 - fy) * top + fy * bot


def scalar_resize(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Per-pixel align-corners=false resize oracle."""
    h, w = data.shape[:2]
    out = np.zeros((out_h, out_w) + data.shape[2:], dtype=np.float64)
    for i in range(out_h):
        for j in range(out_w):
            # sample position of the output pixel center in source cells
            x = (j + 0.5) * w / out_w
            y = (i + 0.5) * h / out_h
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


def scalar_roi_points(
    box, grid: tuple[int, int], map_w: int, map_h: int
) -> list[list[tuple[float, float]]]:
    """Bin-center sample coordinates, inset-clamped half a cell inside the box."""
    x0 = min(max(box[0], 0.0), float(map_w))
    y0 = min(max(box[1], 0.0), float(map_h))
    x1 = min(max(box[2], 0.0), float(map_w))
    y1 = min(max(box[3], 0.0), float(map_h))
    rw, rh = grid
    rows = []
    for u in range(rh):
        row = []
        for v in range(rw):
            cx = x0 + (v + 0.5) * (x1 - x0) / rw
            cy = y0 + (u + 0.5) * (y1 - y0) / rh
            cx = min(max(cx, x0 + 0.5), x1 - 0.5) if x1 - x0 >= 1 else (x0 + x1) / 2
            cy = min(max(cy, y0 + 0.5), y1 - 0.5) if y1 - y0 >= 1 else (y0 + y1) / 2
            row.append((cx, cy))
        rows.append(row)
    return rows


def scalar_roi_align(data: np.ndarray, box, grid: tuple[int, int]) -> np.ndarray:
    h, w, c = data.shape
    pts = scalar_roi_points(box, grid, w, h)
    rw, rh = grid
    out = np.zeros((rh, rw, c), dtype=np.float64)
    for u in range(rh):
        for v in range(rw):
            out[u, v] = scalar_bilinear_at(data, *pts[u][v])
    return out


def scalar_grid_choice(width: float, height: float, proposals) -> tuple[int, int]:
    best, best_score = None, None
    for rw, rh in proposals:
        score = -abs(math.log(width / height) - math.log(rw / rh))
        if best_score is None or score > best_score:
            best, best_score = (rw, rh), score
    return best
