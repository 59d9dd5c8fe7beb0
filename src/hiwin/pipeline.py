"""End-to-end orchestration: image -> slicing -> encoding -> feature pyramid
-> token compression -> assembled tokens; plus the two reference projectors
(plain MLP on downsampled features, global resampler) kept surface-compatible
with the window-attention projector so outputs can be compared like for like.

Per-unit work is independent: each unit (the overview or one slice) cuts
its own slice from the image, encodes it and drops it, then builds its
pyramid and projects its tokens, so only the units in flight that have not
yet encoded hold pixels.  The pyramid's top level computes only the cells
that the projector's RoI samples tap, a block of window rows at a time, so
``compress`` never holds it whole.  The units run on forked worker
processes, at most ``PipelineConfig.threads`` in flight (by default the
usable cores), and their token maps are reassembled in unit order, so
results are identical for any count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .encoder import EncoderSpec, encode
from .image_io import Image, build_image_pyramid
from .numerics import bilinear_resize
from .slicing import MAX_SLICES, SliceLayout, UnitJob, compute_slice_layout, cut_unit, unit_jobs
from .token_org import AssembledTokens, assemble
from .vdim import FeaturePyramid, VdimParams, build_isp
from .window_attn import (
    AttnParams,
    HiwinConfig,
    TokenMap,
    compress,
    cross_attention,
    select_grid,
)
from .workers import forked, usable_cores

__all__ = [
    "PROJECTORS",
    "PipelineConfig",
    "PipelineResult",
    "baseline_mlp",
    "baseline_resampler",
    "init_mlp_weight",
    "project_tokens",
    "run_pipeline",
    "unit_pyramid",
]

PROJECTORS = ("hiwin", "mlp", "resampler")


@dataclass
class PipelineConfig:
    encoder: EncoderSpec = field(default_factory=EncoderSpec)
    hiwin: HiwinConfig = field(default_factory=HiwinConfig)
    threads: int = field(default_factory=usable_cores)
    max_slices: ClassVar[int] = MAX_SLICES


@dataclass
class PipelineResult:
    tokens: AssembledTokens
    layout: SliceLayout
    grid: tuple[int, int]


def init_mlp_weight(channels: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(channels)
    return rng.uniform(-scale, scale, (channels, channels))


def baseline_mlp(isp: FeaturePyramid, n: int, weight: np.ndarray) -> TokenMap:
    """Reference projector: bilinearly downsample the finest level to N x N,
    then apply one linear map."""
    small = bilinear_resize(np.asarray(isp.levels[-1].data, dtype=np.float64), n, n)
    out = small.reshape(n * n, -1) @ weight
    return TokenMap(out.reshape(n, n, -1).astype(np.float32), origin=isp.origin)


def baseline_resampler(
    isp: FeaturePyramid, params: AttnParams, config: HiwinConfig
) -> TokenMap:
    """Reference projector: every query attends over all pyramid features,
    with no windows and no spatial or level embeddings."""
    n = config.grid_side
    c = isp.channels
    feats = np.concatenate([np.asarray(f.data).reshape(-1, c) for f in isp.levels]).astype(np.float64)
    q = params.queries.reshape(n * n, c).astype(np.float64)
    out, _ = cross_attention(q[None], feats[None], feats[None], params, config.heads)
    return TokenMap(out.reshape(n, n, c).astype(np.float32), origin=isp.origin)


def project_tokens(
    isp: FeaturePyramid,
    projector: str,
    attn: AttnParams,
    config: HiwinConfig,
    mlp_weight: np.ndarray | None = None,
) -> TokenMap:
    if projector == "hiwin":
        return compress(isp, attn, config)
    if projector == "mlp":
        if mlp_weight is None:
            raise ValueError("the mlp projector needs an mlp_weight")
        return baseline_mlp(isp, config.grid_side, mlp_weight)
    if projector == "resampler":
        return baseline_resampler(isp, attn, config)
    raise ValueError(f"unknown projector {projector!r}; expected one of {PROJECTORS}")


def unit_pyramid(image: Image, origin: str, vdim: VdimParams, config: PipelineConfig) -> FeaturePyramid:
    """One unit's feature pyramid: its encoding grown by ``build_isp`` under
    the unit's guidance pyramid.  The unit's pixels are dropped once
    encoded, so a caller that hands over its only reference to ``image``
    frees them before the pyramid grows."""
    pyramid = build_image_pyramid(image, patch=config.encoder.patch, levels=len(vdim.levels) + 1)
    f0 = encode(image, config.encoder, origin=origin)
    del image
    return build_isp(f0, pyramid, vdim)


def _unit_tokens(state: tuple, job: UnitJob) -> TokenMap:
    image, vdim, attn, config, projector, mlp_weight = state
    try:
        isp = unit_pyramid(cut_unit(image, job), job.origin, vdim, config)
        return project_tokens(isp, projector, attn, config.hiwin, mlp_weight)
    except FloatingPointError as e:
        raise FloatingPointError(f"{e} in unit {job.origin}") from e


def run_pipeline(
    image: Image,
    vdim: VdimParams,
    attn: AttnParams,
    config: PipelineConfig,
    projector: str = "hiwin",
) -> PipelineResult:
    """Slice, encode, build pyramids, compress, and assemble one image.

    The ``mlp`` projector's weight is :func:`init_mlp_weight` drawn from the
    encoder's seed.  Each unit cuts its own slice when it starts and drops
    it once encoded, while ``image`` stays referenced until the last unit
    ends; a loaded PPM holds no pixels, since each unit reads the rows its
    resizes tap from the file.  The units run through
    :func:`hiwin.workers.forked`, ``config.threads`` in flight at most; a
    ``FloatingPointError`` names its unit, and a dead worker's
    ``ChildProcessError`` the first unit whose tokens did not arrive.  A
    ``threads`` below 1 raises ``ValueError``.
    """
    if config.threads < 1:
        raise ValueError(f"PipelineConfig.threads must be at least 1, got {config.threads}")
    layout = compute_slice_layout(image.width, image.height, config.max_slices)
    mlp_weight = init_mlp_weight(config.hiwin.channels, seed=config.encoder.seed) if projector == "mlp" else None
    jobs = unit_jobs(layout)
    state = (image, vdim, attn, config, projector, mlp_weight)
    with forked(state, len(jobs), config.threads) as run:
        lost = lambda i: f"a unit worker ended before it returned the tokens of unit {jobs[i].origin}"
        maps = list(run(_unit_tokens, jobs, lost))

    tokens = assemble(maps[1:], layout, maps[0])  # the overview's map comes first
    w, h = layout.slice_dims[0]
    grid = select_grid(w // config.encoder.patch, h // config.encoder.patch)
    return PipelineResult(tokens=tokens, layout=layout, grid=grid)
