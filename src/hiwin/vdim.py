"""Visual detail injection: trainable guided upsampling of feature maps, the
attention downsampler used for self-supervision, the multi-level
reconstruction loss, and the training loop that fits both.

Guided upsampling (joint bilateral upsampling) doubles a feature map's
resolution: each output cell averages the bilinear 2x lift of the map over
its edge-clamped 7x7 neighborhood.  The joint-bilateral kernel is one
softmax over the window: a neighbor's score is the dot product of the two
guidance pixels under a learned linear projection, over ``sigma_sim^2``,
minus the spatial term ``|dxy|^2 / (2 sigma_dist^2)``: a similarity softmax
times a Gaussian decay, renormalized to sum to 1 per cell.  A level's
weights are ``autodiff.guided_weights`` of its guide and its
:class:`LevelKernel` fields.  Lift and average are the single fused op
``autodiff.guided_upsample``, which inference and training both run:
inference through its kernels' one cell source, :class:`_UpsampledRows`,
which computes only the cells asked for.
Its window radius is the constant ``autodiff.RADIUS``, and its docstring
tells how it computes them without building the lift.

The downsampler inverts the scale change for training.  It is defined on
the high level bilinearly lifted to full image resolution and split into
14x14 windows (one per base-level cell): each window is reduced by a
saliency-weighted average (1x1 conv saliency, softmax over the window,
learnable per-channel affine on the features).  It is the fused op
``autodiff.window_pool``, which does not build the lift either.  The
saliency bias ``sal_b`` shifts every score of a window alike, which the
softmax ignores: its gradient is exactly zero, so training leaves it at its
initial 0.  It stays a parameter so that the checkpoint format does not
change.  The reconstruction loss is half the sum over levels of the mean
squared difference between each level's reduction and the base map; it is
the fused op ``autodiff.recon_loss``, whose graph :func:`mlr_objective`
builds after the pyramid and the reductions.

Both sigma parameters are stored in log space so their effective values stay
strictly positive.  Training runs entirely in float64; stored feature maps
remain float32.  ``pretrain_vdim`` runs the items of each batch through
:func:`hiwin.workers.forked`, and sums their losses and gradients in item
order, so any worker count gives the serial loop's bits.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import NumericalError, Tensor
from .encoder import EncoderSpec, FeatureMap, encode
from .formats import all_finite
from .image_io import Image, ImagePyramid, build_image_pyramid
from .numerics import AdamState, adam_step, distinct_cells
from .workers import forked, usable_cores

__all__ = [
    "DownsamplerParams",
    "FeaturePyramid",
    "LevelDown",
    "LevelKernel",
    "TrainResult",
    "VdimParams",
    "attention_downsample",
    "build_isp",
    "jbu_upsample",
    "mlr_objective",
    "pretrain_vdim",
    "trainable_arrays",
]

LEVELS = 2  # detail-injection steps of the pyramid, and of every checkpoint


@dataclass
class LevelKernel:
    """Guided-upsampling weights for one pyramid step."""

    proj_w: np.ndarray  # (3, d_proj) guidance projection
    proj_b: np.ndarray  # (d_proj,)
    log_sigma_dist: np.ndarray  # () spatial decay width, log space
    log_sigma_sim: np.ndarray  # () similarity temperature, log space

    @property
    def sigma_dist(self) -> float:
        return float(np.exp(self.log_sigma_dist))

    @property
    def sigma_sim(self) -> float:
        return float(np.exp(self.log_sigma_sim))


@dataclass
class VdimParams:
    """Per-level guided-upsampling kernels; ``levels[l]`` produces level l+1."""

    levels: list[LevelKernel]

    @property
    def d_proj(self) -> int:
        return self.levels[0].proj_w.shape[1]

    @classmethod
    def init(cls, d_proj: int = 32, seed: int = 0) -> "VdimParams":
        rng = np.random.default_rng(seed)
        kernels = [
            LevelKernel(
                proj_w=rng.uniform(-0.5, 0.5, (3, d_proj)),
                proj_b=rng.uniform(-0.1, 0.1, d_proj),
                log_sigma_dist=np.zeros(()),
                log_sigma_sim=np.zeros(()),
            )
            for _ in range(LEVELS)
        ]
        return cls(levels=kernels)


@dataclass
class LevelDown:
    """Attention-downsampler weights for one level: per-channel affine plus
    a scalar-saliency 1x1 conv."""

    gamma: np.ndarray  # (C,)
    beta: np.ndarray  # (C,)
    sal_w: np.ndarray  # (C,)
    sal_b: np.ndarray  # ()


@dataclass
class DownsamplerParams:
    """Per-level downsampler weights; ``levels[l-1]`` reduces level l."""

    levels: list[LevelDown]
    patch: ClassVar[int] = EncoderSpec.patch  # one window per encoder patch

    @property
    def channels(self) -> int:
        return self.levels[0].gamma.shape[0]

    @classmethod
    def init(cls, channels: int, seed: int = 0) -> "DownsamplerParams":
        rng = np.random.default_rng(seed)
        downs = [
            LevelDown(
                gamma=np.ones(channels),
                beta=np.zeros(channels),
                sal_w=rng.uniform(-0.1, 0.1, channels),
                sal_b=np.zeros(()),
            )
            for _ in range(LEVELS)
        ]
        return cls(levels=downs)


@dataclass
class FeaturePyramid:
    """Inverse semantic pyramid: feature maps whose dims double per level."""

    levels: list[FeatureMap]
    origin: str = "overview"

    def __post_init__(self):
        for lo, hi in zip(self.levels, self.levels[1:]):
            if (hi.height, hi.width) != (2 * lo.height, 2 * lo.width):
                raise ValueError("pyramid level dims must double at every step")
            if hi.channels != lo.channels:
                raise ValueError("pyramid levels must share a channel count")

    @property
    def channels(self) -> int:
        return self.levels[0].channels


def _leaves(level: LevelKernel | LevelDown, trainable: bool = False) -> list[Tensor]:
    """One level's parameters as graph leaves, in field order."""
    return [Tensor(getattr(level, f.name), requires_grad=trainable) for f in fields(level)]


def trainable_arrays(
    vdim: VdimParams, down: DownsamplerParams
) -> list[tuple[str, np.ndarray]]:
    """All trainable parameters in their canonical (checkpoint) order: the
    field order of ``LevelKernel`` per upsampling level, then of
    ``LevelDown`` per downsampler level."""
    out = []
    for prefix, levels in (("upsample", vdim.levels), ("down", down.levels)):
        for i, level in enumerate(levels, start=1):
            out += [(f"{prefix}{i}.{f.name}", getattr(level, f.name)) for f in fields(level)]
    return out


def jbu_upsample(f_level: FeatureMap, guide: Image, params: VdimParams, level: int) -> FeatureMap:
    """Double a feature map's resolution under guidance-image control, by
    the kernel ``params.levels[level]``: every cell of an :class:`_UpsampledRows`.

    ``guide`` must have exactly twice the feature map's dims (it is the
    pyramid image at the target resolution); the cell source refuses any other.
    """
    if level < 0 or level >= len(params.levels):
        raise ValueError(f"no upsampling kernel for source level {level}")
    rows = _UpsampledRows(f_level.data, guide.decoded(), params.levels[level])
    return FeatureMap._of_checked(np.asarray(rows), level + 1, f_level.origin)


def attention_downsample(
    f_high: FeatureMap, image_dims: tuple[int, int], params: DownsamplerParams
) -> FeatureMap:
    """Reduce a high-level map back to base dims via saliency-weighted windows.

    ``image_dims`` is (height, width) of the original image; output dims are
    ``image_dims / patch``.
    """
    if f_high.level < 1 or f_high.level - 1 >= len(params.levels):
        raise ValueError(f"no downsampler for level {f_high.level}")
    dp = _leaves(params.levels[f_high.level - 1])
    out = ad.window_pool(f_high.data, *dp, tuple(image_dims), params.patch)
    return FeatureMap(out.data.astype(np.float32), level=0, origin=f_high.origin)


class _UpsampledRows:
    """The one inference entry to ``autodiff.guided_upsample``: its output
    for the array ``feats`` under ``guide`` by ``kernel``, cast to float32,
    a cell source that computes anew, at each ask, only the cells asked
    for.  ``take(rows, axis=0)`` is a lazy block of those rows, itself a
    cell source; ``take(cols, axis=1)`` computes the block's cells in those
    columns, and ``np.asarray`` all of its cells, by one
    ``autodiff.guided_upsample_rows`` call over the sorted distinct rows
    and columns asked (their ``autodiff.cell_layout`` is cached).  A
    computed cell holding NaN or inf raises the ``ValueError`` of
    :class:`FeatureMap`."""

    ndim = 3
    dtype = np.dtype(np.float32)

    def __init__(self, feats: np.ndarray, guide: np.ndarray, kernel: LevelKernel):
        self.feats, self.guide = feats, guide
        self.kernel = [t.data for t in _leaves(kernel)]  # float64, as guided_upsample reads them
        ad.check_guided_operands(feats, guide, *self.kernel[:2])
        h, w, c = feats.shape
        self.rows = np.arange(2 * h)
        self.shape = (2 * h, 2 * w, c)

    def _cells(self, cols: np.ndarray) -> np.ndarray:
        """The block's cells in the columns ``cols``, in the order asked."""
        rows, row_at = _distinct(self.rows, 2 * self.feats.shape[0])
        cols, col_at = _distinct(cols, self.shape[1])
        out = np.empty((rows.size, cols.size, self.shape[2]), dtype=np.float32)
        layout = ad.cell_layout(self.feats.shape[1], tuple(cols.tolist()))
        ad.guided_upsample_rows(out, self.feats, self.guide, *self.kernel, rows, layout)
        if not all_finite(out):
            raise ValueError("FeatureMap values must be finite")
        if row_at is not None:
            out = out[row_at]
        return out if col_at is None else out[:, col_at]

    def take(self, indices, axis: int = 0):
        if axis == 1:
            return self._cells(np.arange(self.shape[1])[indices])
        if axis != 0:
            raise ValueError("upsampled cells are taken along axis 0 or 1")
        block = object.__new__(_UpsampledRows)
        block.__dict__.update(self.__dict__, rows=self.rows[indices])
        block.shape = (block.rows.size,) + self.shape[1:]
        return block

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self._cells(np.arange(self.shape[1]))
        return out if dtype is None else out.astype(dtype, copy=False)


def _distinct(indices: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The sorted distinct cells of ``indices`` on an axis of ``size``
    cells, and where each index finds its cell among them: None when they
    are the indices themselves."""
    cells, at = distinct_cells(size, indices)
    return cells, None if cells.size == indices.size and (cells == indices).all() else at[indices]


def build_isp(
    f0: FeatureMap, pyramid: ImagePyramid, params: VdimParams
) -> FeaturePyramid:
    """Grow the full feature pyramid from the base map and its guidance
    images, each level the :class:`_UpsampledRows` of the one below, read
    whole below the top.  The top level's ``data`` is the cell source, so
    window attention, which reads the tapped cells of a band of window rows
    at a time, never computes or holds the whole level.  The base map is
    kept as ``encode`` checked it, with no second scan."""
    need = len(params.levels) + 1
    if len(pyramid.levels) < need:
        raise ValueError(f"image pyramid has {len(pyramid.levels)} levels, need {need}")
    base_img = pyramid.levels[0]
    if (base_img.height, base_img.width) != (f0.height, f0.width):
        raise ValueError("pyramid level 0 dims must equal the base feature dims")
    levels = [FeatureMap._of_checked(f0.data, 0, f0.origin)]  # encode refused non-finite values
    for lvl, kernel in enumerate(params.levels, start=1):
        rows = _UpsampledRows(levels[-1].data, pyramid.levels[lvl].decoded(), kernel)
        data = rows if lvl == len(params.levels) else np.asarray(rows)
        levels.append(FeatureMap._of_checked(data, lvl, f0.origin))
    return FeaturePyramid(levels=levels, origin=f0.origin)


def mlr_objective(
    f0: FeatureMap,
    pyramid: ImagePyramid,
    vdim: VdimParams,
    down: DownsamplerParams,
) -> tuple[list[Tensor], Callable[[list[Tensor]], Tensor]]:
    """One image's training loss: its parameter leaves, in
    :func:`trainable_arrays` order, and a callable building the loss graph.

    The callable rebuilds the whole graph (pyramid construction included)
    from the returned leaves on every invocation; ``pretrain_vdim`` calls it
    once per batch item, and the gradient checks call it repeatedly.
    """
    kernels = [_leaves(lk, trainable=True) for lk in vdim.levels]
    downs = [_leaves(ld, trainable=True) for ld in down.levels]
    flat = [t for level in kernels + downs for t in level]
    guides = [lvl.decoded().astype(np.float64) for lvl in pyramid.levels[1 : len(vdim.levels) + 1]]
    base_img = pyramid.levels[0]
    image_hw = (base_img.height * down.patch, base_img.width * down.patch)
    f0_data = f0.data.astype(np.float64)

    def objective(_params):
        level, pooled = f0_data, []
        for kern, guide, dp in zip(kernels, guides, downs):
            level = ad.guided_upsample(level, guide, *kern)
            pooled.append(ad.window_pool(level, *dp, image_hw, down.patch))
        return ad.recon_loss(pooled, f0_data)

    return flat, objective


@dataclass
class TrainResult:
    vdim: VdimParams
    down: DownsamplerParams
    losses: list[float]


def _train_item(state: tuple, task: tuple[int, list[np.ndarray]]):
    """One batch item's loss and its gradients in :func:`trainable_arrays`
    order, once the step's parameter values are copied into ``state``'s;
    the gradients are None when the loss is not finite."""
    prepared, vdim, down = state
    index, values = task
    for (_, target), value in zip(trainable_arrays(vdim, down), values):
        target[...] = value
    flat, objective = mlr_objective(*prepared[index], vdim, down)
    loss = objective(flat)
    if not np.isfinite(loss.data):
        return loss.item(), None
    ad.backward(loss)
    return loss.item(), [t.grad for t in flat]


def pretrain_vdim(
    corpus: Sequence[Image],
    encoder_spec: EncoderSpec,
    vdim: VdimParams,
    down: DownsamplerParams,
    steps: int,
    lr: float = 1e-3,
    batch: int = 4,
    on_step: Callable[[int, float], None] | None = None,
) -> TrainResult:
    """Jointly fit the upsampling kernels and downsamplers on a frozen encoder.

    Batches cycle through the corpus in order, so the run is a pure function
    of its inputs.  ``losses[k]`` is the batch loss observed at step k+1
    before its update; with ``steps == 0`` the single entry is the initial
    loss, reported as step 0.  ``on_step(step, loss)``, if given, is called
    with each entry as soon as it is known; a non-finite batch item loss
    raises :class:`NumericalError` naming its step.  Parameters are updated
    in place and also returned.

    Each step's batch items run through :func:`hiwin.workers.forked` on the
    usable cores, whose workers fork once per call, after the corpus is
    encoded.  This process sums their losses and gradients in item order,
    so losses and parameters are the same bits for any worker count.  A
    worker that dies ends the call with ``ChildProcessError`` naming the step.
    """
    if not corpus:
        raise ValueError("pretrain_vdim requires a non-empty corpus")
    if batch < 1 or steps < 0:
        raise ValueError(f"pretrain_vdim needs batch >= 1 and steps >= 0, got {batch} and {steps}")
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"pretrain_vdim needs a finite positive lr, got {lr}")
    if encoder_spec.channels != down.channels:
        raise ValueError(
            f"encoder channels {encoder_spec.channels} != downsampler channels {down.channels}"
        )
    prepared = [
        (
            encode(img, encoder_spec, origin=f"corpus:{i}"),
            build_image_pyramid(img, patch=encoder_spec.patch, levels=len(vdim.levels) + 1),
        )
        for i, img in enumerate(corpus)
    ]
    arrays = [a for _, a in trainable_arrays(vdim, down)]
    state = AdamState.for_params(arrays, lr=lr)
    losses: list[float] = []
    # the workers share the encoded corpus copy-on-write
    with forked((prepared, vdim, down), batch, usable_cores()) as run:
        for i in range(max(steps, 1)):
            step = i + 1 if steps else 0
            # a task is pickled before its result arrives, so before the update
            tasks = [((i * batch + k) % len(prepared), arrays) for k in range(batch)]
            lost = f"a training worker ended at step {step} before it returned its items"
            grad_sum = [np.zeros_like(a) for a in arrays]
            loss_sum = 0.0
            for loss, grads in run(_train_item, tasks, lambda _: lost):
                if grads is None:
                    raise NumericalError(f"non-finite training loss at step {step}")
                loss_sum += loss
                for acc, g in zip(grad_sum, grads):
                    acc += g
            if steps:
                grads = [g / batch for g in grad_sum]
                for target, updated in zip(arrays, adam_step(arrays, grads, state)):
                    target[...] = updated
            losses.append(loss_sum / batch)
            if on_step is not None:
                on_step(step, losses[-1])

    return TrainResult(vdim=vdim, down=down, losses=losses)
