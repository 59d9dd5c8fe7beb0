"""Desk-scale vision-language projector: builds a detail-injected feature
pyramid from patch-encoder features and compresses it into a fixed grid of
visual tokens via hierarchical window attention.

Importing the package pins the BLAS pools of numpy to one thread, unless the
variable is already set: inference units and training batch items run on
forked worker processes (``hiwin.workers``), one per usable core at most,
and a BLAS pool per worker would oversubscribe the cores.  It takes effect
only if numpy was not imported before ``hiwin``.

On glibc it also fixes the allocator's mmap threshold at 32 MiB and its trim
threshold at 64 MiB, unless ``MALLOC_MMAP_THRESHOLD_`` or
``MALLOC_TRIM_THRESHOLD_`` is set.  Every unit allocates and frees arrays of
a few MB; with glibc's adaptive thresholds they are often handed back to the
kernel and faulted in again for the next unit.
"""

import ctypes
import os
import sys

# before the first numpy import, which starts the BLAS thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
if sys.platform == "linux" and not {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & set(os.environ):
    _mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if _mallopt is not None:
        _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        _mallopt(_M_TRIM_THRESHOLD, 64 << 20)

from .autodiff import NumericalError, Tensor
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .encoder import EncoderSpec, FeatureMap, encode, load_features, save_features
from .formats import DataFormatError
from .image_io import (
    Image,
    ImagePyramid,
    PpmDepthError,
    PpmError,
    build_image_pyramid,
    load_ppm,
    resize_image,
    save_ppm,
    synth_corpus,
)
from .numerics import AdamState, adam_step, bilinear_resize, grad_check, pca_rgb, softmax
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    baseline_mlp,
    baseline_resampler,
    init_mlp_weight,
    project_tokens,
    run_pipeline,
)
from .slicing import SliceLayout, compute_slice_layout, extract_slices, resize_to_patch_multiple
from .token_org import (
    AssembledTokens,
    TokenSequence,
    assemble,
    flatten,
    load_tokens,
    save_index,
    save_tokens,
)
from .vdim import (
    DownsamplerParams,
    FeaturePyramid,
    TrainResult,
    VdimParams,
    attention_downsample,
    build_isp,
    jbu_upsample,
    mlr_objective,
    pretrain_vdim,
)
from .window_attn import (
    AttnParams,
    HiwinConfig,
    TokenMap,
    assemble_kv,
    compress,
    cross_attention,
    position_embedding_2d,
    select_grid,
)

__version__ = "0.1.0"
