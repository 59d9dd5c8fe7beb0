"""Compress a high-resolution image into visual tokens and compare the
window-attention projector with the two reference projectors.

A 1008x672 input is adaptively partitioned into 3x2 slices plus a 336x336
overview.  Every slice is compressed to 144 tokens regardless of its
resolution, the slice maps are stitched back into one spatially consistent
2D map, and the whole sequence (overview first) is flattened row-major.

The demo also shows the window-attention projector's defining property:
a token depends only on its own window's features, which the global
resampler cannot guarantee.

Run:  python3 demos/03_token_compression.py
"""

import numpy as np

from hiwin import (
    AttnParams,
    EncoderSpec,
    FeatureMap,
    FeaturePyramid,
    HiwinConfig,
    Image,
    PipelineConfig,
    VdimParams,
    baseline_mlp,
    baseline_resampler,
    bilinear_resize,
    compress,
    flatten,
    init_mlp_weight,
    run_pipeline,
    synth_corpus,
)

CHANNELS = 16

base = synth_corpus(seed=14, count=1, size=336)[0]
image = Image(bilinear_resize(base.pixels, 672, 1008))
print(f"input: {image.width}x{image.height}")

config = PipelineConfig(
    encoder=EncoderSpec(channels=CHANNELS, seed=14),
    hiwin=HiwinConfig(channels=CHANNELS),
)
vdim = VdimParams.init(d_proj=16, seed=14)
attn = AttnParams.init(config.hiwin, seed=14)

result = run_pipeline(image, vdim, attn, config)
seq = flatten(result.tokens)
print(f"layout: {result.layout.cols} cols x {result.layout.rows} rows")
print(f"pooling grid: {result.grid[0]}x{result.grid[1]}")
print(f"global token map: {result.tokens.global_map.shape[:2]}, "
      f"sequence length {seq.tokens.shape[0]} (144 overview + the rest stitched)")

# --- locality: zero everything outside one window, token (i, j) is unchanged
rng = np.random.default_rng(14)
levels = [
    FeatureMap(rng.standard_normal((24 * 2**l, 24 * 2**l, CHANNELS)).astype(np.float32), level=l)
    for l in range(3)
]
isp = FeaturePyramid(levels=levels)
full = compress(isp, attn, config.hiwin)

# window (i, j) of an H x W level spans column j and row i of the uniform
# 12-way split of each axis: the same normalized region at every level
i, j = 4, 9
masked_levels = []
for fmap in isp.levels:
    h, w = fmap.height, fmap.width
    x0, y0, x1, y1 = j * w / 12, i * h / 12, (j + 1) * w / 12, (i + 1) * h / 12
    data = np.zeros_like(fmap.data)
    data[int(y0) : int(np.ceil(y1)), int(x0) : int(np.ceil(x1))] = fmap.data[
        int(y0) : int(np.ceil(y1)), int(x0) : int(np.ceil(x1))
    ]
    masked_levels.append(FeatureMap(data, level=fmap.level))
masked = compress(FeaturePyramid(levels=masked_levels), attn, config.hiwin)
print(f"\nwindow locality: token ({i},{j}) identical after zeroing the rest:",
      bool(np.array_equal(full.data[i, j], masked.data[i, j])))

resampled = baseline_resampler(FeaturePyramid(levels=masked_levels), attn, config.hiwin)
resampled_full = baseline_resampler(isp, attn, config.hiwin)
print("global resampler under the same edit: token changed:",
      not np.array_equal(resampled_full.data[i, j], resampled.data[i, j]))

mlp = baseline_mlp(isp, 12, init_mlp_weight(CHANNELS, seed=14))
print("\nall projectors emit the same shape:",
      full.data.shape, resampled_full.data.shape, mlp.data.shape)
