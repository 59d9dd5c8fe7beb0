"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its measured figure.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines; the full 300-step training criterion dominates the runtime
(a few minutes on one core).
"""

import functools
import os
import time
from unittest import mock

import numpy as np

from hiwin.autodiff import guided_weights
from hiwin.cli import main as cli_main
from hiwin.encoder import EncoderSpec, FeatureMap, encode, load_features
from hiwin.image_io import Image, build_image_pyramid, load_ppm, save_ppm, synth_corpus
from hiwin.numerics import grad_check
from hiwin.pipeline import PipelineConfig, baseline_resampler, run_pipeline
from hiwin.selfcheck import check_grid_selection, check_window_sampling
from hiwin.slicing import compute_slice_layout
from hiwin.vdim import (
    DownsamplerParams,
    FeaturePyramid,
    VdimParams,
    attention_downsample,
    build_isp,
    mlr_objective,
    pretrain_vdim,
)
from hiwin.window_attn import (
    AttnParams,
    HiwinConfig,
    compress,
    cross_attention,
)

from helpers import zero_outside_window


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"{name}: FAIL", flush=True)
                raise
            print(f"{name}: PASS ({detail})", flush=True)

        return wrapper

    return deco


def small_pipeline_setup(channels=8, seed=0):
    config = PipelineConfig(
        encoder=EncoderSpec(channels=channels, seed=seed),
        hiwin=HiwinConfig(channels=channels),
    )
    vdim = VdimParams.init(d_proj=8, seed=seed)
    attn = AttnParams.init(config.hiwin, seed=seed)
    return config, vdim, attn


@criterion("AC-1 grid-selection oracle")
def test_ac1_grid_selection_oracle():
    start = time.perf_counter()
    ok, detail = check_grid_selection(trials=1000, seed=42)
    elapsed = time.perf_counter() - start
    assert ok, detail
    assert elapsed < 1.0
    return f"{detail}, {elapsed:.3f}s"


@criterion("AC-2 window-sampling oracle")
def test_ac2_window_sampling_oracle():
    # assemble_kv's value rows against scalar_roi_align of every window box of
    # 200 random two-level pyramids, n and grids, sub-cell windows included
    start = time.perf_counter()
    ok, detail = check_window_sampling(trials=200, seed=43)
    elapsed = time.perf_counter() - start
    assert ok, detail
    assert elapsed < 10.0
    return f"{detail}, {elapsed:.1f}s"


@criterion("AC-3 gradient suite")
def test_ac3_gradient_suite():
    image = synth_corpus(11, 1, 112)[0]
    pyramid = build_image_pyramid(image)  # guides at 16x16 and 32x32
    rng = np.random.default_rng(11)
    f0 = FeatureMap(rng.standard_normal((8, 8, 6)).astype(np.float32))
    vdim = VdimParams.init(d_proj=8, seed=11)
    down = DownsamplerParams.init(6, seed=11)
    params, objective = mlr_objective(f0, pyramid, vdim, down)
    n_entries = sum(p.data.size for p in params)
    start = time.perf_counter()
    err = grad_check(objective, params, h=1e-4)
    elapsed = time.perf_counter() - start
    assert err < 1e-4
    assert elapsed < 60.0
    return f"{n_entries} entries, max rel err {err:.2e}, {elapsed:.1f}s"


@criterion("AC-4 detail-injection training")
def test_ac4_training():
    def run():
        corpus = synth_corpus(7, 32, 112)
        spec = EncoderSpec(channels=64, seed=7)
        vdim = VdimParams.init(d_proj=32, seed=7)
        down = DownsamplerParams.init(64, seed=7)
        return pretrain_vdim(corpus, spec, vdim, down, steps=300, lr=1e-3, batch=4)

    start = time.perf_counter()
    first = run()
    elapsed = time.perf_counter() - start
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}):
        second = run()  # one core: the serial loop, where the first run used workers
    ratio = first.losses[-1] / first.losses[0]
    assert len(first.losses) == 300
    assert ratio <= 0.6
    assert first.losses == second.losses
    assert elapsed < 600.0
    return f"loss {first.losses[0]:.4f} -> {first.losses[-1]:.4f} (ratio {ratio:.3f}), {elapsed:.0f}s, deterministic"


@criterion("AC-5 shape and compression invariants")
def test_ac5_shapes():
    config, vdim, attn = small_pipeline_setup()
    checked = []
    for w, h in ((112, 112), (336, 336), (672, 336), (1008, 672), (336, 1008)):
        rng = np.random.default_rng(w + h)
        image = Image(rng.uniform(0, 1, (h, w, 3)).astype(np.float32))
        result = run_pipeline(image, vdim, attn, config)
        layout = result.layout
        assert layout.rows * layout.cols <= 6
        # 144 tokens per unit: assemble refuses a slice map whose N differs from the overview's
        assert result.tokens.overview.shape[:2] == (12, 12)
        assert result.tokens.global_map.shape[:2] == (12 * layout.rows, 12 * layout.cols)
        checked.append(f"{w}x{h}:{layout.cols}x{layout.rows}")
    return "; ".join(checked)


@criterion("AC-6 window locality")
def test_ac6_locality():
    rng = np.random.default_rng(64)
    levels = [
        FeatureMap(rng.standard_normal((24 * 2**l, 24 * 2**l, 8)).astype(np.float32), level=l)
        for l in range(3)
    ]
    isp = FeaturePyramid(levels=levels)
    config = HiwinConfig(channels=8)
    params = AttnParams.init(config, seed=64)
    full = compress(isp, params, config)
    for _ in range(20):
        i, j = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        masked = compress(zero_outside_window(isp, 12, (i, j)), params, config)
        assert np.array_equal(full.data[i, j], masked.data[i, j])

        perturbed_levels = []
        for lvl, fmap in enumerate(isp.levels):
            data = fmap.data.copy()
            scale = 2 * 2**lvl
            data[i * scale, j * scale] += 1.0
            perturbed_levels.append(FeatureMap(data, level=fmap.level))
        bumped = compress(FeaturePyramid(levels=perturbed_levels), params, config)
        assert not np.array_equal(full.data[i, j], bumped.data[i, j])
    return "20 windows bit-identical under outside zeroing; inside edits observed"


@criterion("AC-7 constancy chain")
def test_ac7_constancy():
    config, vdim, attn = small_pipeline_setup(seed=5)
    image = Image(np.full((336, 336, 3), 0.5, dtype=np.float32))
    pyramid = build_image_pyramid(image)
    f0 = encode(image, config.encoder)
    isp = build_isp(f0, pyramid, vdim)
    ref = isp.levels[0].data[0, 0]
    for fmap in isp.levels:
        assert np.abs(fmap.data - ref).max() <= 1e-6

    tokens = compress(isp, attn, config.hiwin).data.reshape(-1, 8)
    assert np.abs(tokens - tokens[0]).max() <= 1e-6
    resampled = baseline_resampler(isp, attn, config.hiwin).data.reshape(-1, 8)
    assert np.abs(resampled - resampled[0]).max() <= 1e-6
    return "ISP constant to 1e-6; hiwin and resampler tokens uniform"


@criterion("AC-8 softmax normalization")
def test_ac8_normalization():
    rng = np.random.default_rng(8)
    # attention rows
    config = HiwinConfig(channels=8)
    params = AttnParams.init(config, seed=8)
    q = rng.standard_normal((20, 1, 8))
    k = rng.standard_normal((20, 9, 8))
    _, att = cross_attention(q, k, k, params, config.heads)
    assert np.abs(att.sum(axis=-1) - 1.0).max() <= 1e-6

    # guided-upsampling kernel weights (similarity softmax times spatial decay,
    # renormalized) on a random guidance image
    guide = Image(rng.uniform(0, 1, (16, 16, 3)).astype(np.float32))
    vdim = VdimParams.init(d_proj=8, seed=8)
    for level in range(2):
        lk = vdim.levels[level]
        w = guided_weights(guide.decoded(), lk.proj_w, lk.proj_b, lk.log_sigma_dist, lk.log_sigma_sim)
        assert np.abs(w.sum(axis=-1) - 1.0).max() <= 1e-6

    # downsampler window softmax: with identity affine, a constant-one input
    # channel reduces to the attention-weight sum itself
    feats = rng.standard_normal((16, 16, 4))
    feats[:, :, 0] = 1.0
    down = DownsamplerParams.init(4, seed=8)
    down.levels[0].gamma[:] = 1.0
    down.levels[0].beta[:] = 0.0
    out = attention_downsample(
        FeatureMap(feats.astype(np.float32), level=1), (112, 112), down
    )
    assert np.abs(out.data[:, :, 0] - 1.0).max() <= 1e-6
    return "attention, kernel, and downsampler weights all sum to 1"


@criterion("AC-9 determinism and formats")
def test_ac9_determinism(tmp_path):
    img_path = tmp_path / "img.ppm"
    save_ppm(synth_corpus(3, 1, 336)[0], img_path)
    ckpt = tmp_path / "m.ckpt"
    assert (
        cli_main(
            ["pretrain-vdim", "--corpus", "synthetic", "--count", "2", "--size", "56",
             "--channels", "8", "--d-proj", "4", "--steps", "1", "--batch", "2",
             "--seed", "3", "--out", str(ckpt)]
        )
        == 0
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.toks"
        assert cli_main(
            ["compress", "--image", str(img_path), "--ckpt", str(ckpt),
             "--out", str(out), "--seed", "3"]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    prefixes = []
    for name in ("p", "q"):
        prefix = tmp_path / name
        assert cli_main(
            ["build-isp", "--image", str(img_path), "--ckpt", str(ckpt),
             "--out-prefix", str(prefix), "--seed", "3"]
        ) == 0
        prefixes.append(prefix)
    for level in range(3):
        a = (tmp_path / f"p.l{level}.ispf").read_bytes()
        b = (tmp_path / f"q.l{level}.ispf").read_bytes()
        assert a == b

    # PPM and ISPF round trips are bit-exact
    resaved = tmp_path / "resaved.ppm"
    save_ppm(load_ppm(img_path), resaved)
    assert resaved.read_bytes() == img_path.read_bytes()
    fmap = load_features(f"{prefixes[0]}.l1.ispf")
    from hiwin.encoder import save_features

    re_feat = tmp_path / "re.ispf"
    save_features(fmap, re_feat)
    assert re_feat.read_bytes() == (tmp_path / "p.l1.ispf").read_bytes()

    assert cli_main(["selftest"]) == 0
    return "TOKS/ISPF byte-identical across runs; round trips exact; selftest 0"


@criterion("AC-10 slicing tiling and transposition")
def test_ac10_slicing():
    rng = np.random.default_rng(10)
    squares = 0
    for _ in range(200):
        w = int(rng.integers(56, 1401))
        h = int(rng.integers(56, 1401))
        layout = compute_slice_layout(w, h)
        covered = np.zeros((h, w), dtype=np.uint8)
        for x0, y0, x1, y1 in layout.rects:
            covered[y0:y1, x0:x1] += 1
        assert covered.min() == 1 and covered.max() == 1
        if w == h:
            # transposition is the identity image; the tall/wide grid choice
            # carries no orientation information, so only tiling is asserted
            squares += 1
            continue
        t = compute_slice_layout(h, w)
        assert (t.cols, t.rows) == (layout.rows, layout.cols)
    return f"200 layouts tile exactly; transposition verified on {200 - squares} non-square dims"
