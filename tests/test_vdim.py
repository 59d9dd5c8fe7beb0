"""Guided upsampling, the attention downsampler, the reconstruction loss,
and the training loop."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hiwin
from hiwin import autodiff as ad
from hiwin import window_attn
from hiwin.autodiff import RADIUS
from hiwin.checkpoint import save_checkpoint
from hiwin.encoder import EncoderSpec, FeatureMap, encode
from hiwin.image_io import Image, build_image_pyramid, synth_corpus
from hiwin.numerics import NumericalError, grad_check
from hiwin.vdim import (
    DownsamplerParams,
    FeaturePyramid,
    VdimParams,
    _UpsampledLevel,
    attention_downsample,
    build_isp,
    jbu_upsample,
    mlr_objective,
    pretrain_vdim,
    trainable_arrays,
)
from hiwin.window_attn import PROPOSALS, AttnParams, HiwinConfig, assemble_kv

from helpers import children, counted_calls, scalar_guided_upsample, scalar_resize, traced_peak


def oracle_upsample(f0: FeatureMap, guide: Image, params: VdimParams) -> np.ndarray:
    lk = params.levels[f0.level]
    return scalar_guided_upsample(
        f0.data, guide.pixels, lk.proj_w, lk.proj_b, lk.sigma_dist, lk.sigma_sim, RADIUS
    )


def mean_downsampler(channels: int) -> DownsamplerParams:
    """Saliency weights zero -> uniform window attention -> plain mean."""
    params = DownsamplerParams.init(channels, seed=0)
    for ld in params.levels:
        ld.sal_w[:] = 0.0
        ld.sal_b[...] = 0.0
        ld.gamma[:] = 1.0
        ld.beta[:] = 0.0
    return params


class TestJbuUpsample:
    def test_constancy(self):
        f0 = FeatureMap(np.full((8, 8, 6), 0.7, dtype=np.float32), level=0)
        guide = Image(np.full((16, 16, 3), 0.5))
        out = jbu_upsample(f0, guide, VdimParams.init(d_proj=8, seed=1), level=0)
        assert out.data.shape == (16, 16, 6)
        assert out.level == 1
        np.testing.assert_allclose(out.data, 0.7, atol=1e-6)

    def test_doubles_dims(self):
        rng = np.random.default_rng(0)
        f0 = FeatureMap(rng.standard_normal((8, 8, 4)).astype(np.float32))
        guide = Image(rng.uniform(0, 1, (16, 16, 3)).astype(np.float32))
        out = jbu_upsample(f0, guide, VdimParams.init(d_proj=8, seed=0), level=0)
        assert out.data.shape == (16, 16, 4)

    def test_peak_memory_of_a_level_2_upsample(self):
        # one inference step of the pyramid, 48x48x64 to 96x96x64: guards
        # against a float64 copy of the map, a block's logits living
        # through its mix, a whole map of weights, a float64 output, a lift
        # of the map, a whole map of composite weights, the float64 guide
        # or blocks of more coarse rows than one row_blocks block coming
        # back: measured peak 3.92 MiB, the float32 map edge-padded as it
        # is and each block's patches cast to float64, the float64 guide
        # dropped once padded, the weights and composite weights built per
        # block of 3 coarse rows (the row_blocks of one coarse row's
        # weights), the bands per block of the mix, into a float32 output,
        # a block's logits freed before its composite weights and those
        # after its mix; 4.10 MiB while each block of window dots lived
        # through the next one's product; 3.90 MiB with the weights built
        # per block of 3 coarse rows and the bands per block of the mix;
        # 4.67 MiB with the guide kept and blocks of 8
        # coarse rows; 5.33 MiB
        # while the map was padded in float64, its unpadded float64 copy
        # freed before the blocks; 6.46 MiB while that copy lived through the blocks;
        # 7.03 MiB while a block's weights lived on through the
        # next block's window dots; 7.61 MiB with a block's logits alive
        # through its mix; 10.91 MiB with the whole (96, 96, 49) float64
        # weights and a float64 output; 15.09 MiB while the map was lifted
        # onto the padded 102x102 grid and 49 lifted cells mixed
        rng = np.random.default_rng(0)
        f1 = FeatureMap(rng.standard_normal((48, 48, 64)).astype(np.float32), level=1)
        guide = Image(rng.uniform(0, 1, (96, 96, 3)).astype(np.float32))
        params = VdimParams.init(d_proj=32, seed=0)
        out, peak = traced_peak(lambda: jbu_upsample(f1, guide, params, level=1))
        assert out.data.shape == (96, 96, 64)
        assert peak < 4.2 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_dim_mismatch_rejected(self):
        f0 = FeatureMap(np.zeros((8, 8, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="guide dims 16x20 do not match 2x feature dims 16x16"):
            jbu_upsample(f0, Image(np.zeros((20, 16, 3))), VdimParams.init(seed=0), level=0)

    def test_wide_spatial_kernel_on_uniform_guide_is_local_mean(self):
        # sigma_dist -> inf and a uniform guide reduce the kernel to a plain
        # average over the clamped 7x7 neighborhood of the bilinear lift
        rng = np.random.default_rng(1)
        f0 = FeatureMap(rng.standard_normal((5, 6, 3)).astype(np.float32))
        guide = Image(np.full((10, 12, 3), 0.25))
        params = VdimParams.init(d_proj=8, seed=3)
        params.levels[0].log_sigma_dist[...] = np.log(1e8)
        out = jbu_upsample(f0, guide, params, level=0)
        want = oracle_upsample(f0, guide, params)
        np.testing.assert_allclose(out.data, want, atol=1e-5)
        up = scalar_resize(f0.data, 10, 12)
        for y, x in ((3, 3), (6, 8)):  # windows clear of the edges
            window = up[y - 3 : y + 4, x - 3 : x + 4]
            np.testing.assert_allclose(out.data[y, x], window.mean(axis=(0, 1)), atol=1e-5)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        f0 = FeatureMap(rng.standard_normal((5, 6, 4)).astype(np.float32))
        guide = Image(rng.uniform(0, 1, (10, 12, 3)).astype(np.float32))
        params = VdimParams.init(d_proj=8, seed=6)
        params.levels[0].log_sigma_dist[...] = 0.4
        params.levels[0].log_sigma_sim[...] = -0.3
        out = jbu_upsample(f0, guide, params, level=0)
        np.testing.assert_allclose(out.data, oracle_upsample(f0, guide, params), atol=1e-5)

    def test_kernel_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        guide = Image(rng.uniform(0, 1, (12, 10, 3)).astype(np.float32))
        params = VdimParams.init(d_proj=8, seed=4)
        for level in range(2):
            lk = params.levels[level]
            w = ad.guided_weights(guide.decoded(), lk.proj_w, lk.proj_b, lk.log_sigma_dist, lk.log_sigma_sim)
            assert w.shape == (12, 10, 49)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)


class TestAttentionDownsample:
    def test_uniform_saliency_is_window_mean_on_constant(self):
        fmap = FeatureMap(np.full((8, 8, 5), 1.3, dtype=np.float32), level=1)
        out = attention_downsample(fmap, (56, 56), mean_downsampler(5))
        assert out.data.shape == (4, 4, 5)
        np.testing.assert_allclose(out.data, 1.3, atol=1e-6)

    def test_output_dims_match_base_level(self):
        rng = np.random.default_rng(3)
        fmap = FeatureMap(rng.standard_normal((96, 96, 4)).astype(np.float32), level=2)
        out = attention_downsample(fmap, (336, 336), DownsamplerParams.init(4, seed=0))
        assert out.data.shape == (24, 24, 4)

    def test_one_hot_saliency_selects_argmax_pixel(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(-1, 1, (8, 8, 4))
        # channel 0 is a tilted ramp, so each window has a unique sharp max
        ys, xs = np.meshgrid(np.linspace(0, 10, 8), np.linspace(0, 10, 8), indexing="ij")
        data[:, :, 0] = xs + 0.3 * ys
        fmap = FeatureMap(data.astype(np.float32), level=1)
        params = mean_downsampler(4)
        params.levels[0].sal_w[0] = 1e4
        out = attention_downsample(fmap, (56, 56), params)

        up = scalar_resize(fmap.data, 56, 56)
        want = np.zeros((4, 4, 4))
        for wy in range(4):
            for wx in range(4):
                win = up[wy * 14 : (wy + 1) * 14, wx * 14 : (wx + 1) * 14]
                flat = win.reshape(-1, 4)
                want[wy, wx] = flat[np.argmax(flat[:, 0])]
        np.testing.assert_allclose(out.data, want, atol=1e-5)

    def test_peak_memory_at_full_resolution(self):
        # guards against lifting the map to image resolution: one (336, 336,
        # 64) float64 array is 55 MiB
        rng = np.random.default_rng(9)
        fmap = FeatureMap(rng.standard_normal((96, 96, 64)).astype(np.float32), level=2)
        params = DownsamplerParams.init(64, seed=9)
        out, peak = traced_peak(lambda: attention_downsample(fmap, (336, 336), params))
        assert out.data.shape == (24, 24, 64)
        assert peak < 64 * 2**20

    def test_level_and_dims_validated(self):
        fmap = FeatureMap(np.zeros((8, 8, 4), dtype=np.float32), level=0)
        with pytest.raises(ValueError):
            attention_downsample(fmap, (56, 56), DownsamplerParams.init(4))
        with pytest.raises(ValueError):
            attention_downsample(
                FeatureMap(np.zeros((8, 8, 4), dtype=np.float32), level=1),
                (50, 56),
                DownsamplerParams.init(4),
            )


def constant_pyramid(values, channels=1, base=1):
    levels = []
    for lvl, v in enumerate(values):
        side = base * 2**lvl
        levels.append(
            FeatureMap(np.full((side, side, channels), v, dtype=np.float32), level=lvl)
        )
    return FeaturePyramid(levels=levels)


def pyramid_loss(isp: FeaturePyramid, down: DownsamplerParams, image_dims: tuple[int, int]) -> float:
    """The reconstruction loss of a built pyramid: each upper level reduced
    by ``window_pool`` under its downsampler, against the base map."""
    pooled = []
    for fmap in isp.levels[1:]:
        ld = down.levels[fmap.level - 1]
        f = fmap.data.astype(np.float64)
        pooled.append(ad.window_pool(f, ld.gamma, ld.beta, ld.sal_w, ld.sal_b, image_dims, down.patch))
    return ad.recon_loss(pooled, isp.levels[0].data.astype(np.float64)).item()


class TestMlrLoss:
    def test_zero_residual(self):
        isp = constant_pyramid([2.0, 2.0, 2.0], channels=3)
        loss = pyramid_loss(isp, mean_downsampler(3), (14, 14))
        assert loss < 1e-10

    def test_hand_built_value(self):
        # base 2, reductions 3 and 1 -> 0.5 * ((2-3)^2 + (2-1)^2) = 1.0
        isp = constant_pyramid([2.0, 3.0, 1.0])
        loss = pyramid_loss(isp, mean_downsampler(1), (14, 14))
        assert loss == pytest.approx(1.0, abs=1e-9)

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        levels = [
            FeatureMap(rng.standard_normal((2 * 2**l, 2 * 2**l, 4)).astype(np.float32), level=l)
            for l in range(3)
        ]
        isp = FeaturePyramid(levels=levels)
        assert pyramid_loss(isp, DownsamplerParams.init(4, seed=1), (28, 28)) >= 0.0


class TestGradients:
    def test_objective_matches_finite_differences(self):
        image = synth_corpus(3, 1, 56)[0]
        pyramid = build_image_pyramid(image)
        rng = np.random.default_rng(6)
        f0 = FeatureMap(rng.standard_normal((4, 4, 5)).astype(np.float32))
        vdim = VdimParams.init(d_proj=6, seed=7)
        down = DownsamplerParams.init(5, seed=8)
        params, objective = mlr_objective(f0, pyramid, vdim, down)
        assert grad_check(objective, params, h=1e-4) < 1e-4


class TestBuildIsp:
    def test_standard_dims(self):
        img = synth_corpus(0, 1, 336)[0]
        pyramid = build_image_pyramid(img)
        f0 = encode(img, EncoderSpec(channels=8, seed=0))
        isp = build_isp(f0, pyramid, VdimParams.init(d_proj=8, seed=0))
        assert [(m.height, m.width) for m in isp.levels] == [(24, 24), (48, 48), (96, 96)]
        assert [m.level for m in isp.levels] == [0, 1, 2]

    def test_rectangular_dims_double(self):
        img = synth_corpus(1, 1, 336)[0]
        img = Image(img.pixels[:224, :, :])  # 224x336
        pyramid = build_image_pyramid(img)
        f0 = encode(img, EncoderSpec(channels=4, seed=0))
        isp = build_isp(f0, pyramid, VdimParams.init(d_proj=8, seed=1))
        assert [(m.height, m.width) for m in isp.levels] == [(16, 24), (32, 48), (64, 96)]

    def test_peak_memory_of_one_unit(self):
        # level 2 is computed only at the cells compress asks for, so
        # level 1 (one block of 6 coarse rows' weights and its float32
        # output) sets the peak: measured 1.47 MiB; 1.52 MiB while each
        # block of window dots lived through the next one's product and the
        # map was scanned a second time; 4.47 MiB with level 2
        # built whole from blocks of 3 coarse rows' weights into a float32
        # output, with no float64 copy of a level or of a dropped guide;
        # 5.24 MiB with blocks of 8 coarse rows and
        # the float64 guide kept; 5.89 MiB while
        # each upsample padded a float64 copy of its map; 7.02 MiB while
        # that map's unpadded float64 copy lived through the blocks and
        # 7.59 MiB while a block's weights lived on through
        # the next block's window dots; 11.47 MiB with the whole (96, 96,
        # 49) float64 weights and a float64 output; 15.7 MiB with them and
        # the padded lift; 27.6 MiB while the similarity softmax, its
        # logits and an edge pad of the unpadded lift were alive together.
        # A per-cell neighbor stack, (96, 96, 49, 64) float64, would be 231 MB
        img = synth_corpus(0, 1, 336)[0]
        pyramid = build_image_pyramid(img)
        f0 = encode(img, EncoderSpec(channels=64, seed=0))
        params = VdimParams.init(d_proj=32, seed=0)
        _, peak = traced_peak(lambda: build_isp(f0, pyramid, params))
        assert peak < 1.7 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_constant_chain(self):
        img = Image(np.full((112, 112, 3), 0.5))
        pyramid = build_image_pyramid(img)
        f0 = encode(img, EncoderSpec(channels=6, seed=2))
        isp = build_isp(f0, pyramid, VdimParams.init(d_proj=8, seed=2))
        ref = isp.levels[0].data[0, 0]
        for fmap in isp.levels:
            want = np.broadcast_to(ref, fmap.data.shape)
            np.testing.assert_allclose(fmap.data, want, atol=1e-6)


def trained_upsample(f: FeatureMap, guide: Image, params: VdimParams) -> np.ndarray:
    """The training op's float64 output for ``f``'s kernel, cast to float32:
    the whole map, computed independently of the inference kernel."""
    lk = params.levels[f.level]
    out = ad.guided_upsample(f.data, guide.decoded(), lk.proj_w, lk.proj_b, lk.log_sigma_dist, lk.log_sigma_sim)
    return out.data.astype(np.float32)


def level_and_eager(h, w, c, seed=0):
    """An upsampled level of the level-2 kernel over a random (h, w, C) map,
    and :func:`trained_upsample` of the same map."""
    rng = np.random.default_rng(seed)
    f1 = FeatureMap(rng.standard_normal((h, w, c)).astype(np.float32), level=1)
    guide = Image(rng.uniform(0, 1, (2 * h, 2 * w, 3)).astype(np.float32))
    params = VdimParams.init(d_proj=8, seed=seed)
    return _UpsampledLevel(f1.data, guide.decoded(), params.levels[1]), trained_upsample(f1, guide, params)


def lazy_and_eager_pyramids(size, channels, seed=0):
    """``build_isp`` of a random size x size image, and the same pyramid
    with its top level :func:`trained_upsample` of level 1."""
    img = Image(np.random.default_rng(seed).uniform(0, 1, (size, size, 3)).astype(np.float32))
    pyramid = build_image_pyramid(img)
    params = VdimParams.init(d_proj=8, seed=seed)
    lazy = build_isp(encode(img, EncoderSpec(channels=channels, seed=seed)), pyramid, params)
    top = FeatureMap(trained_upsample(lazy.levels[1], pyramid.levels[2], params), level=2, origin=lazy.origin)
    return lazy, FeaturePyramid(lazy.levels[:2] + [top], origin=lazy.origin)


# odd heights, and widths that are not a multiple of the upsampler's tile
MAP_SIZES = [(5, 7), (9, 13), (16, 24), (48, 48)]


def asked_indices(rng, size):
    """A random non-empty set of sorted distinct cells of an axis of ``size`` cells."""
    return np.unique(rng.integers(0, size, rng.integers(1, 2 * size)))


def taps_read(size, n, r, first=0, last=None):
    """The sorted distinct cells that the taps of windows ``first .. last - 1``
    read along an axis of ``size`` cells cut into n windows of r bins."""
    i0, i1, _ = window_attn._window_taps(size, n, r)
    return np.union1d(i0[first:last], i1[first:last])


class TestUpsampledLevel:
    @pytest.mark.parametrize("c", [4, 64])
    @pytest.mark.parametrize("hw", MAP_SIZES)
    def test_every_single_row_and_column_is_the_eager_one(self, hw, c):
        level, eager = level_and_eager(*hw, c)
        every_row, every_col = np.arange(eager.shape[0]), np.arange(eager.shape[1])
        for y in every_row:
            assert np.array_equal(level.cells(np.array([y]), every_col), eager[[y]])
        for x in every_col:
            assert np.array_equal(level.cells(every_row, np.array([x])), eager[:, [x]])

    @pytest.mark.parametrize("c", [4, 64])
    @pytest.mark.parametrize("hw", MAP_SIZES)
    def test_random_cell_sets_are_the_eager_cells(self, hw, c):
        level, eager = level_and_eager(*hw, c, seed=1)
        rng = np.random.default_rng(hw[0] * c)
        for _ in range(24):
            rows, cols = asked_indices(rng, eager.shape[0]), asked_indices(rng, eager.shape[1])
            got = level.cells(rows, cols)
            assert got.shape == (rows.size, cols.size, c) and got.dtype == np.float32
            assert np.array_equal(got, eager[rows][:, cols])

    @pytest.mark.parametrize("c", [4, 64])
    @pytest.mark.parametrize("hw", MAP_SIZES)
    def test_asarray_is_the_eager_map(self, hw, c):
        level, eager = level_and_eager(*hw, c, seed=2)
        assert level.shape == eager.shape
        whole = np.asarray(level)
        assert whole.dtype == np.float32 and np.array_equal(whole, eager)
        assert np.array_equal(np.asarray(level, dtype=np.float64), eager.astype(np.float64))
        rows = np.arange(0, eager.shape[0], 3)
        assert np.array_equal(level.cells(rows, np.arange(eager.shape[1])), eager[rows])

    @pytest.mark.parametrize("n", [5, 12])
    @pytest.mark.parametrize("grid", PROPOSALS)
    def test_the_cells_assemble_kv_asks_for_are_the_eager_cells(self, grid, n, monkeypatch):
        # every split into blocks of r window rows, r = 1 .. n; at n = 5 a
        # window's rows end mid coarse row.  Each block asks the top level
        # once, for exactly the cells its taps read
        lazy, eager = lazy_and_eager_pyramids(336, channels=8, seed=3)
        params = AttnParams.init(HiwinConfig(channels=8), seed=3)
        top, cells, asked = eager.levels[-1].data, _UpsampledLevel.cells, []

        def checked_cells(self, rows, cols):
            got = cells(self, rows, cols)
            asked.append((rows, cols))
            assert np.array_equal(got, top[rows][:, cols])
            return got

        monkeypatch.setattr(_UpsampledLevel, "cells", checked_cells)
        (height, width, _), (rw, rh) = top.shape, grid
        for r in range(1, n + 1):
            for a in range(0, n, r):
                rows = (a, min(a + r, n))
                before = len(asked)
                keys, got = assemble_kv(lazy, n, grid, params, rows)
                want_keys, want = assemble_kv(eager, n, grid, params, rows)
                assert np.array_equal(got, want)
                assert all(np.array_equal(k, w) for k, w in zip(keys, want_keys))
                assert len(asked) == before + 1
                asked_rows, asked_cols = asked[-1]
                assert np.array_equal(asked_rows, taps_read(height, n, rh, *rows))
                assert np.array_equal(asked_cols, taps_read(width, n, rw))

    def test_assemble_kv_of_every_cell_asks_for_every_cell_once(self, monkeypatch):
        # 42x42 pixels: a 12x12 top level, one row and column per window at
        # n = 12, every cell tapped
        lazy, eager = lazy_and_eager_pyramids(42, channels=4, seed=4)
        params = AttnParams.init(HiwinConfig(channels=4), seed=4)
        asked, cells = [], _UpsampledLevel.cells

        def recorded_cells(self, rows, cols):
            asked.append((rows.tolist(), cols.tolist()))
            return cells(self, rows, cols)

        monkeypatch.setattr(_UpsampledLevel, "cells", recorded_cells)
        keys, values = assemble_kv(lazy, 12, (3, 3), params)
        want_keys, want_values = assemble_kv(eager, 12, (3, 3), params)
        assert asked == [(list(range(12)), list(range(12)))]
        assert np.array_equal(values, want_values)
        assert all(np.array_equal(k, w) for k, w in zip(keys, want_keys))

    def test_a_non_finite_cell_raises_the_feature_map_error(self):
        params = VdimParams.init(d_proj=8, seed=5)
        params.levels[1].log_sigma_sim[...] = -400.0  # sigma_sim^2 underflows to 0
        rng = np.random.default_rng(5)
        f1 = FeatureMap(rng.standard_normal((5, 7, 4)).astype(np.float32), level=1)
        guide = Image(rng.uniform(0, 1, (10, 14, 3)).astype(np.float32))
        level = _UpsampledLevel(f1.data, guide.decoded(), params.levels[1])
        with pytest.raises(ValueError) as want, np.errstate(all="ignore"):
            FeatureMap(trained_upsample(f1, guide, params), level=2)  # the whole map's FeatureMap refuses it
        reads = (
            lambda: level.cells(np.array([3]), np.array([2, 5])),
            lambda: level.cells(np.array([3]), np.arange(14)),
            lambda: np.asarray(level),
            lambda: jbu_upsample(f1, guide, params, 1),
        )
        for read in reads:
            with pytest.raises(ValueError) as got, np.errstate(all="ignore"):
                read()
            assert str(got.value) == str(want.value)


# (Python, numpy) versions -> the bound of
# TestPretrain.test_calls_per_item_of_an_ac4_step
CALLS_PER_ITEM = {("3.11.7", "2.4.6"): 1_260}


# kills a training worker when step 1 ends, and waits until it has exited,
# leaving it for the caller to reap; prints the error and the children left
_KILL_A_WORKER = """
import os
import signal
import time
import hiwin
from hiwin.encoder import EncoderSpec
from hiwin.image_io import synth_corpus
from hiwin.vdim import DownsamplerParams, VdimParams, pretrain_vdim
from helpers import children, exited

def on_step(step, loss):
    if step == 1:
        worker = children()[0]
        os.kill(worker, signal.SIGKILL)
        while not exited(worker):
            time.sleep(0.01)

os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any machine
try:
    pretrain_vdim(
        synth_corpus(5, 8, 56), EncoderSpec(channels=6, seed=5), VdimParams.init(d_proj=4, seed=5),
        DownsamplerParams.init(6, seed=5), steps=4, batch=2, on_step=on_step,
    )
except ChildProcessError as e:
    print(e)
print(children())
"""


class TestPretrain:
    def small_setup(self, seed=5):
        corpus = synth_corpus(seed, 8, 56)
        spec = EncoderSpec(channels=6, seed=seed)
        vdim = VdimParams.init(d_proj=4, seed=seed)
        down = DownsamplerParams.init(6, seed=seed)
        return corpus, spec, vdim, down

    def test_zero_steps(self):
        corpus, spec, vdim, down = self.small_setup()
        before = [a.copy() for _, a in trainable_arrays(vdim, down)]
        result = pretrain_vdim(corpus, spec, vdim, down, steps=0, batch=2)
        assert len(result.losses) == 1
        for (_, after), snap in zip(trainable_arrays(vdim, down), before):
            np.testing.assert_array_equal(after, snap)

    def test_non_finite_initial_loss_names_step_zero(self):
        # the zero-step call returned [nan] silently
        corpus, spec, vdim, down = self.small_setup()
        vdim.levels[1].log_sigma_sim[...] = -400.0
        with pytest.raises(NumericalError, match="at step 0"), np.errstate(all="ignore"):
            pretrain_vdim(corpus, spec, vdim, down, steps=0, batch=2)

    def test_deterministic(self):
        corpus, spec, _, _ = self.small_setup()
        r1 = pretrain_vdim(
            corpus, spec, VdimParams.init(d_proj=4, seed=5), DownsamplerParams.init(6, seed=5),
            steps=6, batch=2,
        )
        r2 = pretrain_vdim(
            corpus, spec, VdimParams.init(d_proj=4, seed=5), DownsamplerParams.init(6, seed=5),
            steps=6, batch=2,
        )
        assert r1.losses == r2.losses
        assert len(r1.losses) == 6

    def test_on_step_reports_each_loss_when_its_step_ends(self):
        corpus, spec, vdim, down = self.small_setup()
        seen = []

        def on_step(step, loss):
            # parameters already hold this step's update when it is reported
            seen.append((step, loss, [a.copy() for _, a in trainable_arrays(vdim, down)]))

        result = pretrain_vdim(corpus, spec, vdim, down, steps=3, batch=2, on_step=on_step)
        assert [(step, loss) for step, loss, _ in seen] == list(enumerate(result.losses, start=1))
        assert not all(np.array_equal(a, b) for a, b in zip(seen[0][2], seen[1][2]))
        zero = []
        result = pretrain_vdim(corpus, spec, vdim, down, steps=0, batch=2, on_step=lambda *e: zero.append(e))
        assert zero == [(0, result.losses[0])]

    def test_saliency_bias_stays_zero(self):
        # a shift of every score in a window leaves its softmax unchanged, so
        # sal_b gets an exactly zero gradient and Adam never moves it
        corpus, spec, vdim, down = self.small_setup()
        pretrain_vdim(corpus, spec, vdim, down, steps=3, lr=1e-2, batch=2)
        for name, arr in trainable_arrays(vdim, down):
            if name.endswith(".sal_b"):
                assert arr == 0.0, name

    def test_loss_decreases_on_short_run(self):
        corpus, spec, vdim, down = self.small_setup()
        result = pretrain_vdim(corpus, spec, vdim, down, steps=24, lr=1e-2, batch=2)
        assert result.losses[-1] < result.losses[0]

    def test_empty_corpus_rejected(self):
        _, spec, vdim, down = self.small_setup()
        with pytest.raises(ValueError):
            pretrain_vdim([], spec, vdim, down, steps=1)

    @pytest.mark.parametrize("steps, batch", [(-3, 2), (1, 0)])
    def test_negative_steps_or_empty_batch_rejected(self, steps, batch):
        corpus, spec, vdim, down = self.small_setup()
        with pytest.raises(ValueError, match="batch >= 1 and steps >= 0"):
            pretrain_vdim(corpus, spec, vdim, down, steps=steps, batch=batch)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
    def test_non_finite_or_non_positive_lr_rejected(self, lr):
        corpus, spec, vdim, down = self.small_setup()
        with pytest.raises(ValueError, match="finite positive lr"):
            pretrain_vdim(corpus, spec, vdim, down, steps=1, lr=lr)

    def test_channel_mismatch_rejected(self):
        corpus, spec, vdim, _ = self.small_setup()
        with pytest.raises(ValueError):
            pretrain_vdim(corpus, spec, vdim, DownsamplerParams.init(7, seed=0), steps=1)

    def test_peak_memory_of_two_ac4_steps(self, monkeypatch):
        # the AC-4 configuration: 32 images of 112x112, C=64, d_proj=32,
        # batch 4; guards against the (H, W, d_proj) projection maps, the
        # temporaries of the guided_upsample VJP and float64 copies of the
        # prepared corpus piling up: measured peak 6.38 MiB; 6.55 MiB while
        # the VJP mixed g through a whole map of flipped composite weights;
        # 7.76 MiB while the VJP ran on the padded grid of the lifted map; 8.76 MiB
        # while the corpus was kept as float64 features and guides, 11.02 MiB
        # with a separate similarity softmax and tile-width copies of the
        # flipped weights and padded gradient, 13.02 MiB while the
        # projection maps were built
        corpus = synth_corpus(0, 32, 112)
        spec = EncoderSpec(channels=64, seed=0)
        vdim, down = VdimParams.init(d_proj=32, seed=0), DownsamplerParams.init(64, seed=0)
        # one core, so one process: tracemalloc does not see a worker's graph
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        result, peak = traced_peak(lambda: pretrain_vdim(corpus, spec, vdim, down, steps=2))
        assert len(result.losses) == 2
        assert peak < 8.4 * 2**20

    def test_calls_per_item_of_an_ac4_step(self):
        # every Python and C call of one warm AC-4 batch item, its
        # mlr_objective and backward, in this process: measured 1,219;
        # 2,361 while window_pool rebuilt its resize matrices and row taps
        # on every call and contracted through np.tensordot's wrapper, and
        # guided_upsample rebuilt its edge-pad indices.  The count depends on
        # numpy's Python layer, so the bound holds for the versions it was
        # measured on
        bound = CALLS_PER_ITEM.get((platform.python_version(), np.__version__))
        if bound is None:
            pytest.skip(f"no call-count bound for Python {platform.python_version()} and numpy {np.__version__}")
        image = synth_corpus(0, 1, 112)[0]
        spec = EncoderSpec(channels=64, seed=0)
        vdim, down = VdimParams.init(d_proj=32, seed=0), DownsamplerParams.init(64, seed=0)
        f0 = encode(image, spec, origin="corpus:0")
        pyramid = build_image_pyramid(image, patch=spec.patch, levels=len(vdim.levels) + 1)

        def item():
            flat, objective = mlr_objective(f0, pyramid, vdim, down)
            ad.backward(objective(flat))

        item()  # the cached layouts are built
        _, calls = counted_calls(item)
        assert calls < bound, f"{calls} calls per item"

    @pytest.mark.parametrize("steps", [0, 3])
    @pytest.mark.parametrize("seed", [5, 9])
    def test_workers_give_the_serial_bits(self, tmp_path, monkeypatch, seed, steps):
        # batch 3 on 2 cores: two workers, with chunks of 2 and 1 items
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
            corpus, spec, vdim, down = self.small_setup(seed)
            result = pretrain_vdim(corpus, spec, vdim, down, steps=steps, batch=3)
            assert children() == []
            path = tmp_path / f"w{workers}.ckpt"
            save_checkpoint(path, vdim, down)
            runs.append((result.losses, [a for _, a in trainable_arrays(vdim, down)], path.read_bytes()))
        (losses_1, arrays_1, ckpt_1), (losses_2, arrays_2, ckpt_2) = runs
        assert losses_1 == losses_2
        assert all(np.array_equal(a, b) for a, b in zip(arrays_1, arrays_2))
        assert ckpt_1 == ckpt_2

    def test_a_worker_error_reaches_the_caller_as_raised(self, monkeypatch):
        # the workers are forked inside the caller's errstate, here the CLI's
        raised = []
        for workers in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
            corpus, spec, vdim, down = self.small_setup()
            vdim.levels[1].log_sigma_sim[...] = -400.0
            errstate = np.errstate(over="raise", invalid="raise", divide="raise", under="ignore")
            with pytest.raises(ArithmeticError) as info, errstate:
                pretrain_vdim(corpus, spec, vdim, down, steps=2, batch=2)
            assert children() == []
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]

    def test_a_killed_worker_ends_the_call_naming_its_step(self):
        # in a subprocess, so that a hang fails on the timeout
        src = str(Path(hiwin.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", _KILL_A_WORKER],
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)])},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        error, children = done.stdout.splitlines()
        assert error.startswith("a training worker ended at step 2")
        assert children == "[]"

    @pytest.mark.parametrize(
        "cores, batch, want",
        # one per chunk of ceil(batch / cores) items: 4 on 3 cores is 2 + 2
        [(1, 3, 0), (2, 3, 2), (8, 3, 3), (3, 4, 2), (4, 5, 3), (2, 8, 2)],
    )
    def test_default_workers_are_the_usable_cores_that_get_a_chunk(self, monkeypatch, cores, batch, want):
        corpus, spec, vdim, down = self.small_setup()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        seen = []
        on_step = lambda step, loss: seen.append(len(children()))
        pretrain_vdim(corpus, spec, vdim, down, steps=1, batch=batch, on_step=on_step)
        assert seen == [want]

    @pytest.mark.parametrize("platform", ["darwin", "win32", "freebsd14"])
    def test_off_linux_the_items_run_in_the_calling_process(self, monkeypatch, platform):
        # no fork pool where fork may be unsafe and no death signal exists
        corpus, spec, vdim, down = self.small_setup()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(sys, "platform", platform)
        seen = []
        on_step = lambda step, loss: seen.append(children())
        pretrain_vdim(corpus, spec, vdim, down, steps=1, batch=2, on_step=on_step)
        assert seen == [[]]
