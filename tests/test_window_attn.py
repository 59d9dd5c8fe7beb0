"""Grid selection, RoI sampling, key assembly over each level's windows, and
the window-restricted cross-attention.  The keys are checked through the
attention that scores them, against the scalar oracle over the keys that
selfcheck.scalar_window_keys writes out as values + level embedding + zeta."""

import numpy as np
import pytest

from hiwin import numerics, window_attn
from hiwin.encoder import EncoderSpec, FeatureMap, encode
from hiwin.image_io import build_image_pyramid, synth_corpus
from hiwin.numerics import softmax
from hiwin.selfcheck import (
    scalar_cross_attention,
    scalar_window_keys,
    scalar_window_queries,
    scalar_window_values,
    scalar_window_zeta,
)
from hiwin.vdim import FeaturePyramid, VdimParams, build_isp
from hiwin.window_attn import (
    AttnParams,
    HiwinConfig,
    assemble_kv,
    compress,
    cross_attention,
    select_grid,
)

from helpers import traced_peak, zero_outside_window


def random_pyramid(seed, base_h=24, base_w=24, channels=8, origin="overview"):
    rng = np.random.default_rng(seed)
    levels = [
        FeatureMap(
            rng.standard_normal((base_h * 2**l, base_w * 2**l, channels)).astype(np.float32),
            level=l,
            origin=origin,
        )
        for l in range(3)
    ]
    return FeaturePyramid(levels=levels, origin=origin)


class TestSelectGrid:
    def test_square_picks_square(self):
        assert select_grid(24, 24) == (3, 3)

    def test_double_wide_picks_4x2(self):
        assert select_grid(48, 24) == (4, 2)

    def test_24x36_scores(self):
        # scores: (3,3) -0.405, (2,3) 0, (3,2) -0.811, (2,4) -0.288, (4,2) -1.099
        assert select_grid(24, 36) == (2, 3)


def value_rows_and_oracle(isp, n, grid):
    """assemble_kv's values, and scalar_window_values of the same windows,
    both (n^2, levels*S, C)."""
    _, v = assemble_kv(isp, n, grid, AttnParams.init(HiwinConfig(grid_side=n, channels=isp.channels)))
    return v, scalar_window_values(isp.levels, n, grid)


class TestWindows:
    """Window (i, j) of every level is the box scalar_window_box writes out: the
    value rows of assemble_kv are scalar_roi_align of those boxes."""

    def test_exact_two_cell_windows(self):
        # 24x24 at n=12: a 2x2 grid in a two-cell window samples its four cell centres
        isp = FeaturePyramid(levels=random_pyramid(20, 24, 24).levels[:1])
        v, want = value_rows_and_oracle(isp, 12, (2, 2))
        np.testing.assert_array_equal(v, want)
        cells = isp.levels[0].data.reshape(12, 2, 12, 2, 8).transpose(0, 2, 1, 3, 4)
        np.testing.assert_array_equal(v, cells.reshape(144, 4, 8))

    def test_levels_cover_same_normalized_region(self):
        # 24/48/96 at n=12: each level's box is the same region at its own scale
        v, want = value_rows_and_oracle(random_pyramid(21, 24, 24), 12, (3, 3))
        np.testing.assert_array_equal(v, want)

    def test_fractional_boundaries(self):
        # 24x30 at n=12: 2.5-cell-wide windows
        v, want = value_rows_and_oracle(random_pyramid(22, 24, 30), 12, (2, 3))
        np.testing.assert_array_equal(v, want)

    def test_tiling_is_exact(self):
        # 17x23 at n=5: the library computes a far edge as j*W/n + W/n, which
        # may differ from (j+1)*W/n in the last bit (4.2e-14 here)
        v, want = value_rows_and_oracle(random_pyramid(23, 17, 23), 5, (4, 2))
        np.testing.assert_allclose(v, want, rtol=0, atol=1e-12)


def one_level(data):
    return FeaturePyramid(levels=[FeatureMap(data)])


class TestRoiAlign:
    """RoI samples of assemble_kv's windows: hand values, and random windows
    against scalar_roi_align.  Keys need channels divisible by 4."""

    def test_constant_map(self):
        v, _ = value_rows_and_oracle(one_level(np.full((6, 6, 4), 3.5)), 2, (3, 2))
        assert v.shape == (4, 6, 4)
        np.testing.assert_allclose(v, 3.5, atol=1e-12)

    def test_integer_box_on_ramp_matches_hand_values(self):
        # one window: the box (0, 0, 4, 4) of a 4x4 ramp
        ramp = np.broadcast_to(np.arange(16.0).reshape(4, 4, 1), (4, 4, 4))
        v, want = value_rows_and_oracle(one_level(ramp), 1, (2, 2))
        np.testing.assert_allclose(v, want, atol=1e-6)
        # bin centers at (1, 1), (3, 1), ... read exact 2x2 cell averages
        np.testing.assert_allclose(v[0, :, 0].reshape(2, 2), [[2.5, 4.5], [10.5, 12.5]])

    def test_full_map_box_with_matching_grid_recovers_map(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((5, 7, 4)).astype(np.float32)
        v, _ = value_rows_and_oracle(one_level(data), 1, (7, 5))
        np.testing.assert_allclose(v[0].reshape(5, 7, 4), data, atol=1e-12)

    def test_zero_area_rejected(self):
        # an empty level is the one way to a zero-area window
        with pytest.raises(ValueError, match="zero-area box"):
            value_rows_and_oracle(one_level(np.zeros((4, 0, 4))), 2, (2, 2))

    def test_random_boxes_match_scalar_oracle(self):
        # random level dims, n and grid; n above a side gives sub-cell windows
        rng = np.random.default_rng(2)
        for _ in range(40):
            h, w = (int(d) for d in rng.integers(1, 20, 2))
            n = int(rng.integers(1, 9))
            grid = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            isp = FeaturePyramid(levels=[
                FeatureMap(rng.standard_normal((h << l, w << l, 4)), level=l) for l in range(2)
            ])
            v, want = value_rows_and_oracle(isp, n, grid)
            # written far edges may differ from the library's in the last bit
            np.testing.assert_allclose(v, want, rtol=0, atol=1e-12)


def window_attention(q, keys, v, params, heads):
    """compress's attention of the (W, 1, C) queries ``q`` over every
    window's key addends and values at once, as cross_attention returns
    it: the (W, 1, C) outputs and the (W, heads, 1, L) weights."""
    attn = window_attn._WindowAttention(q[:, 0], params, heads)
    ctx, att = attn.context(0, len(q), keys, v)
    return attn.output(ctx)[:, None], att


def random_biases(params, seed):
    """Nonzero biases, so that the folded scores must cancel the key bias."""
    rng = np.random.default_rng(seed)
    for name in ("bq", "bk", "bv", "bo"):
        setattr(params, name, rng.uniform(-0.5, 0.5, params.bq.shape))
    return params


class TestAssembleKv:
    def test_key_stack_length(self):
        isp = random_pyramid(0)
        config = HiwinConfig(channels=8)
        params = AttnParams.init(config, seed=0)
        keys, v = assemble_kv(isp, 12, (3, 3), params)
        assert [t.shape for t in keys] == [(144, 3, 9, 8), (1, 3, 1, 8), (144, 1, 9, 8)]
        assert v.shape == (144, 27, 8)
        assert np.shares_memory(keys[0], v)
        q = scalar_window_queries(params.queries, 12)
        _, att = window_attention(q, keys, v, params, config.heads)
        assert att.shape == (144, 4, 1, 27)

    def test_value_rows_equal_scalar_roi_align_of_each_window(self):
        isp = random_pyramid(14, base_h=10, base_w=14, channels=4)
        v, want = value_rows_and_oracle(isp, 5, select_grid(14, 10))
        # written far edges may differ from the library's in the last bit
        np.testing.assert_allclose(v, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("base_hw", [(24, 24), (18, 24), (7, 9), (24, 4)])
    @pytest.mark.parametrize("grid", [(3, 3), (2, 4)])
    def test_keys_are_values_plus_level_and_position_embeddings(self, base_hw, grid):
        n, c = 5, 8
        isp = random_pyramid(sum(base_hw), *base_hw, channels=c)
        params = random_biases(AttnParams.init(HiwinConfig(grid_side=n, channels=c), seed=3), 3)
        keys, v = assemble_kv(isp, n, grid, params)
        k = scalar_window_keys(v, params.level_emb, n, grid)
        # the addends sum, bit for bit, to the written-out keys
        assert np.array_equal(sum(keys).reshape(k.shape), k)
        # scored addend by addend, they give the oracle's attention over those keys
        q = scalar_window_queries(params.queries, n)
        out, att = window_attention(q, keys, v, params, 4)
        want_out, want_att = scalar_cross_attention(q, k, v, params, 4)
        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(att, want_att, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("emb_shape", [(2, 4), (3, 8), (12,)], ids=["too-few-rows", "channels", "flat"])
    def test_level_embeddings_that_do_not_fit_are_named(self, emb_shape):
        isp = random_pyramid(0, 6, 6, channels=4)
        config = HiwinConfig(grid_side=3, channels=4)
        params = AttnParams.init(config)
        params.level_emb = np.zeros(emb_shape)
        want = rf"AttnParams.level_emb has shape \({emb_shape[0]},.*3-level pyramid of 4 channels"
        with pytest.raises(ValueError, match=want):
            assemble_kv(isp, 3, (3, 3), params)
        with pytest.raises(ValueError, match=want):
            compress(isp, params, config)

    def test_zero_level_embeddings_make_blocks_identical(self):
        # constant features at every level sample to the same values, so
        # with no level embedding each level block scores alike
        levels = [
            FeatureMap(np.full((6 * 2**l, 6 * 2**l, 4), 0.8, dtype=np.float32), level=l)
            for l in range(3)
        ]
        isp = FeaturePyramid(levels=levels)
        config = HiwinConfig(grid_side=3, channels=4)
        params = AttnParams.init(config, seed=1)
        params.level_emb[:] = 0.0
        keys, v = assemble_kv(isp, 3, (2, 2), params)
        q = scalar_window_queries(params.queries, 3)
        _, att = window_attention(q, keys, v, params, config.heads)
        _, want = scalar_cross_attention(q, scalar_window_keys(v, params.level_emb, 3, (2, 2)), v, params, config.heads)
        np.testing.assert_allclose(att, want, rtol=0, atol=1e-12)
        blocks = att[1 * 3 + 2, :, 0].reshape(config.heads, 3, 4)
        np.testing.assert_allclose(blocks[:, 1], blocks[:, 0], atol=1e-6)
        np.testing.assert_allclose(blocks[:, 2], blocks[:, 0], atol=1e-6)

    def test_swapping_level_embeddings_swaps_block_offsets(self):
        # head h scores a key of level l with u_h . emb_l added, so swapping
        # the embeddings of levels 1 and 2 moves every log weight of level 1
        # by u_h . (emb_2 - emb_1) / sqrt(d_k), of level 2 by the opposite, and
        # of level 0 not at all, up to the softmax's shared shift
        isp = random_pyramid(3, base_h=6, base_w=6, channels=4)
        config = HiwinConfig(grid_side=3, channels=4, heads=2)
        params = AttnParams.init(config, seed=2)
        swapped = AttnParams.init(config, seed=2)
        swapped.level_emb[[1, 2]] = params.level_emb[[2, 1]]
        q = scalar_window_queries(params.queries, 3)
        logs = []
        for p in (params, swapped):
            keys, v = assemble_kv(isp, 3, (2, 2), p)
            _, att = window_attention(q, keys, v, p, config.heads)
            _, want = scalar_cross_attention(q, scalar_window_keys(v, p.level_emb, 3, (2, 2)), v, p, config.heads)
            np.testing.assert_allclose(att, want, rtol=0, atol=1e-12)
            logs.append(np.log(att[0, :, 0]).reshape(config.heads, 3, 4))  # window 0: (head, level, sample)
        shift = logs[1] - logs[0]
        offsets = shift - shift[:, :1, :1]  # relative to level 0's
        np.testing.assert_allclose(offsets[:, 0], 0.0, atol=1e-12)
        qp = q[0, 0] @ params.wq + params.bq
        delta = params.level_emb[2] - params.level_emb[1]
        u_delta = [qp[h * 2 : h * 2 + 2] @ params.wk[:, h * 2 : h * 2 + 2].T @ delta / np.sqrt(2) for h in range(2)]
        want = np.broadcast_to(np.array(u_delta)[:, None], (2, 4))
        np.testing.assert_allclose(offsets[:, 1], want, atol=1e-6)
        np.testing.assert_allclose(offsets[:, 2], -want, atol=1e-6)

    def test_peak_memory_of_one_compress(self):
        # 24/48/96 x 64: scoring the key addends builds no key array, no
        # level's rows are gathered whole, and the windows are sampled and
        # attended in blocks of 2 window rows, so no value array of every
        # window (2 MB) is built, and the queries are dropped once folded:
        # measured peak 1.50 MiB; 1.57 MiB while compress kept its queries;
        # 1.64 MiB with
        # blocks of 2 window rows before the key addends were scored; 2.2
        # MiB with blocks of 3 window rows, 2.76 MiB with blocks of 4 and
        # 3.73 MiB with one block of all 12; 3.52 MiB while the whole value
        # array was sampled before any window attended
        isp = random_pyramid(15, channels=64)
        config = HiwinConfig(channels=64)
        params = AttnParams.init(config, seed=15)
        compress(isp, params, config)  # the per-geometry embeddings and taps are cached
        _, peak = traced_peak(lambda: compress(isp, params, config))
        assert peak < 1.53 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_peak_memory_of_a_build_isp_pyramid_and_its_compress(self):
        # one 336x336 unit at C=64: build_isp leaves its 96x96 top level
        # uncomputed, and each block of window rows asks it only for the
        # cells it samples before the block's value array is allocated, and
        # the window attention keeps only its folded queries, not compress's
        # own: measured peak 1.91 MiB; 2.29 MiB while the top level was
        # asked beside the value array, with levels 0-1 sampled, and beside
        # compress's queries; 2.36 MiB while it also kept the
        # projected queries it folds; 2.37 MiB while it was
        # asked through a lazy block of rows; 2.46 MiB while level 1's
        # gathered rows stayed alive as the top level computed its cells;
        # 2.76 MiB while it computed every column of the rows it samples;
        # 4.47 MiB while build_isp built the whole top level (2.36 MB) and
        # compress read it
        img = synth_corpus(0, 1, 336)[0]
        pyramid = build_image_pyramid(img)
        f0 = encode(img, EncoderSpec(channels=64, seed=0))
        vdim = VdimParams.init(d_proj=32, seed=0)
        config = HiwinConfig(channels=64)
        params = AttnParams.init(config, seed=0)
        compress(build_isp(f0, pyramid, vdim), params, config)  # the per-geometry embeddings and taps are cached
        _, peak = traced_peak(lambda: compress(build_isp(f0, pyramid, vdim), params, config))
        assert peak < 2.0 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_a_range_of_window_rows_gives_those_rows_of_every_window(self):
        n, c = 12, 8
        isp = random_pyramid(31, 24, 18, channels=c)
        grid = select_grid(18, 24)
        params = AttnParams.init(HiwinConfig(channels=c))
        keys, v = assemble_kv(isp, n, grid, params)
        for a, b in [(0, 1), (3, 5), (11, 12), (0, 12)]:
            part_keys, part_v = assemble_kv(isp, n, grid, params, (a, b))
            assert np.array_equal(part_v, v[a * n : b * n])
            assert np.array_equal(part_keys[0], keys[0][a * n : b * n])
            assert np.array_equal(part_keys[1], keys[1])  # the level embedding, shared
            assert np.array_equal(part_keys[2], keys[2][a * n : b * n])

    @pytest.mark.parametrize("c", [4, 64])
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    @pytest.mark.parametrize("grid", window_attn.PROPOSALS)
    def test_zeta_of_every_block_is_the_written_out_zeta(self, grid, n, c):
        # every split into blocks of r window rows that row_blocks can give,
        # r = 1 .. n (r = n is the whole map): each block's zeta addend is
        # its rows of scalar_window_zeta, bit for bit
        isp = random_pyramid(n, 2, 2, channels=c)
        params = AttnParams.init(HiwinConfig(grid_side=n, channels=c))
        want = scalar_window_zeta(n, grid, c)[:, None]
        for r in range(1, n + 1):
            for a in range(0, n, r):
                b = min(a + r, n)
                zeta = assemble_kv(isp, n, grid, params, (a, b))[0][2]
                assert zeta.shape == (b * n - a * n, 1, grid[0] * grid[1], c)
                assert np.array_equal(zeta, want[a * n : b * n])

    @pytest.mark.parametrize(
        "n, grid, rows, name",
        [
            (3, (3, 3), (2, 1), "rows"),
            (3, (3, 3), (0, 5), "rows"),
            (3, (3, 3), (-1, 2), "rows"),
            (3, (3, 3), (1, 1), "rows"),
            (3, (0, 3), None, "grid"),
            (3, (3, -1), None, "grid"),
            (0, (3, 3), None, "n"),
        ],
        ids=["reversed-rows", "rows-past-n", "negative-row", "empty-rows", "zero-grid", "negative-grid", "zero-n"],
    )
    def test_bad_geometry_is_named(self, n, grid, rows, name):
        isp = random_pyramid(0, 6, 6, channels=4)
        params = AttnParams.init(HiwinConfig(grid_side=3, channels=4))
        with pytest.raises(ValueError, match=rf"assemble_kv needs .* got {name}="):
            assemble_kv(isp, n, grid, params, rows)

    def test_cached_window_taps_are_read_only_and_equal_a_fresh_build(self):
        for size, n, r in [(24, 12, 3), (96, 12, 3), (18, 12, 2), (5, 8, 4), (1, 3, 2)]:
            cached = window_attn._window_taps(size, n, r)
            centres = window_attn._bin_centers(*window_attn._spans(size, n), r, size)
            fresh = numerics.bilinear_taps(centres, size)
            assert window_attn._window_taps(size, n, r) is cached
            for got, want in zip(cached, fresh):
                assert not got.flags.writeable
                assert got.dtype == want.dtype and np.array_equal(got, want)


class TestCompress:
    def test_constant_values_collapse_to_projected_value(self):
        # attention outputs are convex combinations: constant V means every
        # token equals the projected constant regardless of the weights
        levels = [
            FeatureMap(np.full((4 * 2**l, 4 * 2**l, 8), 0.6, dtype=np.float32), level=l)
            for l in range(3)
        ]
        isp = FeaturePyramid(levels=levels)
        config = HiwinConfig(grid_side=4, channels=8, heads=2)
        params = AttnParams.init(config, seed=3)
        params.level_emb[:] = 0.0
        out = compress(isp, params, config)
        v = np.full(8, 0.6) @ params.wv + params.bv
        want = v @ params.wo + params.bo
        np.testing.assert_allclose(
            out.data, np.broadcast_to(want.astype(np.float32), (4, 4, 8)), atol=1e-5
        )

    def test_single_query_matches_hand_computation(self):
        config = HiwinConfig(grid_side=1, channels=4, heads=1)
        rng = np.random.default_rng(4)
        levels = [
            FeatureMap(rng.standard_normal((2**l, 2**l, 4)).astype(np.float32), level=l)
            for l in range(3)
        ]
        isp = FeaturePyramid(levels=levels)
        params = AttnParams.init(config, seed=5)
        grid = select_grid(1, 1)
        assert grid == (3, 3)
        # the one window is each whole level: values are its RoI samples, and
        # keys add the level's embedding and the embedding of each bin centre
        v = scalar_window_values(levels, 1, grid)[0]
        k = scalar_window_keys(v[None], params.level_emb, 1, grid)[0]
        q = scalar_window_queries(params.queries, 1)[0]
        qp = q @ params.wq + params.bq
        kp = k @ params.wk + params.bk
        vp = v @ params.wv + params.bv
        att = softmax(qp @ kp.T / 2.0, axis=-1)  # sqrt(d_k) = 2
        want = (att @ vp) @ params.wo + params.bo

        out = compress(isp, params, config)
        np.testing.assert_allclose(out.data.reshape(1, 4), want, atol=1e-5)

    def test_standard_slice_emits_144_tokens(self):
        isp = random_pyramid(6)
        config = HiwinConfig(channels=8)
        out = compress(isp, AttnParams.init(config, seed=6), config)
        assert out.data.shape == (12, 12, 8)

    def test_non_square_maps_still_emit_nxn(self):
        rng = np.random.default_rng(7)
        levels = [
            FeatureMap(rng.standard_normal((16 * 2**l, 24 * 2**l, 8)).astype(np.float32), level=l)
            for l in range(3)
        ]
        isp = FeaturePyramid(levels=levels)
        config = HiwinConfig(channels=8)
        out = compress(isp, AttnParams.init(config, seed=7), config)
        assert out.data.shape == (12, 12, 8)

    def test_token_count_constant_across_resolutions(self):
        config = HiwinConfig(channels=8)
        params = AttnParams.init(config, seed=8)
        for base in (8, 16, 24):
            isp = random_pyramid(base, base_h=base, base_w=base)
            assert compress(isp, params, config).data.shape == (12, 12, 8)

    @pytest.mark.parametrize(
        "queries_shape", [(4, 4, 4), (3, 3, 8), (3, 4, 4), (9, 4)], ids=["side", "channels", "ragged", "flat"]
    )
    def test_queries_of_the_wrong_shape_are_named(self, queries_shape):
        config = HiwinConfig(grid_side=3, channels=4, heads=2)
        params = AttnParams.init(config)
        params.queries = np.zeros(queries_shape)
        with pytest.raises(ValueError, match=r"AttnParams.queries has shape .* expected \(3, 3, 4\)"):
            compress(random_pyramid(0, 6, 6, channels=4), params, config)

    def test_interleaved_geometries_match_fresh_calls(self):
        # the per-geometry embedding tables and taps are cached; a cache
        # filled by other geometries must give the bits a cold cache gives
        cases = [
            (HiwinConfig(grid_side=n, channels=c, heads=2), random_pyramid(seed, h, w, channels=c))
            for seed, (n, c, h, w) in enumerate([(4, 8, 8, 8), (3, 8, 6, 12), (4, 4, 12, 8), (2, 8, 8, 8)])
        ]
        fresh = []
        for config, isp in cases:
            window_attn._axis_embeddings.cache_clear()
            window_attn._window_taps.cache_clear()
            fresh.append(compress(isp, AttnParams.init(config, seed=1), config).data)
        for index in (0, 1, 2, 3, 1, 0, 3, 2, 0):
            config, isp = cases[index]
            assert np.array_equal(compress(isp, AttnParams.init(config, seed=1), config).data, fresh[index])

    @pytest.mark.parametrize("n, grid, c", [(3, (3, 3), 4), (12, (2, 4), 64), (5, (1, 1), 8)])
    def test_cached_embeddings_are_read_only(self, n, grid, c):
        tables = window_attn._axis_embeddings(n, grid, c)
        assert window_attn._axis_embeddings(n, grid, c) is tables
        assert [t.shape for t in tables] == [(n * grid[0], c // 2), (n * grid[1], c // 2)]
        for cached in tables:
            assert not cached.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cached += 1.0

    @pytest.mark.parametrize("c", [4, 64])
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_query_embedding_is_the_written_out_window_centres(self, n, c, monkeypatch):
        # the queries compress attends with, captured as _WindowAttention
        # gets them, equal scalar_window_queries bit for bit
        seen, init = [], window_attn._WindowAttention.__init__

        def recording(self, q, *args):
            seen.append(q.copy())
            init(self, q, *args)

        monkeypatch.setattr(window_attn._WindowAttention, "__init__", recording)
        config = HiwinConfig(grid_side=n, channels=c)
        params = AttnParams.init(config, seed=n)
        compress(random_pyramid(n, 6, 6, channels=c), params, config)
        assert len(seen) == 1 and np.array_equal(seen[0], scalar_window_queries(params.queries, n)[:, 0])


class TestCompressBlocks:
    """``compress`` samples and attends a block of window rows at a time;
    its float64 tokens must not depend on the blocks.  Float32 tokens are
    not enough: a product over every window, such as the level
    embedding's scores, can round differently over fewer rows and still
    give the same float32 tokens."""

    @staticmethod
    def tokens(isp, params, config, monkeypatch, rows=None):
        """``compress``'s float64 tokens of every window, before its float32
        cast, with blocks of ``rows`` window rows (the default blocks for
        None), and whether its attention folded the key projection into
        (W, heads, C) queries."""
        if rows is not None:
            blocks = lambda n, row_elems: [(a, min(a + rows, n)) for a in range(0, n, rows)]
            monkeypatch.setattr(window_attn, "row_blocks", blocks)
        got, output = [], window_attn._WindowAttention.output

        def capture(self, ctx):
            got.append((output(self, ctx), self.u.shape == (len(ctx), self.heads, ctx.shape[1])))
            return got[-1][0]

        monkeypatch.setattr(window_attn._WindowAttention, "output", capture)
        compress(isp, params, config)
        monkeypatch.undo()
        ((tokens, folded),) = got
        return tokens, folded

    @pytest.mark.parametrize("base_hw", [(24, 24), (24, 18), (18, 24), (4, 4)])
    @pytest.mark.parametrize("channels, heads", [(64, 4), (4, 2), (4, 4)])
    def test_float64_tokens_do_not_depend_on_the_blocks(self, base_hw, channels, heads, monkeypatch):
        rng = np.random.default_rng([*base_hw, channels, heads])
        config = HiwinConfig(channels=channels, heads=heads)
        params = AttnParams.init(config, seed=int(rng.integers(1000)))
        params.level_emb = rng.uniform(-1.0, 1.0, (3, channels))
        isp = random_pyramid(int(rng.integers(1000)), *base_hw, channels=channels)
        whole, folded = self.tokens(isp, params, config, monkeypatch, rows=12)
        # one query per window folds at every shape, 4 heads of 1 channel too
        assert folded
        for rows in (None, 1, 2):
            assert np.array_equal(self.tokens(isp, params, config, monkeypatch, rows)[0], whole), rows


class TestLocality:
    def test_outside_content_cannot_change_a_token(self):
        isp = random_pyramid(9)
        config = HiwinConfig(channels=8)
        params = AttnParams.init(config, seed=9)
        full = compress(isp, params, config)
        rng = np.random.default_rng(10)
        for _ in range(5):
            i, j = int(rng.integers(0, 12)), int(rng.integers(0, 12))
            masked = compress(zero_outside_window(isp, 12, (i, j)), params, config)
            assert np.array_equal(full.data[i, j], masked.data[i, j])

    def test_inside_perturbation_changes_the_token(self):
        isp = random_pyramid(11)
        config = HiwinConfig(channels=8)
        params = AttnParams.init(config, seed=11)
        perturbed_levels = []
        for fmap in isp.levels:
            data = fmap.data.copy()
            scale = fmap.data.shape[0] // 12
            if scale >= 1:
                data[5 * scale, 5 * scale] += 1.0  # inside window (5, 5)
            perturbed_levels.append(FeatureMap(data, level=fmap.level))
        out_a = compress(isp, params, config)
        out_b = compress(FeaturePyramid(levels=perturbed_levels), params, config)
        assert not np.array_equal(out_a.data[5, 5], out_b.data[5, 5])


class TestAttentionWeights:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        config = HiwinConfig(channels=8, heads=4)
        params = AttnParams.init(config, seed=12)
        q = rng.standard_normal((10, 1, 8))
        k = rng.standard_normal((10, 6, 8))
        v = rng.standard_normal((10, 6, 8))
        _, att = cross_attention(q, k, v, params, config.heads)
        np.testing.assert_allclose(att.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize(
        "g, nq, l, c, heads",
        [
            (6, 1, 27, 16, 4),  # one query per group, as in compress's windows
            (2, 12, 40, 8, 4),  # many queries share each key, as in the resampler
            (3, 2, 9, 8, 1),  # one head
        ],
    )
    def test_matches_scalar_oracle(self, g, nq, l, c, heads):
        rng = np.random.default_rng(14)
        params = AttnParams.init(HiwinConfig(channels=c, heads=heads), seed=14)
        for name in ("bq", "bk", "bv", "bo"):
            setattr(params, name, rng.uniform(-0.5, 0.5, c))
        q = rng.standard_normal((g, nq, c))
        k = rng.standard_normal((g, l, c))
        v = rng.standard_normal((g, l, c))
        out, att = cross_attention(q, k, v, params, heads)
        want_out, want_att = scalar_cross_attention(q, k, v, params, heads)
        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(att, want_att, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("heads", [0, -2])
    def test_heads_below_one_are_named(self, heads):
        q = np.zeros((2, 1, 8))
        k = np.zeros((2, 3, 8))
        params = AttnParams.init(HiwinConfig(channels=8))
        with pytest.raises(ValueError, match=rf"heads must be a positive integer, got {heads}"):
            cross_attention(q, k, k, params, heads)

    @pytest.mark.parametrize(
        "heads, want", [(0, "heads must be a positive integer, got 0"), (3, "channels 8 not divisible by heads 3")]
    )
    def test_compress_and_cross_attention_name_the_same_bad_heads(self, heads, want):
        config = HiwinConfig(grid_side=3, heads=heads, channels=8)
        params = AttnParams.init(config)
        with pytest.raises(ValueError, match=want):
            compress(random_pyramid(0, 6, 6, channels=8), params, config)
        with pytest.raises(ValueError, match=want):
            cross_attention(np.zeros((2, 1, 8)), np.zeros((2, 3, 8)), np.zeros((2, 3, 8)), params, heads)

    def test_shared_key_attention_matches_per_query(self):
        # one group of 5 queries over 7 shared keys equals 5 groups of one
        # query over the same keys tiled
        rng = np.random.default_rng(13)
        config = HiwinConfig(channels=8, heads=2)
        params = AttnParams.init(config, seed=13)
        q = rng.standard_normal((5, 8))
        shared = rng.standard_normal((7, 8))
        tiled = np.broadcast_to(shared, (5, 7, 8))
        a, _ = cross_attention(q[None], shared[None], shared[None], params, config.heads)
        b, _ = cross_attention(q[:, None], tiled, tiled, params, config.heads)
        assert a.shape == (1, 5, 8) and b.shape == (5, 1, 8)
        np.testing.assert_allclose(a[0], b[:, 0], atol=1e-10)
