"""Resampling, softmax, gradient-check, Adam, and PCA behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiwin import autodiff as ad
from hiwin import numerics
from hiwin.autodiff import Tensor
from hiwin.numerics import (
    AdamState,
    adam_step,
    bilinear_resize,
    bilinear_taps,
    grad_check,
    lerp,
    pca_rgb,
    softmax,
)

from helpers import scalar_resize, traced_peak, weighted_sum


class TestBilinearResize:
    def test_identity_at_same_dims(self):
        src = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
        np.testing.assert_array_equal(bilinear_resize(src, 2, 2), src)

    def test_constant_preserved(self):
        src = np.full((3, 5, 2), 5.0)
        out = bilinear_resize(src, 7, 11)
        np.testing.assert_allclose(out, 5.0, atol=1e-12)

    def test_2x2_to_2x4_matches_scalar_oracle(self):
        src = np.array([[0.0, 1.0], [0.0, 1.0]])[:, :, None]
        out = bilinear_resize(src, 2, 4)
        want = scalar_resize(src, 2, 4)
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_random_resizes_match_scalar_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h, w = rng.integers(1, 9, 2)
            oh, ow = rng.integers(1, 13, 2)
            src = rng.standard_normal((h, w, 3))
            np.testing.assert_array_equal(bilinear_resize(src, oh, ow), scalar_resize(src, oh, ow))

    def test_large_float32_downscale_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        src = rng.uniform(0, 1, (200, 300, 3)).astype(np.float32)
        out = bilinear_resize(src, 5, 7)
        assert out.dtype == np.float32
        # float64 arithmetic rounded once to float32, as the float64 oracle
        np.testing.assert_array_equal(out, scalar_resize(src, 5, 7).astype(np.float32))

    @given(
        st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_codes_resize_like_their_decoded_floats_without_gathering(self, h, w, oh, ow, seed):
        # gathering the tapped cells, and decoding only them, changes no bit
        # of what two lerp passes over the whole decoded image give
        codes = np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)
        floats = codes.astype(np.float32) / 255.0

        def taps(n_in, n_out):
            return bilinear_taps((np.arange(n_out) + 0.5) * (n_in / n_out), n_in)

        want = floats if (oh, ow) == (h, w) else lerp(lerp(floats, taps(w, ow), 1), taps(h, oh), 0)
        for src in (codes, floats):
            got = bilinear_resize(src, oh, ow)
            assert got.dtype == np.float32
            assert got.tobytes() == want.astype(np.float32).tobytes()

    @pytest.mark.parametrize(
        "src_hw, view, out_hw, block",
        [
            ((40, 50), np.s_[3:37, 5:47:2], (9, 8), numerics.BLOCK_ELEMS),  # strided crop view
            ((7, 9), np.s_[:, :], (23, 31), numerics.BLOCK_ELEMS),  # upscale
            ((30, 20), np.s_[:, :], (17, 13), 100),  # blocks of 2 rows, the last one short
            ((30, 20), np.s_[:, :], (13, 45), 100),  # a row wider than a block
        ],
        ids=["strided-crop", "upscale", "ragged-last-block", "row-wider-than-block"],
    )
    def test_codes_match_the_scalar_oracle_exactly(self, src_hw, view, out_hw, block, monkeypatch):
        monkeypatch.setattr(numerics, "BLOCK_ELEMS", block)
        codes = np.random.default_rng(sum(src_hw)).integers(0, 256, src_hw + (3,), dtype=np.uint8)[view]
        values = (codes.astype(np.float32) / np.float32(255.0)).astype(np.float64)  # the oracle runs in float64
        want = scalar_resize(values, *out_hw).astype(np.float32)
        assert np.array_equal(bilinear_resize(codes, *out_hw), want)

    @pytest.mark.parametrize(
        "shape, dtype",
        [((11, 6, 1), np.float64), ((11, 6, 2), np.float32), ((11, 6, 8), np.float32)],
        ids=["one-channel", "float32", "eight-channel"],
    )
    def test_floats_match_the_scalar_oracle_exactly(self, shape, dtype, monkeypatch):
        monkeypatch.setattr(numerics, "BLOCK_ELEMS", 20)
        src = np.random.default_rng(9).standard_normal(shape).astype(dtype)
        out = bilinear_resize(src, 8, 5)
        assert out.dtype == dtype
        want = scalar_resize(src.astype(np.float64), 8, 5)
        assert np.array_equal(out, want.astype(dtype))

    def test_a_slice_sized_crop_resizes_in_little_memory(self):
        # a 12 MP photo's slice crop, a strided view, to its 336x336 slice:
        # blocks sized by the output rows and the bytes of the crop rows
        # they gather: measured peak 1.79 MiB; 2.07 MiB while they counted
        # only their output rows; the whole-crop row gather, decode and
        # lerp passes peaked at 20.5 MB above the input
        photo = np.random.default_rng(0).integers(0, 256, (1600, 1500, 3), dtype=np.uint8)
        crop = photo[40:1552, 100:1444]
        out, peak = traced_peak(lambda: bilinear_resize(crop, 336, 336))
        assert out.shape == (336, 336, 3) and out.dtype == np.float32
        assert peak < 1.9 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_a_2d_array_is_refused(self):
        with pytest.raises(ValueError, match=r"expects an \(H, W, C\) array"):
            bilinear_resize(np.zeros((4, 4)), 2, 2)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            bilinear_resize(np.zeros((0, 2, 1)), 2, 2)
        with pytest.raises(ValueError):
            bilinear_resize(np.zeros((2, 2, 1)), 0, 2)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_constant_property(self, h, w, oh, ow):
        out = bilinear_resize(np.full((h, w, 1), 2.5), oh, ow)
        assert np.allclose(out, 2.5, atol=1e-12)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-12)

    def test_large_logits_stable(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[0], 1.0, atol=1e-12)

    def test_matches_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        want = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(softmax(x), want, atol=1e-12)

    @given(
        st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=8)
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one(self, values):
        # gaps beyond ~745 underflow individual entries to exactly 0 in
        # float64, so only non-negativity is asserted entrywise
        out = softmax(np.array(values))
        assert abs(out.sum() - 1.0) <= 1e-6
        assert np.all(out >= 0) and np.all(out <= 1.0)


class TestGradCheck:
    def test_quadratic(self):
        x = Tensor(np.array(3.0), requires_grad=True)

        def f(params):
            return ad.recon_loss([params[0], params[0]], np.zeros(()))  # x^2

        assert grad_check(f, [x], h=1e-5) < 1e-8
        assert x.grad == pytest.approx(6.0)

    def test_constant_function(self):
        # window_pool's output does not depend on the saliency bias
        rng = np.random.default_rng(4)
        f, sal_w, base = rng.standard_normal((2, 3, 2)), rng.standard_normal(2), rng.standard_normal((2, 3, 2))
        x = Tensor(np.array(1.0), requires_grad=True)  # the saliency bias

        def loss(params):
            pooled = ad.window_pool(f, np.ones(2), np.zeros(2), sal_w, params[0], (8, 12), 4)
            return ad.recon_loss([pooled], base)

        assert grad_check(loss, [x], h=1e-5) < 1e-8

    def test_tiny_entry_is_judged_against_the_largest_gradient(self):
        # d/dx1 = 1e-12 next to d/dx0 = 1 and a loss near 1: its central
        # difference is all rounding noise (it reads 0), a relative error of
        # 1 on its own scale but 1e-9 on the 1e-3 floor of the largest
        # gradient
        x = Tensor(np.array([0.5, 0.5]), requires_grad=True)
        base = np.array([0.5 - 2.0, 0.5 - 2e-12])

        def f(params):
            return ad.recon_loss([params[0]], base)  # gradient (x - base) / 2

        assert grad_check(f, [x], h=1e-5) < 1e-6

    def test_a_wrong_guided_mix_gradient_entry_is_caught(self):
        rng = np.random.default_rng(3)
        guide = rng.uniform(0, 1, (6, 8, 3))
        params = [
            Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True),
            Tensor(rng.standard_normal((3, 4)), requires_grad=True),
            Tensor(rng.standard_normal(4), requires_grad=True),
            Tensor(np.array(0.2), requires_grad=True),
            Tensor(np.array(-0.3), requires_grad=True),
        ]
        target = rng.standard_normal((6, 8, 2))

        def objective(wrong: bool):
            def f(ps):
                out = ad.guided_upsample(ps[0], guide, *ps[1:])
                if wrong:
                    # scale the feature-map gradient entry of median magnitude
                    right = out._vjp

                    def vjp(g):
                        grads = list(right(g))
                        g_feats = grads[0].copy()
                        k = np.argsort(np.abs(g_feats), axis=None)[g_feats.size // 2]
                        g_feats.flat[k] *= 1 + 1e-3
                        grads[0] = g_feats
                        return tuple(grads)

                    out._vjp = vjp
                return weighted_sum(out, target)

            return f

        assert grad_check(objective(False), params, h=1e-5) < 1e-6
        assert grad_check(objective(True), params, h=1e-5) > 1e-4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_a_non_finite_gradient_entry_fails(self, bad):
        # sum(x^2) at x = (1, 2) with a VJP of (bad, 2 * x1): the finite
        # entry alone reads 6.6e-12, so a check that skips the bad one passes
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def f(params):
            t = params[0]

            def vjp(g):
                return (g * np.array([bad, 2 * t.data[1]]),)

            return ad._node(np.asarray((t.data * t.data).sum()), (t,), vjp)

        assert not grad_check(f, [x]) < 1e-4


class TestAdam:
    def test_zero_grad_is_identity(self):
        params = [np.array([1.0, -2.0]), np.array(0.5)]
        state = AdamState.for_params(params)
        out = adam_step(params, [np.zeros(2), np.zeros(())], state)
        for before, after in zip(params, out):
            np.testing.assert_array_equal(before, after)

    def test_first_step_magnitude_is_lr(self):
        # hand evaluation at t=1: m_hat = g, v_hat = g^2, step = lr*g/(|g|+eps)
        params = [np.array(1.0)]
        state = AdamState.for_params(params, lr=1e-3)
        out = adam_step(params, [np.array(1.0)], state)
        assert out[0] == pytest.approx(1.0 - 1e-3, abs=1e-9)

    def test_converges_on_quadratic(self):
        x = [np.array(0.0)]
        state = AdamState.for_params(x, lr=0.05)
        for _ in range(200):
            grad = [2.0 * (x[0] - 2.0)]
            x = adam_step(x, grad, state)
        assert abs(x[0] - 2.0) < 0.5

    def test_shape_mismatch_rejected(self):
        params = [np.zeros(3)]
        state = AdamState.for_params(params)
        with pytest.raises(ValueError):
            adam_step(params, [np.zeros(4)], state)


class TestPcaRgb:
    def test_constant_map_renders_mid_gray(self):
        out = pca_rgb(np.full((4, 4, 8), 1.25))
        np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_single_axis_uses_one_channel(self):
        rng = np.random.default_rng(0)
        coords = rng.standard_normal((6, 6, 1))
        direction = np.zeros(5)
        direction[2] = 1.0
        feats = coords * direction  # all variance along one feature axis
        out = pca_rgb(feats)
        assert out[:, :, 0].max() == pytest.approx(1.0)
        assert out[:, :, 0].min() == pytest.approx(0.0)
        np.testing.assert_allclose(out[:, :, 1:], 0.0, atol=1e-12)

    def test_channels_are_the_top_components_signed_by_the_probe(self):
        # the probe orientation keeps the renders of the deflated power
        # iteration that pca_rgb used before (it started from the same
        # draws): the visualize test's map renders within 1/255 of them
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((8, 8, 16))
        x = feats.reshape(-1, 16)
        x = x - x.mean(axis=0)
        evecs = np.linalg.eigh((x.T @ x) / (x.shape[0] - 1))[1][:, ::-1][:, :3]
        probes = np.random.default_rng(0).standard_normal((3, 16))
        out = pca_rgb(feats).reshape(-1, 3)
        for ch in range(3):
            proj = x @ evecs[:, ch] * np.sign(probes[ch] @ evecs[:, ch])
            want = (proj - proj.min()) / (proj.max() - proj.min())
            np.testing.assert_allclose(out[:, ch], want, atol=1e-6)

    def test_too_few_positions_rejected(self):
        with pytest.raises(ValueError):
            pca_rgb(np.zeros((1, 2, 4)))
