"""Finite-difference checks for every differentiation-graph operation."""

import numpy as np
import pytest

from hiwin import autodiff as ad
from hiwin.autodiff import NumericalError, Tensor

from helpers import scalar_attention_downsample, scalar_guided_mix


def fd_grads(build, params, h=1e-6):
    """Central-difference gradients of build() w.r.t. every param entry."""
    grads = []
    for p in params:
        flat = p.data.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = build().item()
            flat[i] = keep - h
            lo = build().item()
            flat[i] = keep
            g[i] = (hi - lo) / (2 * h)
        grads.append(g.reshape(p.data.shape))
    return grads


def check_op(build, params, tol=1e-6):
    out = build()
    for p in params:
        p.grad = None
    out.backward()
    numeric = fd_grads(build, params)
    for p, fd in zip(params, numeric):
        got = p.grad if p.grad is not None else np.zeros_like(p.data)
        np.testing.assert_allclose(got, fd, rtol=tol, atol=tol)


def leaf(shape, seed, scale=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(-1, 1, shape) * scale + offset, requires_grad=True)


def to_scalar(t):
    # weighted reduction keeps every entry's gradient distinct
    rng = np.random.default_rng(99)
    w = Tensor(rng.uniform(0.5, 1.5, t.data.shape))
    return ad.tsum(ad.mul(t, w))


def test_add_sub_mul_div_broadcast():
    a = leaf((2, 3), 1)
    b = leaf((3,), 2)
    check_op(lambda: to_scalar(ad.add(a, b)), [a, b])
    check_op(lambda: to_scalar(ad.sub(a, b)), [a, b])
    check_op(lambda: to_scalar(ad.mul(a, b)), [a, b])
    check_op(lambda: to_scalar(ad.mul(ad.sub(a, b), b)), [a, b])


def test_scalar_broadcast_against_array():
    a = leaf((4,), 3)
    s = leaf((), 4, offset=1.5)
    check_op(lambda: to_scalar(ad.mul(a, s)), [a, s])
    check_op(lambda: to_scalar(ad.sub(a, ad.mul(s, s))), [a, s])


def test_matmul():
    a = leaf((3, 4), 7)
    b = leaf((4, 2), 8)
    check_op(lambda: to_scalar(ad.matmul(a, b)), [a, b])


def test_sum_and_mean_axes():
    a = leaf((2, 3, 4), 9)
    check_op(lambda: ad.tsum(a), [a])
    check_op(lambda: ad.mean(a), [a])
    check_op(lambda: ad.mean(ad.mul(a, a)), [a])


def test_reshape_transpose():
    a = leaf((2, 3, 4), 10)
    check_op(lambda: to_scalar(ad.reshape(a, (6, 4))), [a])


def test_interp2d():
    from hiwin.numerics import resize_matrix

    a = leaf((3, 4, 2), 12)
    rm = resize_matrix(3, 5)
    cm = resize_matrix(4, 7)
    check_op(lambda: to_scalar(ad.interp2d(a, rm, cm)), [a])


def test_interp2d_matches_plain_resize():
    from hiwin.numerics import bilinear_resize, resize_matrix

    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 6, 3))
    out = ad.interp2d(Tensor(x), resize_matrix(5, 9), resize_matrix(6, 4)).data
    np.testing.assert_allclose(out, bilinear_resize(x, 9, 4), atol=1e-12)


@pytest.mark.parametrize(
    "h, w, radius",
    [
        (3, 4, 1),
        (4, 5, 2),
        (1, 5, 1),  # one row: top and bottom padding fold onto the same cells
        (5, 1, 2),  # one column: left and right padding likewise
        (2, 3, 3),  # map smaller than the 7x7 window
    ],
)
def test_guided_mix_values_and_grad(h, w, radius):
    proj = leaf((h, w, 3), 13)
    up = leaf((h, w, 2), 14)
    log_sigma_dist = leaf((), 15, scale=0.3)
    log_sigma_sim = leaf((), 18, scale=0.3)
    out = ad.guided_mix(proj, up, log_sigma_dist, log_sigma_sim, radius)
    want = scalar_guided_mix(
        proj.data, up.data, np.exp(log_sigma_dist.item()), np.exp(log_sigma_sim.item()), radius
    )
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)
    params = [proj, up, log_sigma_dist, log_sigma_sim]
    check_op(
        lambda: to_scalar(ad.guided_mix(proj, up, log_sigma_dist, log_sigma_sim, radius)), params
    )


@pytest.mark.parametrize(
    "h, w, image_hw, patch",
    [
        (3, 5, (12, 20), 4),  # non-square map; window rows read 2, 3, 2 source rows
        (7, 3, (42, 28), 14),  # window rows read 3, 5, 3 source rows
        (1, 1, (8, 12), 4),  # a constant lift: the saliency cannot matter
    ],
)
def test_window_pool_values_and_grad(h, w, image_hw, patch):
    f = leaf((h, w, 3), 19)
    gamma = leaf((3,), 20, scale=0.5, offset=1.0)
    beta = leaf((3,), 21)
    sal_w = leaf((3,), 22, scale=2.0)
    sal_b = leaf((), 23)
    out = ad.window_pool(f, gamma, beta, sal_w, sal_b, image_hw, patch)
    want = scalar_attention_downsample(
        f.data, image_hw, gamma.data, beta.data, sal_w.data, sal_b.item(), patch
    )
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)
    params = [f, gamma, beta, sal_w, sal_b]
    check_op(lambda: to_scalar(ad.window_pool(f, gamma, beta, sal_w, sal_b, image_hw, patch)), params)
    # softmax ignores a shift of every score, so sal_b's gradient is exactly 0
    assert np.array_equal(sal_b.grad, 0.0)


def test_leaf_reuse_accumulates():
    a = Tensor(np.array(3.0), requires_grad=True)
    out = ad.add(ad.mul(a, a), a)  # a^2 + a -> grad 2a + 1 = 7
    out.backward()
    assert a.grad == pytest.approx(7.0)


def test_backward_requires_scalar():
    a = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.mul(a, 2.0).backward()


def test_backward_rejects_nonfinite():
    a = Tensor(np.array(1.0), requires_grad=True)
    out = ad.mul(a, np.inf)
    with pytest.raises(NumericalError):
        out.backward()
