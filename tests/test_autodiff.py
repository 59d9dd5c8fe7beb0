"""Finite-difference checks for every differentiation-graph operation."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import hiwin
from hiwin import autodiff as ad
from hiwin.autodiff import NumericalError, Tensor

from helpers import scalar_attention_downsample, scalar_guided_mix

T = ad._TILE  # output columns per banded tile of guided_mix


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


def test_sum_and_mean_axes():
    a = leaf((2, 3, 4), 9)
    check_op(lambda: ad.tsum(a), [a])
    check_op(lambda: ad.mean(a), [a])
    check_op(lambda: ad.mean(ad.mul(a, a)), [a])


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


def edge_padded_leaf(shape, seed, radius):
    """A leaf holding a random (h, w, C) map edge-padded by ``radius``: the
    padded lift ``guided_mix`` takes."""
    core = np.random.default_rng(seed).uniform(-1, 1, shape)
    pad = ((radius, radius), (radius, radius), (0, 0))
    return Tensor(np.pad(core, pad, mode="edge"), requires_grad=True)


@pytest.mark.parametrize(
    "h, w, radius",
    [
        (3, 4, 1),
        (4, 5, 2),
        (1, 5, 1),  # one row: every window row but the middle reads padding
        (5, 1, 2),  # one column: every window column but the middle likewise
        (2, 3, 3),  # map smaller than the 7x7 window
        (2, 2 * T, 3),  # two whole tiles
        (2, 2 * T + 5, 3),  # a ragged last tile
        (3, 2 * T + 1, 1),  # radius 1: a 2-column overhang into the next tile
        (2, T + 3, T // 2),  # 2r = T: the overhang spans a whole tile
        (1, T + 5, T // 2 + 1),  # 2r > T: tiles widen to 2r
    ],
)
def test_guided_mix_values_and_grad(h, w, radius):
    guide = np.random.default_rng(13).uniform(-1, 1, (h, w, 3))  # a constant of the op
    up_pad = edge_padded_leaf((h, w, 2), 14, radius)
    log_sigma_dist = leaf((), 15, scale=0.3)
    log_sigma_sim = leaf((), 18, scale=0.3)
    # projection widths below, at and above the rank 4 of the 4x4 Gram
    for d_proj in (1, 3, 8):
        proj_w = leaf((3, d_proj), 16)
        proj_b = leaf((d_proj,), 17, scale=0.5)
        params = [proj_w, proj_b, up_pad, log_sigma_dist, log_sigma_sim]
        out = ad.guided_mix(guide, *params, radius)
        want = scalar_guided_mix(
            guide @ proj_w.data + proj_b.data,
            up_pad.data[radius : radius + h, radius : radius + w],
            np.exp(log_sigma_dist.item()),
            np.exp(log_sigma_sim.item()),
            radius,
        )
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)
        # every padded cell is an operand of its own; the lift folds them
        check_op(lambda: to_scalar(ad.guided_mix(guide, *params, radius)), params)


def test_guided_mix_output_does_not_depend_on_requires_grad():
    # inference drops the logits and records no VJP, but runs the same kernels
    rng = np.random.default_rng(7)
    guide = rng.uniform(0, 1, (6, 2 * T + 3, 3))
    arrays = [
        rng.standard_normal((3, 5)),
        rng.standard_normal(5),
        rng.standard_normal((12, 2 * T + 9, 4)),
        np.array(0.4),
        np.array(-0.1),
    ]
    outs = []
    for trainable in (True, False):
        params = [Tensor(a, requires_grad=trainable) for a in arrays]
        out = ad.guided_mix(guide, *params, 3)
        assert out.requires_grad is trainable and (out._vjp is not None) is trainable
        outs.append(out.data.tobytes())
    assert outs[0] == outs[1]


def test_guided_mix_rejects_an_unpadded_map():
    guide = np.zeros((4, 5, 3))
    with pytest.raises(ValueError, match=r"\(H \+ 2r, W \+ 2r, C\)"):
        ad.guided_mix(guide, np.zeros((3, 2)), np.zeros(2), np.zeros((4, 5, 2)), 0.0, 0.0, 1)


_BLAS_PROBE = textwrap.dedent(
    """
    import hashlib
    import numpy as np
    from hiwin import autodiff as ad

    rng = np.random.default_rng(5)
    guide = rng.uniform(0, 1, (20, 40, 3))
    proj_w = ad.Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    proj_b = ad.Tensor(rng.standard_normal(8), requires_grad=True)
    up = np.pad(rng.standard_normal((20, 40, 16)), ((3, 3), (3, 3), (0, 0)), mode="edge")
    up_pad = ad.Tensor(up, requires_grad=True)
    lsd = ad.Tensor(np.array(0.3), requires_grad=True)
    lss = ad.Tensor(np.array(-0.2), requires_grad=True)
    params = (proj_w, proj_b, up_pad, lsd, lss)
    out = ad.guided_mix(guide, *params, 3)
    ad.tsum(ad.mul(out, rng.uniform(0.5, 1.5, out.shape))).backward()
    digest = hashlib.sha256(out.data.tobytes())
    for t in params:
        digest.update(t.grad.tobytes())
    print(digest.hexdigest())
    """
)


def test_guided_mix_bits_do_not_depend_on_blas_threads():
    # a 40-column map spans several tiles, so the banded products run on BLAS
    src = str(Path(hiwin.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]


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
