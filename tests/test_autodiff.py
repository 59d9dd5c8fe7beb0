"""Finite-difference checks for every differentiation-graph operation."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import hiwin
from hiwin import autodiff as ad, numerics
from hiwin.autodiff import NumericalError, Tensor
from hiwin.encoder import FeatureMap
from hiwin.image_io import Image
from hiwin.numerics import fd_grads
from hiwin.vdim import LevelKernel, VdimParams, _UpsampledLevel, jbu_upsample

from helpers import scalar_attention_downsample, scalar_guided_upsample, scalar_recon_loss, weighted_sum

T = ad._TILE  # map columns per banded tile of guided_upsample (2T output columns)


def check_op(build, params, tol=1e-6):
    out = build()
    for p in params:
        p.grad = None
    out.backward()
    for p, fd in zip(params, fd_grads(lambda _: build(), params, h=1e-6)):
        got = p.grad if p.grad is not None else np.zeros_like(p.data)
        np.testing.assert_allclose(got, fd, rtol=tol, atol=tol)


def leaf(shape, seed, scale=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(-1, 1, shape) * scale + offset, requires_grad=True)


def to_scalar(t):
    # weighted reduction keeps every entry's gradient distinct
    rng = np.random.default_rng(99)
    return weighted_sum(t, rng.uniform(0.5, 1.5, t.data.shape))


@pytest.mark.parametrize(
    "feats_hw, guide_hw",
    [
        pytest.param((1, 3), (2, 6), id="one-row"),  # every map row of a window but the middle reads padding
        pytest.param((3, 1), (6, 2), id="one-column"),  # every map column but the middle likewise
        pytest.param((1, 2), (2, 4), id="smaller-than-window"),
        pytest.param((2, 2 * T), (4, 4 * T), id="two-tiles"),
        pytest.param((1, T + 3), (2, 2 * T + 6), id="ragged-last-tile"),
        pytest.param((2, T + 1), (4, 2 * T + 2), id="overhang"),  # the last tile holds one map column
        pytest.param((3, 4), (6, 8), id="doubling"),
    ],
)
def test_guided_upsample_values_and_grad(feats_hw, guide_hw):
    guide = np.random.default_rng(13).uniform(-1, 1, guide_hw + (3,))  # a constant of the op
    feats = leaf(feats_hw + (2,), 14)
    log_sigma_dist = leaf((), 15, scale=0.3)
    log_sigma_sim = leaf((), 18, scale=0.3)
    # projection widths below, at and above the rank 4 of the 4x4 Gram
    for d_proj in (1, 3, 8):
        proj_w = leaf((3, d_proj), 16)
        proj_b = leaf((d_proj,), 17, scale=0.5)
        params = [feats, proj_w, proj_b, log_sigma_dist, log_sigma_sim]
        out = ad.guided_upsample(feats, guide, proj_w, proj_b, log_sigma_dist, log_sigma_sim)
        want = scalar_guided_upsample(
            feats.data,
            guide,
            proj_w.data,
            proj_b.data,
            np.exp(log_sigma_dist.item()),
            np.exp(log_sigma_sim.item()),
            ad.RADIUS,
        )
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)
        check_op(lambda: to_scalar(ad.guided_upsample(feats, guide, *params[1:])), params)


def test_guided_mix_output_does_not_depend_on_requires_grad():
    # inference, jbu_upsample through the upsampled level, drops the logits and
    # writes float32, but runs the same kernels: its output is the training
    # op's float64 output cast.  The op on plain arrays records no VJP
    rng = np.random.default_rng(7)
    guide = Image(rng.uniform(0, 1, (6, 2 * T + 6, 3)))
    arrays = [
        rng.standard_normal((3, T + 3, 4)).astype(np.float32),
        rng.standard_normal((3, 5)),
        rng.standard_normal(5),
        np.array(0.4),
        np.array(-0.1),
    ]
    feats, *params = [Tensor(a, requires_grad=True) for a in arrays]
    trained = ad.guided_upsample(feats, guide.decoded(), *params)
    assert trained.requires_grad and trained._vjp is not None and trained.data.dtype == np.float64
    plain = ad.guided_upsample(arrays[0], guide.decoded(), *arrays[1:])
    assert isinstance(plain, Tensor) and not plain.requires_grad and plain._vjp is None
    assert plain.data.tobytes() == trained.data.tobytes()
    inferred = jbu_upsample(FeatureMap(arrays[0]), guide, VdimParams([LevelKernel(*arrays[1:])]), level=0)
    assert inferred.data.dtype == np.float32
    assert inferred.data.tobytes() == trained.data.astype(np.float32).tobytes()


@pytest.mark.parametrize("hwc", [(13, 19, 16), (20, 27, 64)])
def test_guided_upsample_bits_do_not_depend_on_the_block_size(hwc, monkeypatch):
    # several row blocks at the default size, several tiles and a ragged last
    # tile; one row per block takes every block boundary there is.
    # Inference, the upsampled level read whole in the row blocks of one coarse
    # row's weights, writes the bits of the float64 forward, one whole-map
    # block, cast to float32
    h, w, c = hwc
    rng = np.random.default_rng(21)
    guide = rng.uniform(0, 1, (2 * h, 2 * w, 3))
    arrays = [rng.standard_normal((h, w, c)), rng.standard_normal((3, 8)), rng.standard_normal(8), 0.3, -0.2]
    weights = rng.uniform(0.5, 1.5, (2 * h, 2 * w, c))
    rows = numerics.BLOCK_ELEMS // (2 * 2 * w * ad._K * ad._K)  # coarse rows per inference block
    assert h > rows and h % rows  # several inference blocks, the last ragged
    blocks, row_blocks = [], ad.row_blocks

    def counted_row_blocks(*args):
        blocks.append(row_blocks(*args))
        return blocks[-1]

    monkeypatch.setattr(ad, "row_blocks", counted_row_blocks)
    runs = []
    for block_elems in (numerics.BLOCK_ELEMS, 1):
        monkeypatch.setattr(numerics, "BLOCK_ELEMS", block_elems)
        params = [Tensor(a, requires_grad=True) for a in arrays]
        out = ad.guided_upsample(params[0], guide, *params[1:])
        weighted_sum(out, weights).backward()
        runs.append([out.data] + [p.grad for p in params])
        if block_elems > 1:  # the training forward's window dots and mix, and
            # both banded passes of the VJP cut the whole map into several blocks
            whole = [b for b in blocks if b[-1][1] in (h, 2 * h)]
            assert len(whole) == 4 and all(len(b) > 1 for b in whole) and w % T
        inferred = np.asarray(_UpsampledLevel(arrays[0], guide, LevelKernel(*arrays[1:])))
        assert inferred.tobytes() == out.data.astype(np.float32).tobytes()
    for default, one_row in zip(*runs):
        np.testing.assert_array_equal(default, one_row)


# the two entries to the guided upsampler: the training op, and the cell
# source that inference reads
ENTRIES = [
    pytest.param(
        lambda feats, guide: ad.guided_upsample(feats, guide, np.zeros((3, 2)), np.zeros(2), 0.0, 0.0), id="op"
    ),
    pytest.param(
        lambda feats, guide: _UpsampledLevel(feats, guide, LevelKernel(np.zeros((3, 2)), np.zeros(2), 0.0, 0.0)),
        id="rows",
    ),
]


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("shape", [(4, 5), (4, 5, 4)], ids=["grey", "four-channel"])
def test_guided_upsample_rejects_a_guide_that_is_not_rgb(shape, entry):
    with pytest.raises(ValueError, match=r"\(H, W, 3\) guide"):
        entry(np.zeros((2, 3, 2)), np.zeros(shape))


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize(
    "guide_hw", [(3, 4), (9, 12), (6, 7), (5, 8)], ids=["same-size", "3x", "one-column-off", "one-row-off"]
)
def test_guided_upsample_rejects_any_ratio_but_2x(guide_hw, entry):
    gh, gw = guide_hw
    with pytest.raises(ValueError, match=rf"guide dims {gw}x{gh} do not match 2x feature dims 8x6 of the 4x3 map"):
        entry(np.zeros((3, 4, 2)), np.zeros(guide_hw + (3,)))


_BLAS_PROBE = textwrap.dedent(
    """
    import hashlib
    import numpy as np
    from hiwin import autodiff as ad
    from helpers import weighted_sum

    rng = np.random.default_rng(5)
    guide = rng.uniform(0, 1, (20, 40, 3))
    feats = ad.Tensor(rng.standard_normal((10, 20, 16)), requires_grad=True)
    proj_w = ad.Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    proj_b = ad.Tensor(rng.standard_normal(8), requires_grad=True)
    lsd = ad.Tensor(np.array(0.3), requires_grad=True)
    lss = ad.Tensor(np.array(-0.2), requires_grad=True)
    params = (feats, proj_w, proj_b, lsd, lss)
    out = ad.guided_upsample(feats, guide, proj_w, proj_b, lsd, lss)
    weighted_sum(out, rng.uniform(0.5, 1.5, out.data.shape)).backward()
    digest = hashlib.sha256(out.data.tobytes())
    for t in params:
        digest.update(t.grad.tobytes())
    print(digest.hexdigest())
    """
)


def test_guided_mix_bits_do_not_depend_on_blas_threads():
    # a 40-column map spans several tiles, so the banded products run on BLAS
    path = os.pathsep.join([str(Path(hiwin.__file__).resolve().parents[1]), str(Path(__file__).parent)])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=path)
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


@pytest.mark.parametrize("h, w, image_hw, patch", [(3, 5, (12, 20), 4), (7, 3, (42, 28), 14), (16, 32, (112, 224), 14)])
def test_window_pool_layout_is_built_once_per_shape_read_only(h, w, image_hw, patch):
    ih, iw = image_hw
    cached = ad._pool_layout(h, w, ih, iw, patch)
    assert ad._pool_layout(h, w, ih, iw, patch) is cached
    fresh = ad._pool_layout.__wrapped__(h, w, ih, iw, patch)
    rm, cm, cm3, rows = cached
    assert np.array_equal(rm, fresh[0]) and np.array_equal(cm, fresh[1]) and np.array_equal(cm3, fresh[2])
    assert np.array_equal(rm, numerics.resize_matrix(h, ih)) and np.array_equal(cm, numerics.resize_matrix(w, iw))
    assert cm3.shape == (iw // patch, patch, w)
    assert len(rows) == len(fresh[3]) == ih // patch
    for a, ((lo, hi, taps), (f_lo, f_hi, f_taps)) in enumerate(zip(rows, fresh[3])):
        assert (lo, hi) == (f_lo, f_hi) and np.array_equal(taps, f_taps)
        # a window row's band holds every row tap of its pixel rows
        band = rm[a * patch : (a + 1) * patch]
        assert np.array_equal(taps, band[:, lo:hi]) and not band[:, :lo].any() and not band[:, hi:].any()
    for arr in (rm, cm, cm3, *(taps for _, _, taps in rows)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr += 1.0


@pytest.mark.parametrize("n, pad, lo, hi", [(5, 2, 0, None), (48, 3, 6, 12), (1, 3, 0, 1), (96, 3, 90, 96)])
def test_edge_index_is_built_once_per_geometry_read_only(n, pad, lo, hi):
    # one index per axis length and pad; a row block's rows are a slice of it
    index = ad._edge_index(n, pad)
    assert ad._edge_index(n, pad) is index
    assert index.tolist() == [min(max(i, 0), n - 1) for i in range(-pad, n + pad)]
    with pytest.raises(ValueError, match="read-only"):
        index += 1
    a = np.arange(n * 2).reshape(n, 2)
    rows = [min(max(i, 0), n - 1) for i in range(lo - pad, (n if hi is None else hi) + pad)]
    cols = [min(max(j, 0), 1) for j in range(-pad, 2 + pad)]
    assert np.array_equal(ad._edge_pad(a, pad, lo, hi), a[rows][:, cols])


@pytest.mark.parametrize("maps", [1, 2, 3])
def test_recon_loss_values_and_grad(maps):
    base = np.random.default_rng(24).uniform(-1, 1, (3, 2, 4))  # a constant of the op
    pooled = [leaf((3, 2, 4), 25 + k, scale=1.0 + k, offset=0.5 * k) for k in range(maps)]
    out = ad.recon_loss(pooled, base)
    assert out.item() == pytest.approx(scalar_recon_loss([p.data for p in pooled], base), rel=1e-12, abs=1e-12)
    check_op(lambda: ad.recon_loss(pooled, base), pooled)


def test_recon_loss_scales_each_sum_of_squares_by_one_over_n():
    # integer differences make the sum of squares (5) exact in any order, so the
    # value pins how it is scaled: 5 * (1 / 7) and 5 / 7 differ in the last bit
    assert 5 * (1.0 / 7) != 5 / 7
    pooled = np.array([1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert ad.recon_loss([pooled], np.zeros(7)).item() == 0.5 * (5 * (1.0 / 7))


@pytest.mark.parametrize("pooled", [[np.zeros((2, 3))], []], ids=["transposed", "none"])
def test_recon_loss_rejects_maps_not_of_the_base_shape(pooled):
    with pytest.raises(ValueError, match=r"base's shape \(3, 2\)"):
        ad.recon_loss(pooled, np.zeros((3, 2)))


def test_leaf_reuse_accumulates():
    a = Tensor(np.array(3.0), requires_grad=True)
    out = ad.recon_loss([a, a], np.zeros(()))  # 0.5 * (a^2 + a^2) = a^2 -> grad 2a = 6
    out.backward()
    assert a.grad == pytest.approx(6.0)


def test_backward_requires_scalar():
    f = Tensor(np.ones((1, 1, 3)), requires_grad=True)
    out = ad.window_pool(f, np.ones(3), np.zeros(3), np.zeros(3), 0.0, (4, 4), 4)
    with pytest.raises(ValueError):
        out.backward()


def test_backward_rejects_nonfinite():
    a = Tensor(np.array(1.0), requires_grad=True)
    out = ad.recon_loss([a], np.array(np.inf))
    with pytest.raises(NumericalError):
        out.backward()
