"""End-to-end runs, the reference projectors, and checkpoint round trips."""

import os
import platform
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hiwin
from hiwin import autodiff, pipeline, vdim, window_attn
from hiwin.checkpoint import load_checkpoint, save_checkpoint
from hiwin.encoder import EncoderSpec, FeatureMap
from hiwin.formats import DataFormatError, read_tensor
from hiwin.image_io import Image, load_ppm, save_ppm, synth_corpus
from hiwin.numerics import NumericalError, bilinear_resize
from hiwin.pipeline import (
    PipelineConfig,
    baseline_mlp,
    baseline_resampler,
    init_mlp_weight,
    project_tokens,
    run_pipeline,
)
from hiwin.token_org import flatten
from hiwin.vdim import DownsamplerParams, FeaturePyramid, VdimParams, trainable_arrays
from hiwin.window_attn import AttnParams, HiwinConfig, select_grid
from hiwin.workers import WorkerTraceback

from helpers import counted_calls, traced_peak


# (Python, numpy) versions -> (width, height) of a photo -> the bound of
# TestRunPipeline.test_calls_per_unit_of_a_warm_photo
CALLS_PER_UNIT = {("3.11.7", "2.4.6"): {(336, 336): 4_420, (1008, 672): 4_520, (4032, 3024): 5_880}}


def small_config(channels=8, threads=1):
    return PipelineConfig(
        encoder=EncoderSpec(channels=channels, seed=0),
        hiwin=HiwinConfig(channels=channels),
        threads=threads,
    )


def constant_isp(value=0.4, channels=8, base=4):
    levels = [
        FeatureMap(
            np.full((base * 2**l, base * 2**l, channels), value, dtype=np.float32), level=l
        )
        for l in range(3)
    ]
    return FeaturePyramid(levels=levels)


# kills the second of two unit workers in its first unit, slice:3, once the
# first worker has returned the overview's and slice:0-2's tokens; runs
# run_pipeline, then ``hiwin pipeline``, printing each error or exit code
# and the children left
_KILL_A_UNIT_WORKER = """
import os, signal, sys, time
from hiwin import pipeline
from hiwin.checkpoint import save_checkpoint
from hiwin.cli import main
from hiwin.encoder import EncoderSpec
from hiwin.image_io import Image, save_ppm, synth_corpus
from hiwin.numerics import bilinear_resize
from hiwin.vdim import DownsamplerParams, VdimParams
from hiwin.window_attn import AttnParams, HiwinConfig
from helpers import children

returned = os.path.join(sys.argv[1], "returned")
project = pipeline.project_tokens

def project_tokens(isp, *args):
    if isp.origin == "slice:3":
        while not os.path.exists(returned):
            time.sleep(0.01)
        time.sleep(0.5)  # the first worker's tokens reach the caller
        os.kill(os.getpid(), signal.SIGKILL)
    tokens = project(isp, *args)
    if isp.origin == "slice:2":
        open(returned, "w").close()
    return tokens

pipeline.project_tokens = project_tokens
os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any machine
image = Image(bilinear_resize(synth_corpus(3, 1, 336)[0].pixels, 672, 1008))
config = pipeline.PipelineConfig(encoder=EncoderSpec(channels=8, seed=0), hiwin=HiwinConfig(channels=8))
vdim, attn = VdimParams.init(d_proj=8, seed=0), AttnParams.init(config.hiwin, seed=0)
try:
    pipeline.run_pipeline(image, vdim, attn, config)
except ChildProcessError as e:
    print(e)
print(children())
os.remove(returned)
ppm, ckpt = os.path.join(sys.argv[1], "big.ppm"), os.path.join(sys.argv[1], "c8.ckpt")
save_ppm(image, ppm)
save_checkpoint(ckpt, vdim, DownsamplerParams.init(8, seed=0), attn=attn)
print(main(["pipeline", "--image", ppm, "--ckpt", ckpt, "--out", os.path.join(sys.argv[1], "o.toks")]))
print(children())
"""


class TestRunPipeline:
    def test_single_tile_token_count(self):
        img = synth_corpus(0, 1, 336)[0]
        config = small_config()
        result = run_pipeline(img, VdimParams.init(d_proj=8, seed=0), AttnParams.init(config.hiwin, seed=0), config)
        assert flatten(result.tokens).tokens.shape[0] == 288

    def test_landscape_token_count_and_grid(self):
        img = synth_corpus(1, 1, 336)[0]
        big = Image(bilinear_resize(img.pixels, 672, 1008))
        config = small_config()
        result = run_pipeline(big, VdimParams.init(d_proj=8, seed=0), AttnParams.init(config.hiwin, seed=0), config)
        assert (result.layout.cols, result.layout.rows) == (3, 2)
        assert result.grid == (3, 3)
        assert flatten(result.tokens).tokens.shape[0] == 1008

    def test_deterministic(self):
        img = synth_corpus(2, 1, 336)[0]
        config = small_config()
        vdim = VdimParams.init(d_proj=8, seed=1)
        attn = AttnParams.init(config.hiwin, seed=1)
        a = run_pipeline(img, vdim, attn, config)
        b = run_pipeline(img, vdim, attn, config)
        np.testing.assert_array_equal(a.tokens.global_map, b.tokens.global_map)
        np.testing.assert_array_equal(a.tokens.overview, b.tokens.overview)

    def test_threaded_matches_serial(self):
        img = synth_corpus(3, 1, 336)[0]
        big = Image(bilinear_resize(img.pixels, 672, 1008))
        vdim = VdimParams.init(d_proj=8, seed=2)
        serial_cfg = small_config()
        threaded_cfg = small_config(threads=4)
        attn = AttnParams.init(serial_cfg.hiwin, seed=2)
        a = run_pipeline(big, vdim, attn, serial_cfg)
        b = run_pipeline(big, vdim, attn, threaded_cfg)
        np.testing.assert_array_equal(a.tokens.global_map, b.tokens.global_map)
        np.testing.assert_array_equal(a.tokens.overview, b.tokens.overview)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_fewer_than_one_thread_is_refused(self, threads):
        # it ran the units serially before the pool became the one loop
        img = synth_corpus(0, 1, 336)[0]
        config = small_config(threads=threads)
        with pytest.raises(ValueError, match=rf"PipelineConfig.threads must be at least 1, got {threads}"):
            run_pipeline(img, VdimParams.init(d_proj=8, seed=0), AttnParams.init(config.hiwin, seed=0), config)

    def unit_pids(self, tmp_path, monkeypatch, size, threads):
        """The process that projected each unit of an image of ``size``
        (width, height), with ``threads`` units in flight at most."""
        pids = tmp_path / "pids"
        project = pipeline.project_tokens

        def recorded(isp, *args):  # inherited by the forked workers
            with open(pids, "a") as f:
                f.write(f"{os.getpid()}\n")
            time.sleep(0.05)  # no worker ends its chunk before the others start
            return project(isp, *args)

        monkeypatch.setattr(pipeline, "project_tokens", recorded)
        img = Image(bilinear_resize(synth_corpus(6, 1, 336)[0].pixels, size[1], size[0]))
        config = small_config(threads=threads)
        run_pipeline(img, VdimParams.init(d_proj=8, seed=0), AttnParams.init(config.hiwin, seed=0), config)
        return [int(pid) for pid in pids.read_text().split()]

    @pytest.mark.parametrize(
        "size, units, threads, want",
        # one worker per chunk of ceil(units / threads) units: 7 units on 2
        # threads are 4 + 3; one thread runs them in this process
        [((1008, 672), 7, 2, 2), ((336, 336), 2, 8, 2), ((1008, 672), 7, 1, 0)],
    )
    def test_units_run_on_one_worker_per_chunk(self, tmp_path, monkeypatch, size, units, threads, want):
        pids = self.unit_pids(tmp_path, monkeypatch, size, threads)
        assert len(pids) == units
        assert len(set(pids) - {os.getpid()}) == want
        assert (os.getpid() in pids) == (want == 0)

    @pytest.mark.parametrize("platform", ["darwin", "win32", "freebsd14"])
    def test_off_linux_the_units_run_in_the_calling_process(self, tmp_path, monkeypatch, platform):
        # no fork pool where fork may be unsafe and no death signal exists
        monkeypatch.setattr(sys, "platform", platform)
        assert set(self.unit_pids(tmp_path, monkeypatch, (1008, 672), threads=2)) == {os.getpid()}

    def test_a_killed_unit_worker_ends_the_call_naming_the_first_unit_not_returned(self, tmp_path):
        # in a subprocess, so that a hang fails on the timeout
        src = str(Path(hiwin.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", _KILL_A_UNIT_WORKER, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)])},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        error = "a unit worker ended before it returned the tokens of unit slice:3"
        assert done.stdout.splitlines() == [error, "[]", "3", "[]"]
        assert done.stderr == f"error: {error}\n"

    @pytest.mark.parametrize("size", [(336, 336), (1008, 672), (4032, 3024)], ids=lambda s: "%dx%d" % s)
    def test_calls_per_unit_of_a_warm_photo(self, tmp_path, size):
        # every Python and C call of one warm run_pipeline over a loaded
        # photo at one thread, per unit (the overview and each slice):
        # measured 4,004, 4,104 and 5,454 per unit at 336x336, 1008x672 and
        # 4032x3024, with the guidance pyramid's resizes cut into 8 blocks
        # that count the bytes of the rows they gather; 3,860, 3,960 and
        # 5,309 with 4 blocks that counted only their output rows; 4,299,
        # 4,398 and 5,747 when these bounds were set; 4,459, 4,561 and
        # 5,927 while the top pyramid level was asked for a lazy block of
        # rows, then for its columns, and sorted and remapped the indices
        # asked; 5,278, 5,440 and 7,175 while it
        # computed every column of the rows its taps read and the slice cut
        # took each block's columns along the axis of a copy of the crop's
        # rows; 5,472 at 336x336 while inference entered the guided
        # upsampler through the eager op as well as the row source, three
        # routines worked out which cells the taps read, gathers went
        # through np.take and assemble_kv looped over row blocks of its
        # own.  The count depends on numpy's Python layer, so the bounds
        # hold for the versions they were measured on
        bound = CALLS_PER_UNIT.get((platform.python_version(), np.__version__), {}).get(size)
        if bound is None:
            pytest.skip(f"no call-count bound for Python {platform.python_version()} and numpy {np.__version__}")
        width, height = size
        path = tmp_path / "photo.ppm"
        if size == (336, 336):
            save_ppm(synth_corpus(7, 1, 336)[0], path)
        else:
            save_ppm(Image(np.random.default_rng(7).integers(0, 256, (height, width, 3), dtype=np.uint8)), path)
        img = load_ppm(path)
        config = PipelineConfig(encoder=EncoderSpec(channels=64, seed=0), hiwin=HiwinConfig(channels=64), threads=1)
        vdim, attn = VdimParams.init(d_proj=32, seed=0), AttnParams.init(config.hiwin, seed=0)
        run_pipeline(img, vdim, attn, config)  # the cached projections, taps and tables are built
        result, calls = counted_calls(lambda: run_pipeline(img, vdim, attn, config))
        units = result.layout.count + 1  # the slices and the overview
        assert units == {336: 2, 1008: 7, 4032: 7}[width]
        assert calls / units < bound, f"{calls / units:.0f} calls per unit"

    def test_peak_memory_of_a_warm_photo(self, tmp_path):
        # one warm run_pipeline over a loaded 1008x672 photo at one thread:
        # its 7 units run one at a time in this process, so the peak is one
        # unit's. The top level is asked before a compress block's value
        # array exists, resize blocks count the rows they gather and the
        # kernel's softmax writes its weights over its logits: measured 2.52
        # MiB; 2.79 MiB without those three
        path = tmp_path / "photo.ppm"
        save_ppm(Image(np.random.default_rng(7).integers(0, 256, (672, 1008, 3), dtype=np.uint8)), path)
        img = load_ppm(path)
        config = PipelineConfig(encoder=EncoderSpec(channels=64, seed=0), hiwin=HiwinConfig(channels=64), threads=1)
        vdim, attn = VdimParams.init(d_proj=32, seed=0), AttnParams.init(config.hiwin, seed=0)
        run_pipeline(img, vdim, attn, config)  # the cached projections, taps and tables are built
        result, peak = traced_peak(lambda: run_pipeline(img, vdim, attn, config))
        assert result.layout.count + 1 == 7
        assert peak < 2.65 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_the_top_level_computes_only_the_cells_its_taps_read(self, tmp_path, monkeypatch):
        # one warm 336x336 run, two units at grid (3, 3): the RoI taps of each
        # unit's 96x96 top level read 72 of its rows and 72 of its columns.
        # compress asks for them a block of window rows at a time, and the
        # kernel computes each of those 72x72 cells once, and no other; the
        # top level is never read whole
        path = tmp_path / "photo.ppm"
        save_ppm(synth_corpus(7, 1, 336)[0], path)
        img = load_ppm(path)
        config = PipelineConfig(encoder=EncoderSpec(channels=64, seed=0), hiwin=HiwinConfig(channels=64), threads=1)
        params, attn = VdimParams.init(d_proj=32, seed=0), AttnParams.init(config.hiwin, seed=0)
        want = run_pipeline(img, params, attn, config)
        computed, read_whole = [], []
        kernel, whole = autodiff.guided_upsample_rows, vdim._UpsampledLevel.__array__

        def recorded_kernel(out, feats, *args):
            rows, layout = args[-2:]
            if feats.shape[:2] == (48, 48):  # level 1, the top level's source
                computed.append((rows, layout.cols))
            return kernel(out, feats, *args)

        def recorded_whole(self, *args, **kwargs):
            read_whole.append(self.shape)
            return whole(self, *args, **kwargs)

        monkeypatch.setattr(autodiff, "guided_upsample_rows", recorded_kernel)
        monkeypatch.setattr(vdim._UpsampledLevel, "__array__", recorded_whole)
        result = run_pipeline(img, params, attn, config)
        assert result.grid == (3, 3) and result.layout.count + 1 == 2
        assert np.array_equal(result.tokens.global_map, want.tokens.global_map)
        assert np.array_equal(result.tokens.overview, want.tokens.overview)
        i0, i1, _ = window_attn._window_taps(96, 12, 3)
        tapped = np.union1d(i0, i1)
        assert tapped.size == 72
        assert all(np.array_equal(cols, tapped) for _, cols in computed)
        assert np.array_equal(np.sort(np.concatenate([rows for rows, _ in computed])), np.repeat(tapped, 2))
        assert read_whole == [(48, 48, 64)] * 2  # level 1 of each unit; never the top level

    def test_grid_follows_the_first_slice_not_the_overview(self):
        # 1008x504 cuts 3x2 slices of 336x252, whose 24x18 patches select a
        # (3, 2) pooling grid; the 336x336 overview would select (3, 3)
        img = synth_corpus(4, 1, 336)[0]
        wide = Image(bilinear_resize(img.pixels, 504, 1008))
        config = small_config()
        result = run_pipeline(wide, VdimParams.init(d_proj=8, seed=0), AttnParams.init(config.hiwin, seed=0), config)
        w, h = result.layout.slice_dims[0]
        assert (w, h) == (336, 252)
        assert result.grid == select_grid(w // 14, h // 14) == (3, 2)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("change", ["truncated", "replaced"])
    def test_a_file_changed_after_load_is_refused_inside_the_units(self, tmp_path, change, threads):
        # each unit reads its slice's rows from the file, in a forked worker
        # too: the loader's error reaches the caller as it is
        rng = np.random.default_rng(5)
        path = tmp_path / "p.ppm"
        save_ppm(Image(rng.integers(0, 256, (504, 700, 3), dtype=np.uint8)), path)
        img = load_ppm(path)
        if change == "truncated":
            os.truncate(path, path.stat().st_size - 100)
        else:
            other = tmp_path / "other.ppm"
            save_ppm(Image(rng.integers(0, 256, (504, 700, 3), dtype=np.uint8)), other)
            os.replace(other, path)
        config = small_config(threads=threads)
        with pytest.raises(DataFormatError) as err:
            run_pipeline(img, VdimParams.init(d_proj=8, seed=0), AttnParams.init(config.hiwin, seed=0), config)
        assert type(err.value) is DataFormatError
        assert str(err.value) == f"{path}: the PPM file changed after it was loaded"
        # a worker's error carries the worker's traceback as its cause
        assert (type(err.value.__cause__) is WorkerTraceback) == (threads > 1)
        if threads > 1:
            trace = str(err.value.__cause__)
            assert trace.startswith("Traceback (most recent call last):")
            assert trace.endswith(f"DataFormatError: {err.value}\n")


class TestBaselines:
    def test_all_projectors_share_output_shape(self):
        isp = constant_isp()
        config = HiwinConfig(grid_side=4, channels=8)
        attn = AttnParams.init(config, seed=4)
        weight = init_mlp_weight(8, seed=4)
        shapes = {
            name: project_tokens(isp, name, attn, config, weight).data.shape
            for name in ("hiwin", "mlp", "resampler")
        }
        assert set(shapes.values()) == {(4, 4, 8)}

    def test_mlp_without_a_weight_is_refused(self):
        with pytest.raises(ValueError, match="mlp_weight"):
            project_tokens(constant_isp(), "mlp", None, HiwinConfig(grid_side=4, channels=8))

    def test_unknown_projector_rejected(self):
        with pytest.raises(ValueError):
            project_tokens(constant_isp(), "unknown", None, HiwinConfig(channels=8))

    def test_mlp_constant_isp(self):
        weight = init_mlp_weight(8, seed=5)
        out = baseline_mlp(constant_isp(0.4), 4, weight)
        want = (np.full(8, 0.4) @ weight).astype(np.float32)
        np.testing.assert_allclose(out.data, np.broadcast_to(want, (4, 4, 8)), atol=1e-6)

    def test_mlp_matches_downsample_then_matmul_oracle(self):
        rng = np.random.default_rng(6)
        levels = [
            FeatureMap(rng.standard_normal((4 * 2**l, 4 * 2**l, 8)).astype(np.float32), level=l)
            for l in range(3)
        ]
        isp = FeaturePyramid(levels=levels)
        weight = init_mlp_weight(8, seed=6)
        out = baseline_mlp(isp, 5, weight)
        small = bilinear_resize(levels[-1].data.astype(np.float64), 5, 5)
        want = small.reshape(25, 8) @ weight
        np.testing.assert_allclose(out.data.reshape(25, 8), want, atol=1e-6)

    def test_resampler_constant_isp_collapses(self):
        config = HiwinConfig(grid_side=4, channels=8)
        params = AttnParams.init(config, seed=7)
        out = baseline_resampler(constant_isp(0.4), params, config)
        v = np.full(8, 0.4) @ params.wv + params.bv
        want = (v @ params.wo + params.bo).astype(np.float32)
        np.testing.assert_allclose(out.data, np.broadcast_to(want, (4, 4, 8)), atol=1e-5)

    def test_resampler_single_query_hand_value(self):
        from hiwin.numerics import softmax

        config = HiwinConfig(grid_side=1, channels=4, heads=1)
        params = AttnParams.init(config, seed=8)
        levels = [
            FeatureMap(np.array([[[1.0, 0, 0, 0]]], dtype=np.float32), level=0),
            FeatureMap(np.full((2, 2, 4), 0.5, dtype=np.float32), level=1),
            FeatureMap(np.full((4, 4, 4), -0.5, dtype=np.float32), level=2),
        ]
        isp = FeaturePyramid(levels=levels)
        out = baseline_resampler(isp, params, config)
        feats = np.concatenate([l.data.reshape(-1, 4) for l in levels]).astype(np.float64)
        q = params.queries.reshape(1, 4) @ params.wq + params.bq
        k = feats @ params.wk + params.bk
        v = feats @ params.wv + params.bv
        att = softmax(q @ k.T / 2.0, axis=-1)
        want = (att @ v) @ params.wo + params.bo
        np.testing.assert_allclose(out.data.reshape(1, 4), want, atol=1e-5)


# The checkpoint stores no tensor names, so its tensor order is the format.
VDIM_TENSORS = [
    "upsample1.proj_w", "upsample1.proj_b", "upsample1.log_sigma_dist", "upsample1.log_sigma_sim",
    "upsample2.proj_w", "upsample2.proj_b", "upsample2.log_sigma_dist", "upsample2.log_sigma_sim",
    "down1.gamma", "down1.beta", "down1.sal_w", "down1.sal_b",
    "down2.gamma", "down2.beta", "down2.sal_w", "down2.sal_b",
]
ATTN_TENSORS = ["queries", "level_emb", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"]


def named_tensor(name, vdim, down, attn):
    """The array behind one name of ``VDIM_TENSORS + ATTN_TENSORS``."""
    if "." not in name:
        return getattr(attn, name)
    group, field = name.split(".")
    params = vdim if group.startswith("upsample") else down
    return getattr(params.levels[int(group[-1]) - 1], field)


class TestCheckpoint:
    def test_tensor_order_is_pinned(self, tmp_path):
        # reordering a field of LevelKernel, LevelDown or AttnParams must
        # fail here rather than silently change the file format
        vdim = VdimParams.init(d_proj=6, seed=17)
        down = DownsamplerParams.init(8, seed=17)
        attn = AttnParams.init(HiwinConfig(channels=8), seed=17)
        assert [name for name, _ in trainable_arrays(vdim, down)] == VDIM_TENSORS
        names = VDIM_TENSORS + ATTN_TENSORS
        for k, name in enumerate(names):
            named_tensor(name, vdim, down, attn)[...] = k
        path = tmp_path / "order.ckpt"
        save_checkpoint(path, vdim, down, attn=attn)
        with open(path, "rb") as f:
            f.seek(16)  # magic, version, d_proj, C
            stored = [read_tensor(f, named_tensor(name, vdim, down, attn).shape, name) for name in VDIM_TENSORS]
            assert f.read(4) == b"HATT"
            f.seek(16, 1)  # version, N, heads, C
            stored += [read_tensor(f, named_tensor(name, vdim, down, attn).shape, name) for name in ATTN_TENSORS]
            assert f.read() == b""
        ckpt = load_checkpoint(path)
        for k, (name, arr) in enumerate(zip(names, stored)):
            assert arr.shape == named_tensor(name, vdim, down, attn).shape, name
            assert (arr == k).all(), name
            assert (named_tensor(name, ckpt.vdim, ckpt.down, ckpt.attn) == k).all(), name

    def test_roundtrip_preserves_params(self, tmp_path):
        vdim = VdimParams.init(d_proj=6, seed=9)
        down = DownsamplerParams.init(8, seed=9)
        config = HiwinConfig(channels=8)
        attn = AttnParams.init(config, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, vdim, down, attn=attn, heads=config.heads)
        ckpt = load_checkpoint(path)
        assert ckpt.channels == 8
        assert ckpt.heads == 4
        np.testing.assert_allclose(ckpt.vdim.levels[0].proj_w, vdim.levels[0].proj_w, atol=1e-7)
        np.testing.assert_allclose(ckpt.down.levels[1].gamma, down.levels[1].gamma, atol=1e-7)
        np.testing.assert_allclose(ckpt.attn.queries, attn.queries, atol=1e-7)

    def test_non_finite_tensor_is_not_saved(self, tmp_path):
        config = HiwinConfig(channels=8)
        for field in ("down2.sal_w", "bo"):
            vdim = VdimParams.init(d_proj=6, seed=13)
            down = DownsamplerParams.init(8, seed=13)
            attn = AttnParams.init(config, seed=13)
            if field == "bo":
                attn.bo[3] = np.inf
            else:
                down.levels[1].sal_w[0] = np.nan
            path = tmp_path / "bad.ckpt"
            with pytest.raises(NumericalError, match=f"checkpoint tensor {field} holds non-finite"):
                save_checkpoint(path, vdim, down, attn=attn, heads=config.heads)
            assert not path.exists()

    def test_attention_section_optional(self, tmp_path):
        vdim = VdimParams.init(d_proj=6, seed=10)
        down = DownsamplerParams.init(8, seed=10)
        path = tmp_path / "bare.ckpt"
        save_checkpoint(path, vdim, down)
        ckpt = load_checkpoint(path)
        assert ckpt.attn is None

    def test_attention_header_heads_must_divide_channels(self, tmp_path):
        # save_checkpoint refuses such heads, so they are patched into a file
        vdim = VdimParams.init(d_proj=6, seed=12)
        down = DownsamplerParams.init(8, seed=12)
        attn = AttnParams.init(HiwinConfig(channels=8), seed=12)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, vdim, down, attn=attn)
        good = path.read_bytes()
        at = good.index(b"HATT") + 12  # the tag, u32 version and u32 N come first
        for heads in (0, 3):
            path.write_bytes(good[:at] + struct.pack("<I", heads) + good[at + 4 :])
            with pytest.raises(DataFormatError, match=f"heads={heads}"):
                load_checkpoint(path)

    @pytest.mark.parametrize("heads", [0, 3])
    def test_save_refuses_heads_that_do_not_divide_channels(self, tmp_path, heads):
        # it wrote a file that load_checkpoint refuses
        path = tmp_path / "heads.ckpt"
        attn = AttnParams.init(HiwinConfig(channels=8), seed=12)
        with pytest.raises(ValueError, match=f"bad attention header: N=12, heads={heads}, C=8"):
            save_checkpoint(path, VdimParams.init(d_proj=6, seed=12), DownsamplerParams.init(8, seed=12), attn, heads)
        assert not path.exists()

    @pytest.mark.parametrize(
        "name, shape",
        [("queries", (12, 11, 8)), ("level_emb", (4, 8)), ("wo", (8, 6)), ("upsample2.proj_w", (3, 5))],
    )
    def test_save_refuses_a_shape_the_header_does_not_imply(self, tmp_path, name, shape):
        vdim = VdimParams.init(d_proj=6, seed=12)
        down = DownsamplerParams.init(8, seed=12)
        attn = AttnParams.init(HiwinConfig(channels=8), seed=12)
        if "." in name:
            vdim.levels[1].proj_w = np.zeros(shape)
        else:
            setattr(attn, name, np.zeros(shape))
        path = tmp_path / "shape.ckpt"
        with pytest.raises(ValueError, match=re.escape(f"checkpoint tensor {name} has shape {shape}, header implies")):
            save_checkpoint(path, vdim, down, attn=attn)
        assert not path.exists()

    def test_save_refuses_attention_of_other_channels(self, tmp_path):
        path = tmp_path / "channels.ckpt"
        attn = AttnParams.init(HiwinConfig(channels=16), seed=12)
        with pytest.raises(ValueError, match="attention channels 16 != detail-injection channels 8"):
            save_checkpoint(path, VdimParams.init(d_proj=6, seed=12), DownsamplerParams.init(8, seed=12), attn)
        assert not path.exists()

    def test_header_larger_than_the_file_is_refused(self, tmp_path):
        vdim = VdimParams.init(d_proj=6, seed=13)
        down = DownsamplerParams.init(8, seed=13)
        attn = AttnParams.init(HiwinConfig(channels=8), seed=13)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, vdim, down, attn=attn)
        good = path.read_bytes()
        hatt = good.index(b"HATT")
        # u32 d_proj, then u32 N of the attention section
        for offset in (8, hatt + 8):
            path.write_bytes(good[:offset] + (2**31).to_bytes(4, "little") + good[offset + 4 :])
            with pytest.raises(DataFormatError, match="truncated checkpoint"):
                load_checkpoint(path)

    def test_header_with_no_channels_is_refused(self, tmp_path):
        # a C=0 header loaded, then made an OverflowError traceback
        # when the attention weights were drawn
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"VDIM" + np.array([1, 6, 0], dtype="<u4").tobytes())  # version, d_proj, C
        with pytest.raises(DataFormatError, match="0 channels"):
            load_checkpoint(path)

    def test_save_refuses_no_channels(self, tmp_path):
        # it wrote a file that load_checkpoint refuses
        path = tmp_path / "empty.ckpt"
        with pytest.raises(ValueError, match="the downsampler has 0"):
            save_checkpoint(path, VdimParams.init(d_proj=6, seed=14), DownsamplerParams.init(0, seed=14))
        assert not path.exists()

    def test_save_is_deterministic(self, tmp_path):
        vdim = VdimParams.init(d_proj=6, seed=11)
        down = DownsamplerParams.init(8, seed=11)
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(a, vdim, down)
        save_checkpoint(b, vdim, down)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_is_bit_exact(self, tmp_path):
        vdim = VdimParams.init(d_proj=6, seed=15)
        down = DownsamplerParams.init(8, seed=15)
        attn = AttnParams.init(HiwinConfig(channels=8), seed=15)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, vdim, down, attn=attn)
        ckpt = load_checkpoint(a)
        save_checkpoint(b, ckpt.vdim, ckpt.down, attn=ckpt.attn, heads=ckpt.heads)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("levels", [1, 3])
    def test_other_depths_are_not_saved(self, tmp_path, levels):
        # the header does not record the depth, so the loader could not
        # read such a file back
        path = tmp_path / "depth.ckpt"
        vdim, down = VdimParams.init(d_proj=6, seed=16), DownsamplerParams.init(8, seed=16)
        other_vdim = VdimParams(levels=vdim.levels[:1] * levels)
        other_down = DownsamplerParams(levels=down.levels[:1] * levels)
        for v, d, part in ((other_vdim, down, "detail-injection"), (vdim, other_down, "downsampler")):
            with pytest.raises(ValueError, match=f"the {part} model has {levels}"):
                save_checkpoint(path, v, d)
            assert not path.exists()
