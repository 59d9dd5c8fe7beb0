"""Command-line surface: outputs, file artifacts, exit codes, seeding."""

import ctypes
import os
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import hiwin
from hiwin import checkpoint, cli, formats
from hiwin.checkpoint import save_checkpoint
from hiwin.cli import main
from hiwin.encoder import FeatureMap, save_features
from hiwin.image_io import Image, load_ppm, save_ppm, synth_corpus
from hiwin.numerics import bilinear_resize
from hiwin.token_org import load_tokens
from hiwin.vdim import DownsamplerParams, VdimParams
from hiwin.window_attn import AttnParams, HiwinConfig

from helpers import traced_peak


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory):
    """Small trained checkpoint shared by the CLI tests."""
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    code = main(
        [
            "pretrain-vdim",
            "--corpus", "synthetic",
            "--count", "4",
            "--size", "56",
            "--channels", "8",
            "--d-proj", "4",
            "--steps", "2",
            "--batch", "2",
            "--seed", "3",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def image_336(tmp_path_factory):
    path = tmp_path_factory.mktemp("img") / "img336.ppm"
    save_ppm(synth_corpus(1, 1, 336)[0], path)
    return path


def test_pretrain_prints_step_loss_lines(ckpt, capsys):
    # the fixture already ran; rerun tiny to capture output
    out = capsys.readouterr()
    code = main(
        [
            "pretrain-vdim", "--corpus", "synthetic", "--count", "2", "--size", "56",
            "--channels", "4", "--d-proj", "4", "--steps", "2", "--batch", "2",
            "--seed", "1", "--out", str(ckpt) + ".tmp",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    for i, line in enumerate(lines, start=1):
        step, loss = line.split()
        assert int(step) == i
        assert float(loss) > 0


def test_pretrain_prints_each_loss_when_its_step_ends(tmp_path):
    # the first line arrives while the remaining steps still run
    src = str(Path(hiwin.__file__).resolve().parents[1])
    argv = [
        sys.executable, "-m", "hiwin.cli", "pretrain-vdim", "--corpus", "synthetic",
        "--count", "2", "--size", "56", "--channels", "4", "--d-proj", "4",
        "--steps", "100000", "--batch", "2", "--seed", "1", "--out", str(tmp_path / "s.ckpt"),
    ]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src})
    watchdog = threading.Timer(60, proc.kill)  # a held-back line reads as EOF
    watchdog.start()
    try:
        first = proc.stdout.readline()
        assert proc.poll() is None
    finally:
        watchdog.cancel()
        proc.kill()
        proc.communicate(timeout=60)
    assert first.split()[0] == "1"


def test_a_dead_training_worker_exits_3_without_a_traceback(tmp_path, capsys, monkeypatch):
    def dead_worker(*args, **kwargs):
        raise ChildProcessError("a training worker ended at step 2 before it returned its items")

    monkeypatch.setattr(cli, "pretrain_vdim", dead_worker)
    argv = ["pretrain-vdim", "--corpus", "synthetic", "--count", "2", "--size", "56", "--channels", "4"]
    assert main(argv + ["--out", str(tmp_path / "d.ckpt")]) == 3
    err = capsys.readouterr().err
    assert err == "error: a training worker ended at step 2 before it returned its items\n"
    assert not (tmp_path / "d.ckpt").exists()


def test_pretrain_refuses_an_unwritable_out_before_the_first_step(tmp_path):
    # the trained weights were lost: the checkpoint's directory was found
    # missing only when it was written, after every step
    src = str(Path(hiwin.__file__).resolve().parents[1])
    out = tmp_path / "missing" / "ck.bin"
    argv = [
        sys.executable, "-m", "hiwin.cli", "pretrain-vdim", "--corpus", "synthetic", "--count", "2",
        "--size", "56", "--channels", "4", "--d-proj", "4", "--steps", "60", "--batch", "2", "--out", str(out),
    ]
    done = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert done.returncode == 3
    assert done.stderr == f"error: cannot write {out}: {out.parent} is not a writable directory\n"
    assert done.stdout == ""
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["compress", "pipeline", "pretrain-vdim"])
def test_an_out_that_is_a_directory_exits_3_before_the_work(command, ckpt, image_336, tmp_path, capsys, monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("the work started")

    monkeypatch.setattr(cli, "run_pipeline", work)
    monkeypatch.setattr(cli, "pretrain_vdim", work)
    if command == "pretrain-vdim":
        argv = [command, "--corpus", "synthetic", "--count", "2", "--size", "56", "--channels", "4"]
    else:
        argv = [command, "--image", str(image_336), "--ckpt", str(ckpt)]
    assert main(argv + ["--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: it is a directory or not writable\n"


def test_zero_step_pretrain_prints_initial_loss(tmp_path, capsys):
    code = main(
        [
            "pretrain-vdim", "--corpus", "synthetic", "--count", "2", "--size", "56",
            "--channels", "4", "--d-proj", "4", "--steps", "0", "--batch", "2",
            "--seed", "1", "--out", str(tmp_path / "z.ckpt"),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith("0 ")


def test_build_isp_writes_three_levels(ckpt, image_336, tmp_path, capsys):
    prefix = tmp_path / "feat"
    code = main(["build-isp", "--image", str(image_336), "--ckpt", str(ckpt), "--out-prefix", str(prefix)])
    assert code == 0
    from hiwin.encoder import load_features

    dims = []
    for level in range(3):
        fmap = load_features(f"{prefix}.l{level}.ispf")
        assert fmap.level == level
        dims.append((fmap.height, fmap.width))
    assert dims == [(24, 24), (48, 48), (96, 96)]


def test_compress_counts_tokens(ckpt, image_336, tmp_path, capsys):
    out = tmp_path / "tokens.toks"
    code = main(["compress", "--image", str(image_336), "--ckpt", str(ckpt), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "tokens: 288" in printed
    assert out.exists() and (tmp_path / "tokens.toks.idx").exists()
    loaded = load_tokens(out)
    assert loaded.overview.shape == (12, 12, 8)


@pytest.mark.parametrize("projector", ["mlp", "resampler"])
def test_compress_alternate_projectors(ckpt, image_336, tmp_path, capsys, projector):
    out = tmp_path / f"{projector}.toks"
    code = main(
        ["compress", "--image", str(image_336), "--ckpt", str(ckpt),
         "--projector", projector, "--out", str(out)]
    )
    assert code == 0
    assert "tokens: 288" in capsys.readouterr().out


def test_pipeline_reports_layout_and_grid(ckpt, tmp_path, capsys):
    img = synth_corpus(2, 1, 336)[0]
    big = Image(bilinear_resize(img.pixels, 672, 1008))
    path = tmp_path / "big.ppm"
    save_ppm(big, path)
    out = tmp_path / "big.toks"
    code = main(["pipeline", "--image", str(path), "--ckpt", str(ckpt), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "layout: 3x2" in printed
    assert "grid: 3x3" in printed
    assert "tokens: 1008" in printed


def test_two_threads_write_the_tokens_one_thread_writes(ckpt, tmp_path, monkeypatch):
    # each worker fills its own caches of the attention embeddings and
    # taps; one usable core runs the units in this process
    img = synth_corpus(4, 1, 336)[0]
    path = tmp_path / "big.ppm"
    save_ppm(Image(bilinear_resize(img.pixels, 672, 1008)), path)
    written = []
    for threads in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)), raising=False)
        out = tmp_path / f"t{threads}.toks"
        argv = ["pipeline", "--image", str(path), "--ckpt", str(ckpt), "--out", str(out)]
        assert main(argv) == 0
        written.append((out.read_bytes(), Path(f"{out}.idx").read_bytes()))
    assert written[0] == written[1]


def test_visualize_emits_valid_ppm(ckpt, image_336, tmp_path):
    prefix = tmp_path / "viz"
    assert main(["build-isp", "--image", str(image_336), "--ckpt", str(ckpt), "--out-prefix", str(prefix)]) == 0
    out = tmp_path / "viz.ppm"
    assert main(["visualize", "--features", f"{prefix}.l2.ispf", "--out", str(out)]) == 0
    rendered = load_ppm(out)
    assert (rendered.height, rendered.width) == (96, 96)


def test_feature_header_larger_than_the_file_exits_3(tmp_path, capsys):
    # h = w = C = 2^32 - 1 asks for about 2^98 payload bytes
    path = tmp_path / "huge.ispf"
    path.write_bytes(b"ISPF" + struct.pack("<5I", 1, 0, *[2**32 - 1] * 3) + bytes(16))
    assert main(["visualize", "--features", str(path), "--out", str(tmp_path / "o.ppm")]) == 3
    assert "truncated ISPF level-0 map payload" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["height", "width", "channels"])
def test_feature_header_with_a_zero_dim_exits_3_naming_it(tmp_path, capsys, field):
    dims = {"height": 4, "width": 4, "channels": 2, field: 0}
    path = tmp_path / "empty.ispf"
    path.write_bytes(b"ISPF" + struct.pack("<5I", 1, 0, *dims.values()) + bytes(4 * 4 * 4 * 2))
    out = tmp_path / "o.ppm"
    assert main(["visualize", "--features", str(path), "--out", str(out)]) == 3
    assert f"ISPF header has 0 {field}" in capsys.readouterr().err
    assert not out.exists()


def test_feature_file_holding_nan_exits_4_naming_its_level(tmp_path, capsys):
    path = tmp_path / "nan.ispf"
    payload = np.ones((2, 3, 4), dtype="<f4")
    payload[1, 2, 3] = np.nan
    path.write_bytes(b"ISPF" + struct.pack("<5I", 1, 2, 2, 3, 4) + payload.tobytes())
    out = tmp_path / "o.ppm"
    assert main(["visualize", "--features", str(path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "numerical failure in visualize:" in err
    assert "ISPF level-2 map holds non-finite values" in err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["ISPF", "checkpoint"])
def test_file_with_trailing_bytes_exits_3_naming_its_format(ckpt, image_336, tmp_path, capsys, fmt):
    # both loaders read back files like these unchanged before
    features, model = tmp_path / "f.ispf", tmp_path / "m.ckpt"
    save_features(FeatureMap(np.ones((2, 3, 4), dtype=np.float32)), features)
    model.write_bytes(ckpt.read_bytes())
    with open(features if fmt == "ISPF" else model, "ab") as f:
        f.write(bytes(8))
    out = tmp_path / "o.ppm"
    if fmt == "ISPF":
        assert main(["visualize", "--features", str(features), "--out", str(out)]) == 3
    else:
        assert main(["compress", "--image", str(image_336), "--ckpt", str(model), "--out", str(out)]) == 3
    assert f"{fmt} file has 8 trailing bytes" in capsys.readouterr().err
    assert not out.exists()


def test_an_input_too_large_for_memory_exits_3_and_writes_nothing(tmp_path, capsys):
    # numpy refuses the 14e6 x 14e6 gradient image after two 112 MB linspaces
    out = tmp_path / "x.ckpt"
    argv = ["pretrain-vdim", "--corpus", "synthetic", "--size", "14000000", "--count", "1"]
    assert main(argv + ["--steps", "0", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory in pretrain-vdim: Unable to allocate")
    assert "Traceback" not in err
    assert not out.exists()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    printed = capsys.readouterr().out
    assert printed.count("ok ") == 4
    assert "ok window-attention: " in printed


def test_usage_errors_exit_2(capsys):
    assert main(["compress", "--no-such-flag"]) == 2
    assert main(["no-such-command"]) == 2


def test_missing_file_exits_3(ckpt, tmp_path, capsys):
    code = main(["compress", "--image", str(tmp_path / "nope.ppm"), "--ckpt", str(ckpt), "--out", str(tmp_path / "o.toks")])
    assert code == 3


def test_malformed_image_exits_3(ckpt, tmp_path, capsys):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P6\n2 2\n255\n\x00")
    code = main(["compress", "--image", str(bad), "--ckpt", str(ckpt), "--out", str(tmp_path / "o.toks")])
    assert code == 3


def test_help_available_everywhere(capsys):
    assert main(["--help"]) == 0
    for cmd in ("pretrain-vdim", "build-isp", "compress", "pipeline", "visualize", "selftest"):
        assert main([cmd, "--help"]) == 0


def test_env_seed_is_default(ckpt, image_336, tmp_path, capsys, monkeypatch):
    out_a = tmp_path / "a.toks"
    out_b = tmp_path / "b.toks"
    out_c = tmp_path / "c.toks"
    monkeypatch.setenv("HIWIN_SEED", "9")
    assert main(["compress", "--image", str(image_336), "--ckpt", str(ckpt), "--out", str(out_a)]) == 0
    monkeypatch.delenv("HIWIN_SEED")
    assert main(["compress", "--image", str(image_336), "--ckpt", str(ckpt), "--out", str(out_b), "--seed", "9"]) == 0
    assert main(["compress", "--image", str(image_336), "--ckpt", str(ckpt), "--out", str(out_c), "--seed", "8"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes() != out_c.read_bytes()


def test_unparsable_env_seed_is_usage_error(ckpt, image_336, tmp_path, capsys, monkeypatch):
    out = tmp_path / "a.toks"
    monkeypatch.setenv("HIWIN_SEED", "nine")
    assert main(["compress", "--image", str(image_336), "--ckpt", str(ckpt), "--out", str(out)]) == 2
    assert "HIWIN_SEED" in capsys.readouterr().err
    assert not out.exists()
    # --seed overrides the environment, so the bad value is never read
    assert main(["compress", "--image", str(image_336), "--ckpt", str(ckpt), "--out", str(out), "--seed", "9"]) == 0


def test_negative_env_seed_is_usage_error(ckpt, image_336, tmp_path, capsys, monkeypatch):
    # exited 3 with numpy's "expected non-negative integer"
    out = tmp_path / "a.toks"
    monkeypatch.setenv("HIWIN_SEED", "-3")
    assert main(["compress", "--image", str(image_336), "--ckpt", str(ckpt), "--out", str(out)]) == 2
    assert "HIWIN_SEED" in capsys.readouterr().err
    assert not out.exists()


_PRETRAIN = [
    "pretrain-vdim", "--corpus", "synthetic", "--count", "2", "--size", "56",
    "--channels", "4", "--d-proj", "4", "--steps", "1", "--batch", "2",
]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--batch", "0"),  # a ZeroDivisionError traceback before the check
        ("--d-proj", "0"),  # likewise
        ("--steps", "-3"),  # trained nothing and exited 0
        ("--channels", "0"),  # a raw numpy reshape error
        ("--channels", "6"),  # a checkpoint that pipeline refuses: 4 heads
        ("--count", "0"),
        ("--size", "0"),
        ("--size", "100"),  # exit 3 naming the patch, not the flag
        ("--seed", "-1"),  # exit 3 with numpy's "expected non-negative integer"
    ],
)
def test_out_of_range_pretrain_flag_is_usage_error_naming_it(flag, value, tmp_path, capsys):
    out = tmp_path / "m.ckpt"
    assert main(_PRETRAIN + [flag, value, "--out", str(out)]) == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "value",
    [
        "-1",  # trained uphill and exited 0
        "0",
        "nan",  # a non-finite loss after one step, exit 4
        "inf",
        "1e6",  # raw numpy overflow warnings, then exit 4
    ],
)
def test_out_of_range_lr_is_usage_error_naming_it(value, tmp_path, capsys):
    out = tmp_path / "m.ckpt"
    assert main(_PRETRAIN + ["--lr", value, "--out", str(out)]) == 2
    assert f"argument --lr: must be a finite value in (0, 1], got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["compress", "pipeline"])
def test_threads_is_an_unknown_argument(command, ckpt, image_336, tmp_path, capsys):
    # the usable cores set the thread count; no flag does
    out = tmp_path / "t.toks"
    argv = [command, "--image", str(image_336), "--ckpt", str(ckpt), "--out", str(out), "--threads", "2"]
    assert main(argv) == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not out.exists()


def _large_photo_argv(tmp_path):
    """``hiwin pipeline`` on a seeded 4032x3024 photo, C=64."""
    w, h = 4032, 3024
    raw = np.random.default_rng(2).integers(0, 256, (h, w, 3), dtype=np.uint8)
    image = tmp_path / "big.ppm"
    image.write_bytes(f"P6\n{w} {h}\n255\n".encode() + raw.tobytes())
    del raw
    path = tmp_path / "c64.ckpt"
    attn = AttnParams.init(HiwinConfig(channels=64), seed=0)
    save_checkpoint(path, VdimParams.init(d_proj=32, seed=0), DownsamplerParams.init(64, seed=0), attn=attn)
    return ["pipeline", "--image", str(image), "--ckpt", str(path), "--out", str(tmp_path / "o.toks")]


def test_pipeline_peak_memory_of_a_large_photo(tmp_path, capsys, monkeypatch):
    # one usable core runs the units in this process, one at a time; each
    # unit cuts its own slice and drops it once encoded, and a loaded
    # image reads only the rows its resizes tap; encode copies one block
    # of patch rows at a time and compress computes the top pyramid level
    # one block of window rows at a time, so a unit's slice cut sets the
    # peak: measured 4.01 MiB in a fresh process (3.96 MiB after other
    # tests); 5.57 MiB in a fresh process (5.54 MiB after other tests),
    # set by one unit's feature pyramid, with the whole top level built,
    # encode copying the whole slice, zeta kept as two per-axis tables and the
    # level-2 upsample dropping its float64 guide and mixing blocks of 3
    # coarse rows; 7.0 MiB in a fresh process (6.99 MiB after other tests,
    # 6.0 MiB after a first run) with a cached (n^2, S, C) zeta, the guide
    # kept and blocks of 8 coarse rows, the level-2 upsample reading its
    # float32 map, encode making one float64 copy of the slice and
    # compress sampling blocks of window rows; 9.0 MiB (8.7 MiB after other tests) while the
    # slice lived through build_isp, encode copied it twice in float64, the
    # upsamples padded float64 maps and compress sampled every window at
    # once; 10.3 MiB with each upsample's unpadded float64 map kept; 10.5
    # MiB while a block's weights outlived its mix; 14.4-14.7 MiB with the
    # whole (96, 96, 49) float64 weights; 22.4 MiB while every slice lived
    # through the units; 45.3 MiB while the 36.6 MB of file bytes lived
    # through slicing; 77.2 MiB while they lived through the units
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    argv = _large_photo_argv(tmp_path)
    code, peak = traced_peak(lambda: main(argv))
    assert code == 0
    assert "tokens: 1008" in capsys.readouterr().out
    assert peak < 4.3 * 2**20, f"peak {peak / 2**20:.2f} MiB"


# runs ``hiwin pipeline`` on the usable cores given first; prints the
# process's RSS before the call, its workers' max RSS (RUSAGE_CHILDREN) and
# its own traced peak, in bytes
_PIPELINE_MEMORY = """
import os, resource, sys, tracemalloc
from hiwin.cli import main
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
rss = int(open("/proc/self/statm").read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
tracemalloc.start()
assert main(sys.argv[2:]) == 0
peak = tracemalloc.get_traced_memory()[1]
print(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024, peak)
"""


def _pipeline_memory(tmp_path, cores):
    """The workers' max RSS above the RSS of a fresh process before it runs
    ``hiwin pipeline`` on the large photo, and that process's traced peak."""
    src = str(Path(hiwin.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _PIPELINE_MEMORY, str(cores)] + _large_photo_argv(tmp_path),
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "tokens: 1008" in done.stdout
    rss, workers, peak = map(int, done.stdout.splitlines()[-1].split())
    return workers - rss, peak


@pytest.mark.skipif(sys.platform != "linux", reason="units run on forked workers on Linux only")
def test_pipeline_peak_memory_of_a_large_photo_on_two_workers(tmp_path):
    # two workers with four and three units, one unit in flight each, so a
    # worker holds one unit's working set above the process it forked
    # from: measured 9.6-10.2 MiB above the parent's RSS before the call,
    # 17.8-18.2 MiB while a worker kept every unit's pyramid alive. The
    # parent runs no unit: measured traced peak 3.27 MiB (12.3-13.3 MiB
    # while two pool threads of the parent ran the units)
    above, peak = _pipeline_memory(tmp_path, cores=2)
    assert above < 13 * 2**20
    assert peak < 4 * 2**20


@pytest.mark.skipif(sys.platform != "linux", reason="units run on forked workers on Linux only")
def test_pipeline_peak_memory_of_a_large_photo_with_every_unit_in_flight(tmp_path):
    # seven cores run all seven units (the overview and six slices) at
    # once, one per worker: measured 8.3 MiB above the parent's RSS before
    # the call, and a parent traced peak of 3.28 MiB (37.4-38.2 MiB while
    # seven pool threads of the parent ran the units)
    above, peak = _pipeline_memory(tmp_path, cores=7)
    assert above < 11 * 2**20
    assert peak < 4 * 2**20


def small_params(grid_side=12, attn_channels=8):
    vdim = VdimParams.init(d_proj=4, seed=5)
    down = DownsamplerParams.init(8, seed=5)
    attn = AttnParams.init(HiwinConfig(grid_side=grid_side, channels=attn_channels), seed=5)
    return vdim, down, attn


def test_checkpoint_grid_side_sets_tokens_per_unit(image_336, tmp_path, capsys):
    vdim, down, attn = small_params(grid_side=8)
    path = tmp_path / "n8.ckpt"
    save_checkpoint(path, vdim, down, attn=attn)
    out = tmp_path / "n8.toks"
    assert main(["compress", "--image", str(image_336), "--ckpt", str(path), "--out", str(out)]) == 0
    assert "tokens: 128" in capsys.readouterr().out  # overview + one slice, 8x8 each
    assert load_tokens(out).overview.shape == (8, 8, 8)


def save_unchecked(monkeypatch, path, vdim, down, attn):
    """``save_checkpoint`` without the header and shape rules that it shares
    with the loader: it writes a file that the loader must refuse."""
    with monkeypatch.context() as m:
        m.setattr(formats, "check_shape", lambda *args: None)
        m.setattr(checkpoint, "_check_attn_header", lambda *args: None)
        save_checkpoint(path, vdim, down, attn=attn)


def _mis_shape(vdim, down, attn, field):
    if field == "down1.beta":
        down.levels[0].beta = np.zeros(5)
    elif field == "upsample2.log_sigma_sim":
        vdim.levels[1].log_sigma_sim = np.zeros(1)
    elif field == "level_emb":
        attn.level_emb = np.zeros((2, 8))
    else:
        setattr(attn, field, np.zeros((8, 5)))


@pytest.mark.parametrize("field", ["down1.beta", "upsample2.log_sigma_sim", "level_emb", "wq"])
def test_mis_shaped_checkpoint_tensor_exits_3_naming_it(field, image_336, tmp_path, capsys, monkeypatch):
    vdim, down, attn = small_params()
    _mis_shape(vdim, down, attn, field)
    path = tmp_path / "bad.ckpt"
    save_unchecked(monkeypatch, path, vdim, down, attn)
    out = tmp_path / "bad.toks"
    assert main(["compress", "--image", str(image_336), "--ckpt", str(path), "--out", str(out)]) == 3
    assert f"checkpoint tensor {field} has shape" in capsys.readouterr().err
    assert not out.exists()


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "user, want", [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])]
)
def test_import_pins_blas_threads_unless_set(user, want):
    # hiwin's unit and training worker processes own parallelism: a fresh
    # process that imports hiwin first gets single-threaded BLAS, and a
    # value the user set is kept
    src = str(Path(hiwin.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env.update(user, PYTHONPATH=src)
    probe = f"import os, hiwin; print(*(os.environ[v] for v in {_BLAS_VARS!r}))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == want


_MALLINFO2 = """
import ctypes, hiwin, numpy
class Info(ctypes.Structure):
    _fields_ = [(n, ctypes.c_size_t) for n in
                "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]
libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Info
a = numpy.ones(20 << 20, numpy.uint8)
mapped = libc.mallinfo2().hblkhd
del a
print(mapped >> 20, libc.mallinfo2().fordblks >> 20)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or not hasattr(ctypes.CDLL(None), "mallinfo2"),
    reason="glibc allocator only",
)
@pytest.mark.parametrize("user, mapped", [({}, False), ({"MALLOC_MMAP_THRESHOLD_": "131072"}, True)])
def test_import_keeps_unit_sized_arrays_in_the_heap_unless_set(user, mapped):
    # a freed 20 MiB array stays in the heap for the next unit instead of
    # going back to the kernel; a threshold the user set is kept
    src = str(Path(hiwin.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env.update(user, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _MALLINFO2], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    mapped_mib, free_mib = map(int, done.stdout.split())
    assert (mapped_mib >= 20) == mapped
    if not mapped:
        assert free_mib >= 20


@pytest.mark.parametrize("field, bad", [("wq", np.nan), ("upsample1.proj_w", np.inf)])
def test_non_finite_checkpoint_tensor_exits_4_naming_it(field, bad, image_336, tmp_path, capsys):
    vdim, down, attn = small_params()
    marker = np.float32(1234.5)  # a value no seeded init produces
    if field == "wq":
        attn.wq[0, 0] = marker
    else:
        vdim.levels[0].proj_w[0, 0] = marker
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, vdim, down, attn=attn)
    data = path.read_bytes()
    assert data.count(marker.tobytes()) == 1
    # save_checkpoint refuses non-finite tensors, so patch the bytes
    path.write_bytes(data.replace(marker.tobytes(), np.float32(bad).tobytes()))
    out = tmp_path / "bad.toks"
    assert main(["pipeline", "--image", str(image_336), "--ckpt", str(path), "--out", str(out)]) == 4
    assert f"checkpoint tensor {field} holds non-finite values" in capsys.readouterr().err
    assert not out.exists()


def test_tokens_that_overflow_float32_exit_4_and_write_nothing(image_336, tmp_path, capsys):
    # every wo entry is finite in float32, but most projected tokens overflow
    attn = AttnParams.init(HiwinConfig(channels=64), seed=0)
    attn.wo[...] = 3e38
    path = tmp_path / "huge.ckpt"
    save_checkpoint(path, VdimParams.init(d_proj=32, seed=0), DownsamplerParams.init(64, seed=0), attn=attn)
    out = tmp_path / "huge.toks"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning numpy still printed would fail here
        assert main(["pipeline", "--image", str(image_336), "--ckpt", str(path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "numerical failure in pipeline: overflow encountered in cast" in err
    assert err.rstrip().endswith("in unit overview")
    assert "RuntimeWarning" not in err
    assert not out.exists() and not Path(f"{out}.idx").exists()


@pytest.mark.parametrize("cores", [1, 2])
def test_a_diverged_similarity_width_exits_4_and_writes_nothing(cores, image_336, tmp_path, capsys, monkeypatch):
    # it printed two raw RuntimeWarnings, then exited 3 on a non-finite
    # FeatureMap; the workers fork inside the command's errstate
    vdim = VdimParams.init(d_proj=32, seed=0)
    vdim.levels[1].log_sigma_sim[...] = -400.0  # sigma_sim^2 underflows to 0
    attn = AttnParams.init(HiwinConfig(channels=64), seed=0)
    path = tmp_path / "narrow.ckpt"
    save_checkpoint(path, vdim, DownsamplerParams.init(64, seed=0), attn=attn)
    out = tmp_path / "narrow.toks"
    argv = ["pipeline", "--image", str(image_336), "--ckpt", str(path), "--out", str(out)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning numpy still printed would fail here
        assert main(argv) == 4
    err = capsys.readouterr().err
    assert "numerical failure in pipeline: divide by zero encountered in divide" in err
    # the first failing unit in unit order is raised, whatever the worker count
    assert err.rstrip().endswith("in unit overview")
    assert not out.exists() and not Path(f"{out}.idx").exists()


def test_attention_channels_must_match_checkpoint_channels(image_336, tmp_path, capsys, monkeypatch):
    vdim, down, attn = small_params(attn_channels=4)
    path = tmp_path / "bad.ckpt"
    save_unchecked(monkeypatch, path, vdim, down, attn)
    out = tmp_path / "bad.toks"
    assert main(["compress", "--image", str(image_336), "--ckpt", str(path), "--out", str(out)]) == 3
    assert "attention channels 4" in capsys.readouterr().err
