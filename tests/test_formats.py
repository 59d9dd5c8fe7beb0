"""Writer/reader symmetry of every file format, and the shared header codec.

Each format starts from a valid object drawn from a seed and applies one
mutation.  The writer either refuses the result, leaving no file, or writes
a file that its reader loads back equal.  The binary formats (TOKS, ISPF,
checkpoint) also refuse that file with bytes appended.  PPM keeps trailing
bytes legal, as a netpbm file may hold a sequence of images.
"""

import struct
from dataclasses import fields

import numpy as np
import pytest

from hiwin.checkpoint import load_checkpoint, save_checkpoint
from hiwin.encoder import FeatureMap, load_features, save_features
from hiwin.formats import DataFormatError, Header
from hiwin.image_io import Image, load_ppm, save_ppm
from hiwin.numerics import NumericalError
from hiwin.token_org import AssembledTokens, load_tokens, save_tokens
from hiwin.vdim import DownsamplerParams, VdimParams, trainable_arrays
from hiwin.window_attn import AttnParams, HiwinConfig

SEEDS = range(3)
VALID = ("none", "no-attention")


def _nan_at(rng, arr: np.ndarray) -> None:
    arr.flat[rng.integers(arr.size)] = np.nan


def write_tokens(rng, mutation, path):
    dims = [int(d) for d in rng.integers(1, 4, size=4)]
    if mutation == "zero-dim":
        dims[rng.integers(4)] = 0
    rows, cols, n, c = dims
    overview = rng.standard_normal((n, n + (mutation == "non-square-overview"), c)).astype(np.float32)
    global_map = rng.standard_normal((n * rows, n * cols, c)).astype(np.float32)
    if mutation == "dim-off-the-header":
        rows += 1
    elif mutation == "negative-rows":
        rows = -1
    elif mutation == "nan":
        _nan_at(rng, global_map if rng.integers(2) else overview)
    tokens = AssembledTokens(global_map=global_map, overview=overview, rows=rows, cols=cols)
    save_tokens(tokens, path)
    return tokens


def tokens_equal(a, b):
    np.testing.assert_array_equal(a.overview, b.overview)
    np.testing.assert_array_equal(a.global_map, b.global_map)
    assert (a.rows, a.cols) == (b.rows, b.cols)


def write_features(rng, mutation, path):
    shape = [int(d) for d in rng.integers(1, 6, size=3)]
    level = int(rng.integers(3))
    if mutation == "zero-dim":
        shape[rng.integers(3)] = 0
    elif mutation == "negative-level":
        level = -1
    elif mutation == "level-past-u32":
        level = 2**32
    elif mutation == "fractional-level":
        level = 1.5
    data = rng.standard_normal(shape).astype(np.float32)
    fmap = FeatureMap(data, level=level)
    if mutation == "nan":
        _nan_at(rng, fmap.data)  # FeatureMap itself refuses NaN, so it goes in after
    save_features(fmap, path)
    return fmap


def features_equal(a, b):
    np.testing.assert_array_equal(a.data, b.data)
    assert a.level == b.level


def write_checkpoint(rng, mutation, path):
    seed = int(rng.integers(2**16))
    heads = int(rng.integers(1, 3))
    config = HiwinConfig(grid_side=int(rng.integers(1, 5)), channels=4 * heads, heads=heads)
    vdim = VdimParams.init(d_proj=int(rng.integers(1, 6)), seed=seed)
    down = DownsamplerParams.init(config.channels, seed=seed)
    attn = AttnParams.init(config, seed=seed)
    if mutation == "zero-dim":
        down, attn = DownsamplerParams.init(0, seed=seed), None
    elif mutation == "no-attention":
        attn = None
    elif mutation == "non-square-queries":
        attn.queries = attn.queries[:, 1:]
    elif mutation == "dim-off-the-header":
        vdim.levels[1].proj_w = vdim.levels[1].proj_w[:, 1:]
    elif mutation == "heads-not-dividing-C":
        heads = config.channels + 1
    elif mutation == "negative-heads":
        heads = -1
    elif mutation == "nan":
        arrays = [arr for _, arr in trainable_arrays(vdim, down)] + [attn.wq, attn.queries]
        _nan_at(rng, arrays[rng.integers(len(arrays))])
    save_checkpoint(path, vdim, down, attn=attn, heads=heads)
    return vdim, down, attn, heads


def checkpoints_equal(saved, ckpt):
    vdim, down, attn, heads = saved
    pairs = list(zip(trainable_arrays(vdim, down), trainable_arrays(ckpt.vdim, ckpt.down)))
    if attn is None:
        assert ckpt.attn is None
    else:
        assert (ckpt.heads, ckpt.grid_side) == (heads, attn.queries.shape[0])
        pairs += [((f.name, getattr(attn, f.name)), (f.name, getattr(ckpt.attn, f.name))) for f in fields(attn)]
    for (name, a), (_, b) in pairs:
        np.testing.assert_array_equal(np.float32(a), np.float32(b), err_msg=name)


def write_ppm(rng, mutation, path):
    h, w = (int(d) for d in rng.integers(1, 9, size=2))
    if mutation == "zero-dim":
        h = 0
    codes = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    if mutation == "nan":
        pixels = codes / np.float32(255)
        _nan_at(rng, pixels)
        image = Image(pixels)
    else:
        image = Image(codes)
    save_ppm(image, path)
    return image


def images_equal(a, b):
    np.testing.assert_array_equal(a.pixels, b.pixels)


FORMATS = {
    "toks": (write_tokens, load_tokens, tokens_equal, True),
    "ispf": (write_features, load_features, features_equal, True),
    "checkpoint": (write_checkpoint, load_checkpoint, checkpoints_equal, True),
    "ppm": (write_ppm, load_ppm, images_equal, False),
}
MUTATIONS = {
    "toks": ["none", "zero-dim", "non-square-overview", "dim-off-the-header", "negative-rows", "nan"],
    "ispf": ["none", "zero-dim", "negative-level", "level-past-u32", "fractional-level", "nan"],
    "checkpoint": [
        "none",
        "no-attention",
        "zero-dim",
        "non-square-queries",
        "dim-off-the-header",
        "heads-not-dividing-C",
        "negative-heads",
        "nan",
    ],
    "ppm": ["none", "zero-dim", "nan"],
}


@pytest.mark.parametrize(
    "fmt, mutation", [(fmt, mutation) for fmt, mutations in MUTATIONS.items() for mutation in mutations]
)
def test_writer_refuses_or_reader_loads_back_equal(tmp_path, fmt, mutation):
    write, read, assert_equal, refuses_trailing = FORMATS[fmt]
    for seed in SEEDS:
        path = tmp_path / f"{seed}.{fmt}"
        try:
            saved = write(np.random.default_rng(seed), mutation, path)
        except (ValueError, NumericalError):
            assert mutation not in VALID, f"seed {seed}: the writer refused a valid object"
            assert not path.exists(), f"seed {seed}: the writer refused but left a file"
            continue
        assert_equal(saved, read(path))
        if refuses_trailing:
            with open(path, "ab") as f:
                f.write(bytes(seed + 1))
            with pytest.raises(DataFormatError, match=f"file has {seed + 1} trailing bytes"):
                read(path)


FIRST, LAST = 1234.5, -6789.25  # markers: a payload's first and last entry


def write_marked(fmt, path):
    """A valid ``fmt`` file whose payload (checkpoint: one tensor's) starts
    with FIRST and ends with LAST."""
    rng = np.random.default_rng(0)
    if fmt == "ispf":
        data = rng.standard_normal((3, 4, 5)).astype(np.float32)
        data.flat[0], data.flat[-1] = FIRST, LAST
        save_features(FeatureMap(data, level=1), path)
    elif fmt == "toks":
        overview, global_map = rng.standard_normal((2, 2, 2, 3)).astype(np.float32)
        overview.flat[0], global_map.flat[-1] = FIRST, LAST  # the overview is written first
        save_tokens(AssembledTokens(global_map=global_map, overview=overview, rows=1, cols=1), path)
    else:
        vdim, down = VdimParams.init(d_proj=4, seed=0), DownsamplerParams.init(4, seed=0)
        proj_w = vdim.levels[1].proj_w
        proj_w.flat[0], proj_w.flat[-1] = FIRST, LAST
        save_checkpoint(path, vdim, down)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", ["first", "last"])
@pytest.mark.parametrize("fmt", ["ispf", "toks", "checkpoint"])
def test_reader_refuses_a_non_finite_first_or_last_entry(tmp_path, fmt, entry, bad):
    # the writers refuse NaN and inf, so the value is patched into the file
    path = tmp_path / f"marked.{fmt}"
    write_marked(fmt, path)
    blob = bytearray(path.read_bytes())
    marker = struct.pack("<f", FIRST if entry == "first" else LAST)
    assert blob.count(marker) == 1
    at = blob.index(marker)
    blob[at : at + 4] = struct.pack("<f", bad)
    path.write_bytes(bytes(blob))
    with pytest.raises(NumericalError, match="holds non-finite values"):
        FORMATS[fmt][1](path)


def test_header_round_trip_and_refusals(tmp_path):
    header = Header(b"TEST", "a", "b")
    blob = header.pack(a=7, b=2**32 - 1)
    assert blob == b"TEST" + np.array([1, 7, 2**32 - 1], dtype="<u4").tobytes()
    path = tmp_path / "h.bin"
    path.write_bytes(blob)
    with open(path, "rb") as f:
        assert header.follows(f)
        assert header.read(f) == (7, 2**32 - 1)
        assert not header.follows(f)
    for value in (-1, 2**32, 1.0):
        with pytest.raises(ValueError, match=f"TEST header field b = {value} is not a u32"):
            header.pack(a=0, b=value)
    bad = {"bad magic": b"NOPE" + blob[4:], "unsupported TEST version 2": blob[:4] + bytes([2]) + blob[5:]}
    for message, data in bad.items():
        path.write_bytes(data)
        with open(path, "rb") as f, pytest.raises(DataFormatError, match=message):
            header.read(f)
