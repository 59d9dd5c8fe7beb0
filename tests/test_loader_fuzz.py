"""Mutation fuzz of every loader: a damaged file ends in an exit code with a
message (or, for TOKS, ``DataFormatError`` or ``NumericalError`` for a
non-finite payload), never in a traceback.

The mutations are the ones that break binary readers: truncation, a flipped
byte, a u32 written over the header, an inserted byte, and bytes appended
after the end, which the ISPF, checkpoint and TOKS readers refuse (a PPM
file may hold more than one image).  Examples are derandomized, so every
run tries the same files.
"""

import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hiwin.checkpoint import save_checkpoint
from hiwin.cli import main
from hiwin.encoder import FeatureMap, save_features
from hiwin.formats import DataFormatError
from hiwin.image_io import save_ppm, synth_corpus
from hiwin.numerics import NumericalError
from hiwin.token_org import AssembledTokens, load_tokens, save_tokens
from hiwin.vdim import DownsamplerParams, VdimParams
from hiwin.window_attn import AttnParams, HiwinConfig

HEADER_BYTES = 48  # spans the header of every format (PPM's is the shortest)

mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**20)),
    st.tuples(st.just("flip"), st.integers(0, 2**20), st.integers(1, 255)),
    st.tuples(
        st.just("u32"),
        st.integers(0, HEADER_BYTES - 4),
        st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1)),
    ),
    st.tuples(st.just("insert"), st.integers(0, 2**20), st.integers(0, 255)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=64)),
)


def mutate(data: bytes, mutation) -> bytes:
    kind, pos, *arg = mutation
    if kind == "append":
        return data + pos
    if kind == "truncate":
        return data[: pos % len(data)]
    if kind == "u32":
        return data[:pos] + struct.pack("<I", arg[0]) + data[pos + 4 :]
    pos %= len(data) + (kind == "insert")
    if kind == "flip":
        return data[:pos] + bytes([data[pos] ^ arg[0]]) + data[pos + 1 :]
    return data[:pos] + bytes([arg[0]]) + data[pos:]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One small valid file per format, and a checkpoint to run them with."""
    root = tmp_path_factory.mktemp("fuzz")
    config = HiwinConfig(grid_side=4, channels=8, heads=2)
    ckpt = root / "model.ckpt"
    save_checkpoint(
        ckpt,
        VdimParams.init(d_proj=4, seed=0),
        DownsamplerParams.init(8, seed=0),
        attn=AttnParams.init(config, seed=0),
        heads=config.heads,
    )
    ppm = root / "image.ppm"
    save_ppm(synth_corpus(0, 1, 56)[0], ppm)
    rng = np.random.default_rng(0)
    ispf = root / "feat.ispf"
    save_features(FeatureMap(rng.standard_normal((6, 5, 8)).astype(np.float32), level=1), ispf)
    toks = root / "tokens.toks"
    save_tokens(
        AssembledTokens(
            global_map=rng.standard_normal((8, 4, 8)).astype(np.float32),
            overview=rng.standard_normal((4, 4, 8)).astype(np.float32),
            rows=2,
            cols=1,
        ),
        toks,
    )
    return {"root": root, "ckpt": ckpt, "ppm": ppm, "ispf": ispf, "toks": toks}


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 3, 4)
    if code:
        assert err.strip(), "a failing exit must print a message"


def assert_refused_if_appended(mutation, code: int, err: str, fmt: str) -> None:
    if mutation[0] == "append":
        assert code == 3 and f"{fmt} file has {len(mutation[1])} trailing bytes" in err, err


def mutated(files, name: str, mutation):
    path = files["root"] / f"mutated-{name}"
    path.write_bytes(mutate(files[name].read_bytes(), mutation))
    return path


fuzz = settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@settings(fuzz, max_examples=60)
@given(mutation=mutations)
def test_mutated_ppm_exits_cleanly(files, mutation):
    path = mutated(files, "ppm", mutation)
    out = files["root"] / "ppm-out"
    assert_clean_exit(*run_cli(["build-isp", "--image", str(path), "--ckpt", str(files["ckpt"]), "--out-prefix", str(out)]))


@settings(fuzz, max_examples=40)
@given(mutation=mutations)
def test_mutated_ispf_exits_cleanly(files, mutation):
    path = mutated(files, "ispf", mutation)
    out = files["root"] / "ispf-out.ppm"
    code, err = run_cli(["visualize", "--features", str(path), "--out", str(out)])
    assert_clean_exit(code, err)
    assert_refused_if_appended(mutation, code, err, "ISPF")


@settings(fuzz, max_examples=40)
@given(mutation=mutations)
def test_mutated_checkpoint_exits_cleanly(files, mutation):
    path = mutated(files, "ckpt", mutation)
    out = files["root"] / "ckpt-out"
    code, err = run_cli(["build-isp", "--image", str(files["ppm"]), "--ckpt", str(path), "--out-prefix", str(out)])
    assert_clean_exit(code, err)
    assert_refused_if_appended(mutation, code, err, "checkpoint")


@settings(fuzz, max_examples=60)
@given(mutation=mutations)
def test_mutated_tokens_load_or_raise_data_format_error(files, mutation):
    path = mutated(files, "toks", mutation)
    try:
        tokens = load_tokens(path)
    except (DataFormatError, NumericalError) as e:  # NumericalError: a payload flipped to NaN or inf
        assert str(e)
    else:
        assert mutation[0] != "append", "a TOKS file with bytes appended loaded"
        assert tokens.global_map.shape[2] == tokens.overview.shape[2]
