"""Golden digests of fixed training and inference runs.

Two training runs are pinned by the sha256 of the checkpoint each writes and
of its stdout loss lines:

- ``hiwin pretrain-vdim --corpus synthetic --steps 24 --seed 7``, the AC-4
  configuration (an 8x8x64 base map);
- the same at ``--size 98 --steps 3``: a 7x7x64 base map, whose odd sides
  the 8x8 run does not reach.

The 24-step checkpoint then drives the inference commands on seeded PPMs,
each pinned by the sha256 of every file it writes and of its stdout where
that names no path: ``pipeline`` TOKS, ``.idx`` and stdout on three image
sizes (on 1 and on 2 usable cores, which must write the same bytes),
``compress`` with the two baseline projectors, ``build-isp``'s three ISPF
files and the ``visualize`` PPM of level 2.  So a change that alters an
output bit anywhere fails here.

BLAS kernels may round differently on another CPU or build, so
``golden.json`` keys its entries by numpy version, BLAS name and version, and
``platform.machine()``.  On a key or a field the table lacks the test skips.
Run this file as a script to write the entry of the running machine:

    PYTHONPATH=src python tests/test_golden.py [--replace]

It adds the fields an entry lacks and prints each one.  A field already
there that the run would change is printed too, and the script then refuses
to write anything unless given ``--replace``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import hiwin

GOLDEN = Path(__file__).with_name("golden.json")
WRITE = "PYTHONPATH=src python tests/test_golden.py"
# field prefix -> pretrain-vdim arguments; the first run's checkpoint drives inference
TRAINING = {
    "": ["--steps", "24", "--seed", "7"],
    "size98_": ["--size", "98", "--steps", "3", "--seed", "7"],
}
PHOTOS = {"1008x672": (1008, 672), "700x500": (700, 500), "336x336": (336, 336)}
TRAINING_FIELDS = [f"{p}{f}_sha256" for p in TRAINING for f in ("checkpoint", "stdout")]


def machine_key() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 reports no BLAS build info
        blas = {}
    return f"numpy {np.__version__} | {blas.get('name')} {blas.get('version')} | {platform.machine()}"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# runs each JSON [cores, argv] pair read from stdin through
# ``hiwin.cli.main``, with ``cores`` usable cores where it is not null, and
# writes each command's stdout as one JSON string line
_BATCH = """
import contextlib, io, json, os, sys
from unittest import mock
from hiwin.cli import main
for cores, argv in json.load(sys.stdin):
    out = io.StringIO()
    cpus = contextlib.nullcontext()
    if cores is not None:
        cpus = mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores)), create=True)
    with cpus, contextlib.redirect_stdout(out):
        code = main(argv)
    if code:
        sys.exit(f"hiwin {' '.join(argv)} exited {code}")
    print(json.dumps(out.getvalue()))
"""


def _hiwin(commands: list[tuple[int | None, list[str]]]) -> list[bytes]:
    """The stdout of each ``hiwin`` command, given with the usable cores it
    sees (None: those of the machine), run in order in one fresh process,
    so that the BLAS pool is pinned as the CLI pins it."""
    src = str(Path(hiwin.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _BATCH],
        input=json.dumps(commands).encode(),
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(done.stderr.decode())
    return [json.loads(line).encode() for line in done.stdout.splitlines()]


def write_photo(path: Path, width: int, height: int) -> None:
    """A seeded P6 PPM of 16-pixel flat blocks, made without the library."""
    rng = np.random.default_rng([7, width, height])
    blocks = rng.integers(0, 256, (-(-height // 16), -(-width // 16), 3), dtype=np.uint8)
    pixels = blocks.repeat(16, axis=0).repeat(16, axis=1)[:height, :width]
    path.write_bytes(f"P6\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes())


def digests(tmp: Path) -> dict[str, str]:
    """sha256 of every pinned output, by field name.  Raises
    ``AssertionError`` if ``pipeline`` writes other bytes on 2 usable cores
    than on 1."""
    ckpt = tmp / "golden.ckpt"
    photos = {size: tmp / f"photo-{size}.ppm" for size in PHOTOS}
    for size, path in photos.items():
        write_photo(path, *PHOTOS[size])
    runs = []  # (cores, argv, {field: file it writes}, field of its stdout or None)
    for prefix, args in TRAINING.items():
        out = tmp / f"{prefix}golden.ckpt"
        argv = ["pretrain-vdim", "--corpus", "synthetic", *args, "--out", str(out)]
        runs.append((None, argv, {f"{prefix}checkpoint": out}, f"{prefix}stdout"))
    tokens = [
        (f"pipeline_{size}{cores}", cores, ["pipeline", "--image", str(photos[size])])
        for size in PHOTOS
        for cores in (1, 2)
    ]
    tokens += [
        (f"compress_{p}", None, ["compress", "--projector", p, "--image", str(photos["1008x672"])])
        for p in ("mlp", "resampler")
    ]
    for name, cores, argv in tokens:
        toks = tmp / f"{name}.toks"
        files = {f"{name}_toks": toks, f"{name}_idx": Path(f"{toks}.idx")}
        runs.append((cores, [*argv, "--ckpt", str(ckpt), "--out", str(toks)], files, f"{name}_stdout"))
    isp = tmp / "isp"
    levels = {f"build_isp_l{level}": Path(f"{isp}.l{level}.ispf") for level in range(3)}
    argv = ["build-isp", "--image", str(photos["700x500"]), "--ckpt", str(ckpt), "--out-prefix", str(isp)]
    runs.append((None, argv, levels, None))
    rendered = tmp / "l2.ppm"
    argv = ["visualize", "--features", str(levels["build_isp_l2"]), "--out", str(rendered)]
    runs.append((None, argv, {"visualize_l2": rendered}, None))

    out = {}
    for (_, _, files, stdout_field), stdout in zip(runs, _hiwin([(cores, argv) for cores, argv, _, _ in runs])):
        if stdout_field:  # build-isp and visualize print the paths they write
            out[stdout_field] = stdout
        out.update((field, path.read_bytes()) for field, path in files.items())
    for size in PHOTOS:
        for f in ("toks", "idx", "stdout"):
            one, two = out.pop(f"pipeline_{size}1_{f}"), out.pop(f"pipeline_{size}2_{f}")
            assert one == two, f"pipeline on {size} writes another {f} on 2 usable cores than on 1"
            out[f"pipeline_{size}_{f}"] = one
    return {f"{field}_sha256": _sha(data) for field, data in out.items()}


@pytest.fixture(scope="module")
def entry() -> dict[str, str]:
    key = machine_key()
    entries = json.loads(GOLDEN.read_text())
    if key not in entries:
        pytest.skip(f"golden.json has no entry for {key!r}; `{WRITE}` writes it")
    return entries[key]


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> dict[str, str]:
    return digests(tmp_path_factory.mktemp("golden"))


def _compare(entry: dict[str, str], written: dict[str, str], fields: list[str]) -> None:
    missing = [f for f in fields if f not in entry]
    if missing:
        pytest.skip(f"golden.json's entry for this machine lacks {missing}; `{WRITE}` adds them")
    assert {f: written[f] for f in fields} == {f: entry[f] for f in fields}


def test_training_run_matches_its_golden_digests(entry, written):
    _compare(entry, written, ["checkpoint_sha256", "stdout_sha256"])


def test_training_run_at_a_7x7_base_matches_its_golden_digests(entry, written):
    _compare(entry, written, ["size98_checkpoint_sha256", "size98_stdout_sha256"])


def test_inference_outputs_match_their_golden_digests(entry, written):
    _compare(entry, written, [f for f in written if f not in TRAINING_FIELDS])


def write_entry(table: Path, key: str, new: dict[str, str], replace: bool) -> int:
    """Add the fields of ``new`` that the entry ``key`` of the JSON file
    ``table`` lacks, printing each.  A field there that ``new`` would change
    is printed too; without ``replace`` nothing is then written and 1 is
    returned."""
    entries = json.loads(table.read_text()) if table.exists() else {}
    old = entries.get(key, {})
    changed = [f for f in new if f in old and old[f] != new[f]]
    for f in new:
        if f not in old:
            print(f"{key}: add {f} = {new[f]}")
        elif f in changed:
            print(f"{key}: change {f} from {old[f]} to {new[f]}")
    if changed and not replace:
        print(f"{len(changed)} existing field(s) would change; pass --replace to overwrite them", file=sys.stderr)
        return 1
    entries[key] = {**old, **new}
    table.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write this machine's entry of golden.json.")
    parser.add_argument("--replace", action="store_true", help="overwrite fields whose digests changed")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        new = digests(Path(tmp))
    return write_entry(GOLDEN, machine_key(), new, args.replace)


if __name__ == "__main__":
    sys.exit(main())
