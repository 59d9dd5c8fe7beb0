"""Golden digests of one fixed training run.

``hiwin pretrain-vdim --corpus synthetic --steps 24 --seed 7`` is pinned by
the sha256 of the checkpoint it writes and of its stdout loss lines, so a
change that alters a training bit anywhere fails here.  BLAS kernels may
round differently on another CPU or build, so ``golden.json`` keys its
entries by numpy version, BLAS name and version, and ``platform.machine()``.
On a key the table lacks the test skips.  Run this file as a script to write
the entry of the running machine:

    PYTHONPATH=src python tests/test_golden.py [--replace]

It refuses to overwrite an existing entry unless given ``--replace``.
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
ARGS = ["pretrain-vdim", "--corpus", "synthetic", "--steps", "24", "--seed", "7"]
WRITE = "PYTHONPATH=src python tests/test_golden.py"


def machine_key() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 reports no BLAS build info
        blas = {}
    return f"numpy {np.__version__} | {blas.get('name')} {blas.get('version')} | {platform.machine()}"


def training_digests() -> dict[str, str]:
    """sha256 of the checkpoint and of stdout of the pinned run, in a fresh process."""
    src = str(Path(hiwin.__file__).resolve().parents[1])
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "golden.ckpt"
        done = subprocess.run(
            [sys.executable, "-m", "hiwin.cli", *ARGS, "--out", str(ckpt)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            timeout=600,
        )
        if done.returncode != 0:
            raise RuntimeError(f"hiwin {' '.join(ARGS)} exited {done.returncode}: {done.stderr.decode()}")
        return {
            "checkpoint_sha256": hashlib.sha256(ckpt.read_bytes()).hexdigest(),
            "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
        }


def test_training_run_matches_its_golden_digests():
    key = machine_key()
    entries = json.loads(GOLDEN.read_text())
    if key not in entries:
        pytest.skip(f"golden.json has no entry for {key!r}; `{WRITE}` writes it")
    assert training_digests() == entries[key]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write this machine's entry of golden.json.")
    parser.add_argument("--replace", action="store_true", help="overwrite an existing entry")
    args = parser.parse_args(argv)
    key = machine_key()
    entries = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if key in entries and not args.replace:
        print(f"golden.json already has an entry for {key!r}; pass --replace to overwrite it", file=sys.stderr)
        return 1
    entries[key] = training_digests()
    GOLDEN.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    print(f"{key}: {entries[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
