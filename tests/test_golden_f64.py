"""Golden float64 digests of the guided upsampler.

Every artifact ``golden.json`` pins is float32 or a 10-digit loss line, so a
kernel change can move float64 bits and still pass it.  ``golden_f64.json``
pins the sha256 of seeded float64 arrays:

- ``guided_upsample``'s output and the gradients of all five operands, on a
  ragged 13x19x16 map (several tiles, a ragged last one) and on the
  48x48x64 map of a unit's level-2 step;
- one 336x336 unit's level-2 output in float64, before the cast to float32:
  the unit's level 1 from ``build_isp``, lifted by the level-2 kernel;
- ``assemble_kv``'s float64 values for that unit's ``build_isp`` pyramid,
  N=12 and the (3, 3) grid every 336x336 unit selects, and the float64
  tokens ``compress`` attends from them, a block of window rows at a time,
  before its cast to float32: the output projection of every window's
  context, in window order;
- ``recon_loss``'s output and the gradients of its two maps at the AC-4
  base shape, 8x8x64;
- ``bilinear_resize`` of a uint8 image (downscaled by more than 2, so
  columns are skipped) and of a float64 map (upscaled);
- ``window_pool``'s output and the gradients of its five operands on the
  32x32x64 map of an AC-4 level 2 (112x112 images, 14x14 windows);
- the 16 float64 parameter arrays and ``repr`` of the losses after 10 AC-4
  ``pretrain_vdim`` steps, called as the CLI calls it: on a Linux machine
  with two or more usable cores that is the worker path.

The OpenBLAS kernels and numpy's SIMD dispatch both change float64 bits, so
the key adds to ``golden.json``'s the OpenBLAS core name and numpy's
enabled CPU features.  On a key or a field the table lacks the test skips.
Run this file as a script to write the entry of the running machine, as
``tests/test_golden.py`` writes its own:

    PYTHONPATH=src python tests/test_golden_f64.py [--replace]
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hiwin
from test_golden import machine_key, write_entry

TABLE = Path(__file__).with_name("golden_f64.json")
WRITE = "PYTHONPATH=src python tests/test_golden_f64.py"

# prints a JSON object of field -> sha256, computed in a fresh process whose
# BLAS pool is pinned as the CLI pins it
_PROBE = """
import hashlib, json
import hiwin
import numpy as np
from hiwin import autodiff as ad, window_attn
from hiwin.encoder import EncoderSpec, encode
from hiwin.image_io import build_image_pyramid, synth_corpus
from hiwin.numerics import bilinear_resize
from hiwin.vdim import DownsamplerParams, VdimParams, build_isp, pretrain_vdim, trainable_arrays
from hiwin.window_attn import AttnParams, HiwinConfig, assemble_kv
from helpers import weighted_sum

sha = lambda a: hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()
out = {}
for name, (h, w, c, d) in {"ragged": (13, 19, 16, 8), "48x48x64": (48, 48, 64, 32)}.items():
    rng = np.random.default_rng([11, h, w, c])
    guide = rng.uniform(0, 1, (2 * h, 2 * w, 3))
    arrays = [rng.standard_normal((h, w, c)), rng.standard_normal((3, d)), rng.standard_normal(d), 0.3, -0.2]
    params = [ad.Tensor(a, requires_grad=True) for a in arrays]
    up = ad.guided_upsample(params[0], guide, *params[1:])
    weighted_sum(up, rng.uniform(0.5, 1.5, up.data.shape)).backward()
    out[f"upsample_{name}_out_sha256"] = sha(up.data)
    for field, p in zip(("feats", "proj_w", "proj_b", "log_sigma_dist", "log_sigma_sim"), params):
        out[f"upsample_{name}_grad_{field}_sha256"] = sha(p.grad)
img = synth_corpus(0, 1, 336)[0]
pyramid = build_image_pyramid(img)
vdim = VdimParams.init(d_proj=32, seed=0)
isp = build_isp(encode(img, EncoderSpec(channels=64, seed=0)), pyramid, vdim)
lk = vdim.levels[1]
kernel = [ad.Tensor(a, requires_grad=True) for a in (lk.proj_w, lk.proj_b, lk.log_sigma_dist, lk.log_sigma_sim)]
l2 = ad.guided_upsample(isp.levels[1].data.astype(np.float64), pyramid.levels[2].decoded().astype(np.float64), *kernel)
out["unit336_l2_f64_sha256"] = sha(l2.data)
_, values = assemble_kv(isp, 12, (3, 3), AttnParams.init(HiwinConfig(channels=64), seed=0))
out["unit336_kv_values_sha256"] = sha(values)
attended, output = [], window_attn._Attention.output
def capture(self, ctx):  # compress's float64 tokens of every window, before its float32 cast
    attended.append(output(self, ctx))
    assert attended[-1].dtype == np.float64
    return attended[-1]
window_attn._Attention.output = capture
window_attn.compress(isp, AttnParams.init(HiwinConfig(channels=64), seed=0), HiwinConfig(channels=64))
window_attn._Attention.output = output
assert len(attended) == 1
out["unit336_compress_f64_sha256"] = sha(attended[0])
rng = np.random.default_rng([13, 8, 8, 64])
base, *maps = (rng.standard_normal((8, 8, 64)) for _ in range(3))
params = [ad.Tensor(a, requires_grad=True) for a in maps]
loss = ad.recon_loss(params, base)
loss.backward()
out["recon_loss_8x8x64_out_sha256"] = sha(loss.data)
for i, p in enumerate(params):
    out[f"recon_loss_8x8x64_grad_map{i}_sha256"] = sha(p.grad)
rng = np.random.default_rng([14, 300, 400])
codes = rng.integers(0, 256, (300, 400, 3), dtype=np.uint8)
out["resize_uint8_300x400_to_112x168_sha256"] = sha(bilinear_resize(codes, 112, 168))
out["resize_f64_37x29x16_to_80x61_sha256"] = sha(bilinear_resize(rng.standard_normal((37, 29, 16)), 80, 61))
rng = np.random.default_rng([12, 32, 32, 64])
arrays = [rng.standard_normal((32, 32, 64)), rng.uniform(0.5, 1.5, 64), rng.standard_normal(64), rng.standard_normal(64), 0.1]
params = [ad.Tensor(a, requires_grad=True) for a in arrays]
pooled = ad.window_pool(*params, (112, 112), 14)
weighted_sum(pooled, rng.uniform(0.5, 1.5, pooled.data.shape)).backward()
out["window_pool_32x32x64_out_sha256"] = sha(pooled.data)
for field, p in zip(("feats", "gamma", "beta", "sal_w", "sal_b"), params):
    out[f"window_pool_32x32x64_grad_{field}_sha256"] = sha(p.grad)
vdim, down = VdimParams.init(d_proj=32, seed=0), DownsamplerParams.init(64, seed=0)
result = pretrain_vdim(synth_corpus(0, 32, 112), EncoderSpec(channels=64, seed=0), vdim, down, steps=10, lr=1e-3, batch=4)
for name, a in trainable_arrays(vdim, down):
    out[f"train10_{name}_sha256"] = sha(a)
out["train10_losses_repr_sha256"] = hashlib.sha256(repr(result.losses).encode()).hexdigest()
print(json.dumps(out))
"""


def openblas_core() -> str | None:
    """The core name the loaded OpenBLAS dispatches to, asked through its
    own API; None where no OpenBLAS is mapped or the maps cannot be read."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def table_key() -> str:
    """``golden.json``'s key, the OpenBLAS core and numpy's enabled CPU
    features (those ``NPY_DISABLE_CPU_FEATURES`` leaves on)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy before 2.0
        from numpy.core._multiarray_umath import __cpu_features__ as features
    enabled = " ".join(sorted(f for f, on in features.items() if on))
    return f"{machine_key()} | core {openblas_core()} | {enabled}"


def digests() -> dict[str, str]:
    src = str(Path(hiwin.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)])},
        capture_output=True,
        text=True,
        timeout=300,
    )
    if done.returncode != 0:
        raise RuntimeError(done.stderr)
    return json.loads(done.stdout)


def test_float64_upsample_bits_match_their_golden_digests():
    key = table_key()
    entry = json.loads(TABLE.read_text()).get(key)
    if entry is None:
        pytest.skip(f"golden_f64.json has no entry for {key!r}; `{WRITE}` writes it")
    written = digests()
    missing = [f for f in written if f not in entry]
    if missing:
        pytest.skip(f"golden_f64.json's entry for this machine lacks {missing}; `{WRITE}` adds them")
    assert written == {f: entry[f] for f in written}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write this machine's entry of golden_f64.json.")
    parser.add_argument("--replace", action="store_true", help="overwrite fields whose digests changed")
    args = parser.parse_args(argv)
    return write_entry(TABLE, table_key(), digests(), args.replace)


if __name__ == "__main__":
    sys.exit(main())
