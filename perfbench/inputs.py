"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed and the scale, so two runs
with one seed see the same bytes.  The program under test only ever sees the
generated files and arrays, never the seed's role in making them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hiwin import AttnParams, HiwinConfig, VdimParams, save_checkpoint, synth_corpus
from hiwin.vdim import DownsamplerParams


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark scale.

    ``photo_sizes`` is the request mix of ``photo`` and ``photo-2t``;
    ``reproject_sizes`` is the image set whose pyramids ``reproject`` reads;
    its first image is the one ``photo-2t`` and ``reproject`` check against
    the ``photo`` path in every run.  Training follows the AC-4 configuration.
    """

    photo_sizes: tuple[tuple[int, int], ...]
    reproject_sizes: tuple[tuple[int, int], ...]
    channels: int = 64
    d_proj: int = 32
    train_count: int = 32
    train_size: int = 112
    train_batch: int = 4
    train_lr: float = 1e-3
    # Training steps per requested second, about one step per 0.5 s on a
    # 2-core x86 machine with BLAS pinned to one thread.
    train_steps_per_s: float = 2.0
    # Steps of each of the two short calls that check training determinism.
    check_steps: int = 2


FULL = Scale(
    photo_sizes=((4032, 3024), (3024, 4032), (1920, 1080), (1008, 672), (672, 1008), (336, 336)),
    reproject_sizes=((1008, 672), (672, 1008), (336, 336)),
)

# Small enough for the benchmark's own tests; exercises the same code paths
# (a multi-slice layout, a single-slice one, a multi-step training call).
REDUCED = Scale(
    photo_sizes=((168, 112), (112, 112)),
    reproject_sizes=((168, 112),),
    channels=16,
    d_proj=8,
    train_count=4,
    train_size=56,
    train_batch=2,
    train_steps_per_s=1.0,
    check_steps=2,
)


def size_key(size: tuple[int, int]) -> str:
    return f"{size[0]}x{size[1]}"


def photo_pixels(seed: int, width: int, height: int) -> np.ndarray:
    """A (height, width, 3) uint8 photo stand-in: flat blocks of seeded
    colour and size with mild per-pixel noise."""
    rng = np.random.default_rng([seed, width, height])
    block = int(rng.integers(12, 64))
    coarse = rng.integers(0, 256, (-(-height // block), -(-width // block), 3), dtype=np.uint8)
    pixels = np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)[:height, :width]
    noise = rng.integers(-10, 11, (height, width, 3), dtype=np.int16)
    return np.clip(pixels + noise, 0, 255).astype(np.uint8)


def ppm_bytes(pixels: np.ndarray) -> bytes:
    height, width, _ = pixels.shape
    return f"P6\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()


def write_photos(seed: int, sizes, directory: Path) -> dict[str, Path]:
    """Write one PPM per distinct size; returns size key -> path."""
    paths = {}
    for size in dict.fromkeys(sizes):
        path = directory / f"photo-{size_key(size)}.ppm"
        path.write_bytes(ppm_bytes(photo_pixels(seed, *size)))
        paths[size_key(size)] = path
    return paths


def write_checkpoint(seed: int, scale: Scale, path: Path) -> None:
    """An untrained but complete checkpoint (upsampler, downsampler and
    attention sections) drawn from the seed."""
    config = HiwinConfig(channels=scale.channels)
    save_checkpoint(
        path,
        VdimParams.init(d_proj=scale.d_proj, seed=seed),
        DownsamplerParams.init(scale.channels, seed=seed),
        attn=AttnParams.init(config, seed=seed),
        heads=config.heads,
    )


def train_corpus(seed: int, scale: Scale):
    return synth_corpus(seed, scale.train_count, scale.train_size)
