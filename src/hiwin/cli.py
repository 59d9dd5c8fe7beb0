"""Command-line surface.

Subcommands: ``pretrain-vdim``, ``build-isp``, ``compress``, ``pipeline``,
``visualize``, ``selftest``.  Configuration is flags-only; the single
environment input is ``HIWIN_SEED``, overridden by ``--seed``; a value that
is not an integer of at least 0 is a usage error.  No flag sets the
parallelism: the usable cores share an image's units or a training step's
batch items (:mod:`hiwin.workers`), so ``taskset`` limits them, and no
result depends on the count.  The package import pins BLAS to one thread
unless the environment sets it.

Exit codes: 0 success, 2 usage error, 3 data/format error, an input too
large for memory or an output that cannot be written, 4 numerical failure.
A command refuses an output file it could not write before its work
starts.  Each command runs with numpy's overflow, invalid-value and
divide-by-zero warnings raised as errors, so such a failure exits 4 naming
the command instead of printing a warning.
Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .autodiff import NumericalError
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import EncoderSpec, load_features, save_features
from .formats import DataFormatError
from .image_io import Image, load_ppm, save_ppm, synth_corpus
from .numerics import pca_rgb
from .pipeline import PROJECTORS, PipelineConfig, run_pipeline, unit_pyramid
from .selfcheck import run_all
from .slicing import resize_to_patch_multiple
from .token_org import flatten, save_index, save_tokens
from .vdim import DownsamplerParams, VdimParams, pretrain_vdim
from .window_attn import AttnParams, HiwinConfig

__all__ = ["main", "main_entry"]


def _int_flag(least: int, multiple_of: int = 1):
    """argparse type: an integer of at least ``least`` that ``multiple_of``
    divides; any other value is a usage error naming the flag."""
    rule = f"at least {least}" + (f" and a multiple of {multiple_of}" if multiple_of > 1 else "")

    def parse(text: str) -> int:
        value = int(text)
        if value < least or value % multiple_of:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse's message for a non-integer: "invalid integer value"
    return parse


def _learning_rate(text: str) -> float:
    """argparse type of ``--lr``: a finite value in (0, 1]; any other value
    is a usage error naming the flag."""
    value = float(text)
    if not 0 < value <= 1:  # NaN fails every comparison
        raise argparse.ArgumentTypeError(f"must be a finite value in (0, 1], got {text}")
    return value


_learning_rate.__name__ = "float"  # argparse's message for a non-number: "invalid float value"


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed",
        type=_int_flag(0),
        default=None,
        help="deterministic seed, >= 0 (default: HIWIN_SEED env var, else 0)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiwin",
        description="Guided feature-pyramid construction and window-attention token compression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain-vdim", help="train the detail-injection weights")
    p.add_argument("--corpus", required=True, help='"synthetic" or a directory of .ppm files')
    p.add_argument("--steps", type=_int_flag(0), default=300, help="optimizer steps (>= 0)")
    p.add_argument("--lr", type=_learning_rate, default=1e-3, help="Adam learning rate, in (0, 1]")
    p.add_argument("--batch", type=_int_flag(1), default=4, help="images per step (>= 1)")
    p.add_argument("--count", type=_int_flag(1), default=32, help="synthetic corpus size (>= 1)")
    patch = EncoderSpec.patch  # the guidance pyramid needs whole patches
    p.add_argument(
        "--size", type=_int_flag(patch, patch), default=112, help=f"synthetic image side (a positive multiple of {patch})"
    )
    heads = HiwinConfig.heads  # the attention heads split the channels evenly
    p.add_argument(
        "--channels", type=_int_flag(1, heads), default=64, help=f"feature channels (a positive multiple of {heads})"
    )
    p.add_argument("--d-proj", type=_int_flag(1), default=32, help="guidance projection width (>= 1)")
    p.add_argument("--out", required=True, help="checkpoint path")
    _add_seed(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("build-isp", help="write the three feature-pyramid levels as ISPF files")
    p.add_argument("--image", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out-prefix", required=True)
    _add_seed(p)
    p.set_defaults(func=cmd_build_isp)

    p = sub.add_parser("compress", help="compress an image into visual tokens")
    p.add_argument("--image", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--projector", choices=PROJECTORS, default="hiwin")
    p.add_argument("--out", required=True, help="TOKS output path")
    _add_seed(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("pipeline", help="full run; prints layout, grid, token count")
    p.add_argument("--image", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="TOKS output path")
    _add_seed(p)
    p.set_defaults(func=cmd_compress, projector="hiwin")

    p = sub.add_parser("visualize", help="render an ISPF feature file to PPM via PCA")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("selftest", help="run the built-in oracle and gradient checks")
    _add_seed(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def _load_corpus(args) -> list[Image]:
    if args.corpus == "synthetic":
        return synth_corpus(args.seed, args.count, args.size)
    root = Path(args.corpus)
    paths = sorted(root.glob("*.ppm"))
    if not paths:
        raise DataFormatError(f"no .ppm files in {root}")
    return [resize_to_patch_multiple(load_ppm(p)) for p in paths]


def _refuse_unwritable(path: str) -> None:
    """Raise OSError naming ``path`` if a command could not write it once
    its work is done: a directory, a file this process may not write, or a
    new file in a directory that is missing or not writable.  Nothing is
    created or truncated."""
    parent = os.path.dirname(path) or "."
    if os.path.exists(path):
        if os.path.isdir(path) or not os.access(path, os.W_OK):
            raise OSError(f"cannot write {path}: it is a directory or not writable")
    elif not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
        raise OSError(f"cannot write {path}: {parent} is not a writable directory")


def cmd_pretrain(args) -> int:
    _refuse_unwritable(args.out)  # before the steps, whose weights would be lost
    corpus = _load_corpus(args)
    spec = EncoderSpec(channels=args.channels, seed=args.seed)
    vdim = VdimParams.init(d_proj=args.d_proj, seed=args.seed)
    down = DownsamplerParams.init(args.channels, seed=args.seed)
    result = pretrain_vdim(
        corpus, spec, vdim, down, steps=args.steps, lr=args.lr, batch=args.batch,
        on_step=lambda step, loss: print(f"{step} {loss:.10g}", flush=True),
    )
    config = HiwinConfig(channels=args.channels)
    attn = AttnParams.init(config, seed=args.seed)
    save_checkpoint(args.out, result.vdim, result.down, attn=attn, heads=config.heads)
    return 0


def _load_setup(args):
    ckpt = load_checkpoint(args.ckpt)
    config = PipelineConfig(
        encoder=EncoderSpec(channels=ckpt.channels, seed=args.seed),
        hiwin=HiwinConfig(grid_side=ckpt.grid_side, channels=ckpt.channels, heads=ckpt.heads),
    )
    attn = ckpt.attn
    if attn is None:
        attn = AttnParams.init(config.hiwin, seed=args.seed)
    return ckpt, config, attn


def cmd_build_isp(args) -> int:
    ckpt, config, _ = _load_setup(args)
    paths = [f"{args.out_prefix}.l{level}.ispf" for level in range(len(ckpt.vdim.levels) + 1)]
    for path in paths:
        _refuse_unwritable(path)
    isp = unit_pyramid(resize_to_patch_multiple(load_ppm(args.image)), "overview", ckpt.vdim, config)
    for fmap, path in zip(isp.levels, paths):
        save_features(fmap, path)
        print(f"level{fmap.level}: {fmap.width}x{fmap.height}x{fmap.channels} -> {path}")
    return 0


def cmd_compress(args) -> int:
    """``compress``; ``pipeline`` is it with the hiwin projector, and also prints the layout and grid."""
    _refuse_unwritable(args.out)
    ckpt, config, attn = _load_setup(args)
    result = run_pipeline(load_ppm(args.image), ckpt.vdim, attn, config, projector=args.projector)
    save_tokens(result.tokens, args.out)
    sequence = flatten(result.tokens)
    save_index(sequence, f"{args.out}.idx")
    if args.command == "pipeline":
        print(f"layout: {result.layout.cols}x{result.layout.rows}")
        print(f"grid: {result.grid[0]}x{result.grid[1]}")
    print(f"tokens: {sequence.tokens.shape[0]}")
    return 0


def cmd_visualize(args) -> int:
    _refuse_unwritable(args.out)
    fmap = load_features(args.features)
    rendered = pca_rgb(fmap.data)
    save_ppm(Image(rendered), args.out)
    print(f"{fmap.width}x{fmap.height} -> {args.out}")
    return 0


def cmd_selftest(args) -> int:
    failures = 0
    for name, ok, detail in run_all(seed=args.seed):
        status = "ok" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 4


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    if "seed" in vars(args) and args.seed is None:
        raw = os.environ.get("HIWIN_SEED", "0")
        try:
            args.seed = _int_flag(0)(raw)
        except (ValueError, argparse.ArgumentTypeError):
            print(f"error: HIWIN_SEED must be an integer of at least 0, got {raw!r}", file=sys.stderr)
            return 2
    try:
        # a NaN or inf that numpy would only warn about fails the command
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            return args.func(args)
    except (FloatingPointError, NumericalError) as e:
        print(f"numerical failure in {args.command}: {e}", file=sys.stderr)
        return 4
    except MemoryError as e:
        print(f"error: out of memory in {args.command}: {e}", file=sys.stderr)
        return 3
    except (DataFormatError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
