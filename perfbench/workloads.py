"""The benchmark's four workloads, their output checks and their traced runs.

Every workload is a closed loop with one client in this process: the next
request starts when the previous one has returned.  ``photo`` and
``photo-2t`` run whole cycles of their size mix, so every run measures the
same mix; the loop stops at the first cycle boundary after the requested
time.  Output checks run after the timed loop, on what the requests wrote.

Untraced passes call the program the way its CLI does (``run_pipeline``,
``pretrain_vdim``).  Traced passes run a replica built from the same public
calls, with a span around each call; their output digests must equal the
untraced ones, which shows the replica is the same program.
"""

from __future__ import annotations

import hashlib
import statistics
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from hiwin import (
    AdamState,
    AttnParams,
    DataFormatError,
    EncoderSpec,
    FeatureMap,
    FeaturePyramid,
    HiwinConfig,
    PipelineConfig,
    TrainResult,
    VdimParams,
    adam_step,
    assemble,
    attention_downsample,
    build_image_pyramid,
    build_isp,
    compress,
    compute_slice_layout,
    encode,
    extract_slices,
    flatten,
    jbu_upsample,
    load_checkpoint,
    load_features,
    load_ppm,
    load_tokens,
    mlr_objective,
    pretrain_vdim,
    run_pipeline,
    save_checkpoint,
    save_features,
    save_index,
    save_tokens,
)
from hiwin import autodiff
from hiwin.vdim import DownsamplerParams, trainable_arrays

from inputs import Scale, size_key, train_corpus, write_checkpoint, write_photos
from spans import Span, SpanRecorder, layer_table

# photo-2t runs here and in ``run.py --workload all`` but is not a
# BENCHMARK.json workload; predictions.json says why.
WORKLOADS = ("photo", "photo-2t", "reproject", "train")

# A run never starts another cycle after this many seconds, so that even a
# much slower program ends well inside the benchmark's time limit.
LOOP_LIMIT_S = 100.0

# Per-layer time metrics and the span each is the mean self time per call of.
LAYER_SPANS = (
    "vdim.upsample_l1",
    "vdim.upsample_l2",
    "vdim.train_forward",
    "vdim.downsample",
    "autodiff.backward",
    "numerics.adam",
    "window_attn.compress",
    "slicing.extract",
    "image_io.load_ppm",
    "image_io.pyramid",
    "encoder.encode",
    "encoder.load_features",
    "token_org.assemble",
    "token_org.save",
    "checkpoint.load",
)

# Per-request counts recorded by the traced run.
COUNTS = (
    "slicing.units",
    "slicing.megapixels_in",
    "image_io.bytes_read",
    "encoder.bytes_read",
    "token_org.bytes_written",
    "tokens",
)


@dataclass
class Output:
    """What one request produced, or why it failed."""

    key: str
    latency_s: float = 0.0
    tokens: object = None  # hiwin AssembledTokens
    units: int = 0
    token_count: int = 0
    path: Path | None = None
    counts: dict[str, float] = field(default_factory=dict)
    error: str | None = None
    source: str = "measured"


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int
    failed: int
    errors: list[str]
    details: dict
    spans: list[dict] = field(default_factory=list)


class Env:
    """Per-run state: checkpoint, pipeline configuration and output files."""

    def __init__(self, seed: int, scale: Scale, workdir: Path, threads: int = 1):
        self.scale = scale
        self.workdir = workdir
        self.ckpt_path = workdir / "model.ckpt"
        write_checkpoint(seed, scale, self.ckpt_path)
        self.ckpt = load_checkpoint(self.ckpt_path)
        self.attn = self.ckpt.attn
        self.config = PipelineConfig(
            encoder=EncoderSpec(channels=self.ckpt.channels, seed=seed),
            hiwin=HiwinConfig(channels=self.ckpt.channels, heads=self.ckpt.heads),
            threads=threads,
        )
        self.out_dir = workdir / "out"
        self.out_dir.mkdir(exist_ok=True)
        self._outputs = 0

    def out_path(self, key: str) -> Path:
        self._outputs += 1
        return self.out_dir / f"{self._outputs:05d}-{key}.toks"


def _span(rec: SpanRecorder | None, name: str, **kw):
    return nullcontext() if rec is None else rec.span(name, **kw)


def _write_tokens(tokens, path: Path) -> int:
    save_tokens(tokens, path)
    sequence = flatten(tokens)
    save_index(sequence, f"{path}.idx")
    return sequence.tokens.shape[0]


# --- requests -------------------------------------------------------------


def photo_request(env: Env, ppm: Path, key: str, threads: int) -> Output:
    """What ``hiwin pipeline`` does for one image."""
    image = load_ppm(ppm)
    result = run_pipeline(image, env.ckpt.vdim, env.attn, replace(env.config, threads=threads))
    path = env.out_path(key)
    count = _write_tokens(result.tokens, path)
    return Output(key, tokens=result.tokens, units=result.layout.count + 1, token_count=count, path=path)


def unit_images(image, config: PipelineConfig):
    layout = compute_slice_layout(image.width, image.height, config.max_slices)
    slices, overview = extract_slices(image, layout)
    return layout, [("overview", overview)] + [(f"slice:{i}", img) for i, img in enumerate(slices)]


def photo_request_traced(
    env: Env, rec: SpanRecorder, rid: int, ppm: Path, key: str, threads: int
) -> Output:
    """``photo_request`` rebuilt from the public calls ``run_pipeline`` makes,
    with a span around each."""
    cfg = env.config
    vdim = env.ckpt.vdim
    with rec.span("request", request=rid):
        with rec.span("image_io.load_ppm"):
            image = load_ppm(ppm)
        with rec.span("slicing.layout"):
            layout = compute_slice_layout(image.width, image.height, cfg.max_slices)
        with rec.span("slicing.extract"):
            slices, overview = extract_slices(image, layout)
        units = [("overview", overview)] + [(f"slice:{i}", img) for i, img in enumerate(slices)]
        with rec.span("pipeline.run") as run_id:

            def work(item):
                origin, img = item
                with rec.span("pipeline.unit", request=rid, parent=run_id):
                    with rec.span("image_io.pyramid"):
                        pyramid = build_image_pyramid(
                            img, patch=cfg.encoder.patch, levels=len(vdim.levels) + 1
                        )
                    with rec.span("encoder.encode"):
                        f0 = encode(img, cfg.encoder, origin=origin)
                    levels = [FeatureMap(f0.data, level=0, origin=f0.origin)]
                    for lvl in range(len(vdim.levels)):
                        with rec.span(f"vdim.upsample_l{lvl + 1}"):
                            levels.append(
                                jbu_upsample(levels[-1], pyramid.levels[lvl + 1], vdim, level=lvl)
                            )
                    isp = FeaturePyramid(levels=levels, origin=f0.origin)
                    with rec.span("window_attn.compress"):
                        return compress(isp, env.attn, cfg.hiwin)

            if threads > 1:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    maps = list(pool.map(work, units))
            else:
                maps = [work(u) for u in units]
        with rec.span("token_org.assemble"):
            tokens = assemble(maps[1:], layout, maps[0])
        path = env.out_path(key)
        with rec.span("token_org.save"):
            count = _write_tokens(tokens, path)
    return Output(key, tokens=tokens, units=len(units), token_count=count, path=path)


@dataclass
class PyramidSet:
    """The ISPF files of one image: per unit, its origin and level paths."""

    key: str
    width: int
    height: int
    units: list[tuple[str, list[Path]]]


def write_pyramids(env: Env, ppm: Path, key: str) -> PyramidSet:
    """Set-up of ``reproject``: ``build_isp`` + ``save_features`` per unit."""
    image = load_ppm(ppm)
    cfg = env.config
    _, units = unit_images(image, cfg)
    out = []
    for u, (origin, img) in enumerate(units):
        pyramid = build_image_pyramid(img, patch=cfg.encoder.patch, levels=len(env.ckpt.vdim.levels) + 1)
        isp = build_isp(encode(img, cfg.encoder, origin=origin), pyramid, env.ckpt.vdim)
        paths = []
        for fmap in isp.levels:
            path = env.workdir / f"isp-{key}.u{u}.l{fmap.level}.ispf"
            save_features(fmap, path)
            paths.append(path)
        out.append((origin, paths))
    return PyramidSet(key, image.width, image.height, out)


def reproject_request(env: Env, pset: PyramidSet, rec: SpanRecorder | None = None, rid=None) -> Output:
    """Compress one image from its ISPF pyramids and write its tokens."""
    cfg = env.config
    with _span(rec, "request", request=rid):
        maps = []
        for origin, paths in pset.units:
            levels = []
            for p in paths:
                with _span(rec, "encoder.load_features"):
                    levels.append(load_features(p))
            isp = FeaturePyramid(levels=levels, origin=origin)
            with _span(rec, "window_attn.compress"):
                maps.append(compress(isp, env.attn, cfg.hiwin))
        with _span(rec, "slicing.layout"):
            layout = compute_slice_layout(pset.width, pset.height, cfg.max_slices)
        with _span(rec, "token_org.assemble"):
            tokens = assemble(maps[1:], layout, maps[0])
        path = env.out_path(pset.key)
        with _span(rec, "token_org.save"):
            count = _write_tokens(tokens, path)
    return Output(pset.key, tokens=tokens, units=len(pset.units), token_count=count, path=path)


# --- loops, checks and statistics ----------------------------------------


def attempt(key: str, fn: Callable[[], Output]) -> Output:
    start = perf_counter()
    try:
        out = fn()
    except Exception as e:  # a failed request is counted, not fatal
        return Output(key, latency_s=perf_counter() - start, error=f"{type(e).__name__}: {e}")
    out.latency_s = perf_counter() - start
    return out


def closed_loop(cycle, seconds: float, cycles: int | None = None):
    """Run whole cycles of ``(key, request)`` pairs, one at a time, until
    ``seconds`` have passed (or exactly ``cycles`` cycles)."""
    outputs: list[Output] = []
    start = perf_counter()
    done = 0
    while True:
        for key, fn in cycle:
            outputs.append(attempt(key, fn))
        done += 1
        elapsed = perf_counter() - start
        if cycles is not None:
            if done >= cycles:
                break
        elif elapsed >= seconds or elapsed >= LOOP_LIMIT_S:
            break
    return outputs, perf_counter() - start, done


def traced_peak_mb(fn: Callable[[], object]):
    """Run ``fn`` under tracemalloc; returns (result, peak traced MB)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


def output_problems(out: Output, grid_side: int) -> list[str]:
    """Per-request output checks: token count, finiteness, bit-exact
    TOKS round trip and an index line per token."""
    if out.error is not None:
        return [out.error]
    problems = []
    tokens = out.tokens
    expected = grid_side * grid_side * out.units
    if out.token_count != expected:
        problems.append(f"{out.token_count} tokens, expected {expected}")
    if not (np.isfinite(tokens.overview).all() and np.isfinite(tokens.global_map).all()):
        problems.append("non-finite token values")
    try:
        loaded = load_tokens(out.path)
    except (DataFormatError, OSError) as e:
        return problems + [f"TOKS file does not load: {e}"]
    same = (
        (loaded.rows, loaded.cols) == (tokens.rows, tokens.cols)
        and loaded.overview.tobytes() == tokens.overview.astype("<f4").tobytes()
        and loaded.global_map.tobytes() == tokens.global_map.astype("<f4").tobytes()
    )
    if not same:
        problems.append("TOKS round trip is not bit-exact")
    lines = Path(f"{out.path}.idx").read_text(encoding="ascii").count("\n")
    if lines != out.token_count:
        problems.append(f"index has {lines} lines for {out.token_count} tokens")
    return problems


def check_outputs(outputs: list[Output], grid_side: int):
    """Check every output, and that all outputs for one image, whichever
    pass or workload path made them, have the same TOKS bytes.

    Returns (digests by size key, number of failed outputs, error messages).
    """
    first: dict[str, tuple[str, str]] = {}
    failed = 0
    errors = []
    for out in outputs:
        problems = output_problems(out, grid_side)
        if not problems:
            digest = hashlib.sha256(out.path.read_bytes()).hexdigest()
            seen, source = first.setdefault(out.key, (digest, out.source))
            if seen != digest:
                problems.append(f"{out.source} TOKS differ from {source} TOKS")
        if problems:
            failed += 1
            errors += [f"{out.key} ({out.source}): {p}" for p in problems]
    return {k: d for k, (d, _) in first.items()}, failed, errors


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).  When that percentile would fall
    below the median, too few samples exist for a tail: the maximum is
    reported, at percentile 100 with no sample beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    below = n - 10
    if below >= (n + 1) // 2:
        return ordered[below - 1], 100.0 * below / n, 10
    return ordered[-1], 100.0, 0


def latency_metrics(outputs: list[Output], wall_s: float) -> tuple[dict, dict]:
    lat = [o.latency_s for o in outputs]
    value, pct, beyond = tail(lat)
    metrics = {
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": value,
        "images_per_s": len(outputs) / wall_s,
    }
    per_key: dict[str, list[float]] = {}
    for o in outputs:
        per_key.setdefault(o.key, []).append(o.latency_s)
    details = {
        "requests": len(outputs),
        "wall_s": wall_s,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "latency_by_size_s": {k: statistics.median(v) for k, v in per_key.items()},
    }
    return metrics, details


def pixel_classes(sizes) -> list[tuple[int, int]]:
    """The first size of each pixel count: one request per size class."""
    seen = {}
    for w, h in sizes:
        seen.setdefault(w * h, (w, h))
    return list(seen.values())


# --- inference workloads --------------------------------------------------


class _Inference:
    """Shared runner of ``photo``, ``photo-2t`` and ``reproject``."""

    def __init__(self, workload: str, seed: int, scale: Scale, workdir: Path, nproc: int):
        self.workload = workload
        self.threads = min(2, nproc) if workload == "photo-2t" else 1
        self.env = Env(seed, scale, workdir, threads=self.threads)
        sizes = scale.photo_sizes if workload != "reproject" else scale.reproject_sizes
        self.sizes = [size_key(s) for s in sizes]
        self.classes = [size_key(s) for s in pixel_classes(sizes)]
        self.photos = write_photos(seed, tuple(sizes) + scale.reproject_sizes, workdir)
        self.pyramids = {}
        if workload == "reproject":
            self.pyramids = {k: write_pyramids(self.env, self.photos[k], k) for k in self.sizes}
        self.outputs: list[Output] = []  # everything to check, timed or not

    def request(self, key: str, rec: SpanRecorder | None = None, rid=None) -> Callable[[], Output]:
        if self.workload == "reproject":
            return lambda: reproject_request(self.env, self.pyramids[key], rec, rid)
        if rec is None:
            return lambda: photo_request(self.env, self.photos[key], key, self.threads)
        return lambda: photo_request_traced(self.env, rec, rid, self.photos[key], key, self.threads)

    def cycle(self) -> list[tuple[str, Callable[[], Output]]]:
        return [(k, self.request(k)) for k in self.sizes]

    def warm_up(self) -> None:
        """One request of the largest size, so that the allocator's heaps
        and the thread arenas are grown before anything is timed."""
        key = self.sizes[0]
        self.add([attempt(key, self.request(key))], "warm-up")

    def add(self, outputs: list[Output], source: str) -> None:
        for out in outputs:
            out.source = source
        self.outputs += outputs

    def finish(self, metrics: dict, details: dict, spans=()) -> RunResult:
        digests, failed, errors = check_outputs(self.outputs, self.env.config.hiwin.grid_side)
        details["toks_sha256"] = digests
        details["threads"] = self.threads
        return RunResult(metrics, len(self.outputs), failed, errors, details, list(spans))

    def run(self, seconds: float) -> RunResult:
        # The peak-memory pass runs first and is also the warm-up: it makes
        # one request of every size class, the largest first.
        peaks = {}
        for key in self.classes:
            out, peaks[key] = traced_peak_mb(lambda: attempt(key, self.request(key)))
            self.add([out], "peak pass")
        outputs, wall, cycles = closed_loop(self.cycle(), seconds)
        self.add(outputs, "measured")
        metrics, details = latency_metrics(outputs, wall)
        details["cycles"] = cycles
        metrics["peak_mb"] = max(peaks.values())
        details["peak_mb_by_size"] = peaks
        if self.workload == "reproject" or self.threads != 1:
            # The first image of the cross-workload set through the photo
            # path on one thread: every output for it must match byte for byte.
            key = size_key(self.env.scale.reproject_sizes[0])
            ref = attempt(key, lambda: photo_request(self.env, self.photos[key], key, 1))
            self.add([ref], "photo reference")
        return self.finish(metrics, details)

    def run_traced(self, seconds: float) -> RunResult:
        self.warm_up()
        rec = SpanRecorder()
        rids = iter(range(1, 1 << 30))
        traced_cycle = [(k, lambda k=k: self.request(k, rec, next(rids))()) for k in self.sizes]
        traced, traced_wall, cycles = closed_loop(traced_cycle, seconds)
        plain, plain_wall, _ = closed_loop(self.cycle(), seconds, cycles=cycles)
        # Untraced outputs go first, so a replica that differs is the one
        # reported as failed.
        self.add(plain, "untraced")
        self.add(traced, "traced replica")
        for out in traced:
            if out.error is None:
                out.counts = self._counts(out)
        metrics = layer_metrics(rec.spans)
        metrics.update(self._probes(rec))
        metrics.update(mean_counts(traced))
        metrics["pipeline.pool_busy_frac"] = pool_busy_frac(rec.spans, self.threads)
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        details = {
            "cycles": cycles,
            "traced_wall_s": traced_wall,
            "untraced_wall_s": plain_wall,
            "layers": layer_table(rec.spans),
        }
        return self.finish(metrics, details, rec.as_dicts())

    def _counts(self, out: Output) -> dict[str, float]:
        if self.workload == "reproject":
            pset = self.pyramids[out.key]
            bytes_in = {"encoder.bytes_read": sum(p.stat().st_size for _, ps in pset.units for p in ps)}
            w, h = pset.width, pset.height
        else:
            ppm = self.photos[out.key]
            bytes_in = {"image_io.bytes_read": ppm.stat().st_size}
            w, h = (int(v) for v in out.key.split("x"))
        return {
            "slicing.units": out.units,
            "slicing.megapixels_in": w * h / 1e6,
            **bytes_in,
            "token_org.bytes_written": out.path.stat().st_size + Path(f"{out.path}.idx").stat().st_size,
            "tokens": out.token_count,
        }

    def _probes(self, rec: SpanRecorder) -> dict[str, float]:
        """Peak memory of one unit's pyramid and compression, and the
        checkpoint load time."""
        env = self.env
        probes = {"checkpoint.load_s": checkpoint_load_s(env.ckpt_path, rec)}
        if self.workload == "reproject":
            origin, paths = self.pyramids[self.sizes[0]].units[0]
            isp = FeaturePyramid(levels=[load_features(p) for p in paths], origin=origin)
        else:
            image = load_ppm(self.photos[self.sizes[0]])
            _, units = unit_images(image, env.config)
            origin, img = units[0]
            pyramid = build_image_pyramid(img, patch=env.config.encoder.patch, levels=len(env.ckpt.vdim.levels) + 1)
            f0 = encode(img, env.config.encoder, origin=origin)
            isp, probes["vdim.build_isp_peak_mb"] = traced_peak_mb(
                lambda: build_isp(f0, pyramid, env.ckpt.vdim)
            )
        _, probes["window_attn.compress_peak_mb"] = traced_peak_mb(
            lambda: compress(isp, env.attn, env.config.hiwin)
        )
        return probes


def checkpoint_load_s(path: Path, rec: SpanRecorder, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        with rec.span("checkpoint.load"):
            start = perf_counter()
            load_checkpoint(path)
            times.append(perf_counter() - start)
    return statistics.median(times)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    table = layer_table(spans)
    return {f"{name}_s": table[name]["mean_self_s"] for name in LAYER_SPANS if name in table}


def mean_counts(outputs: list[Output]) -> dict[str, float]:
    counted = [o.counts for o in outputs if o.counts]
    if not counted:
        return {}
    return {name: sum(c.get(name, 0) for c in counted) / len(counted) for name in COUNTS}


def pool_busy_frac(spans: list[Span], threads: int) -> float:
    """Serial per-unit busy time / (threads x wall time of the unit pool)."""
    busy = sum(s.duration_ns for s in spans if s.name == "pipeline.unit")
    wall = sum(s.duration_ns for s in spans if s.name == "pipeline.run")
    return busy / (threads * wall) if wall else 0.0


# --- training workload ----------------------------------------------------


class _Train:
    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.ckpt_path = workdir / "model.ckpt"
        write_checkpoint(seed, scale, self.ckpt_path)
        self.corpus = train_corpus(seed, scale)
        self.spec = EncoderSpec(channels=scale.channels, seed=seed)
        self.errors: list[str] = []

    def params(self):
        return (
            VdimParams.init(d_proj=self.scale.d_proj, seed=self.seed),
            DownsamplerParams.init(self.scale.channels, seed=self.seed),
        )

    def call(self, steps: int):
        """One ``pretrain_vdim`` call, as ``hiwin pretrain-vdim`` makes it."""
        vdim, down = self.params()
        s = self.scale
        return pretrain_vdim(self.corpus, self.spec, vdim, down, steps=steps, lr=s.train_lr, batch=s.train_batch)

    def checkpoint_bytes(self, result, name: str) -> bytes:
        config = HiwinConfig(channels=self.scale.channels)
        path = self.workdir / name
        save_checkpoint(
            path, result.vdim, result.down, attn=AttnParams.init(config, seed=self.seed), heads=config.heads
        )
        return path.read_bytes()

    def steps(self, seconds: float) -> int:
        return max(self.scale.check_steps, round(seconds * self.scale.train_steps_per_s))

    def checked_call(self, steps: int, what: str):
        """``call`` with its failure or a non-finite loss recorded; None if it raised."""
        try:
            result = self.call(steps)
        except Exception as e:  # a failed call is counted, not fatal
            self.errors.append(f"{what}: {type(e).__name__}: {e}")
            return None
        if not all(np.isfinite(result.losses)):
            self.errors.append(f"{what}: non-finite loss")
        return result

    def run(self, seconds: float) -> RunResult:
        steps = self.steps(seconds)
        # Two short calls with one seed check determinism; the first is also
        # the warm-up and the peak-memory pass.
        first, peak = traced_peak_mb(lambda: self.checked_call(self.scale.check_steps, "check call 1"))
        second = self.checked_call(self.scale.check_steps, "check call 2")
        start = perf_counter()
        measured = self.checked_call(steps, "measured call")
        wall = perf_counter() - start
        if first and second:
            if first.losses != second.losses:
                self.errors.append("two calls with one seed gave different losses")
            if self.checkpoint_bytes(first, "a.ckpt") != self.checkpoint_bytes(second, "b.ckpt"):
                self.errors.append("two calls with one seed gave different checkpoints")
        if first and measured and measured.losses[: len(first.losses)] != first.losses:
            self.errors.append("the measured call's first losses differ from the check calls'")
        metrics = {
            "latency_p50_s": wall,
            "latency_tail_s": wall,
            "images_per_s": steps * self.scale.train_batch / wall,
            "peak_mb": peak,
        }
        details = {
            "steps": steps,
            "batch": self.scale.train_batch,
            "wall_s": wall,
            "tail_percentile": 100.0,
            "tail_samples_beyond": 0,
            "final_loss": measured.losses[-1] if measured else None,
        }
        return RunResult(metrics, steps, steps if self.errors else 0, self.errors, details)

    def replica(self, rec: SpanRecorder, steps: int):
        """``pretrain_vdim`` rebuilt from ``mlr_objective``,
        ``autodiff.backward`` and ``adam_step``, with spans."""
        vdim, down = self.params()
        s = self.scale
        prepared = []
        for i, img in enumerate(self.corpus):
            with rec.span("encoder.encode", request=0):
                f0 = encode(img, self.spec, origin=f"corpus:{i}")
            with rec.span("image_io.pyramid", request=0):
                pyramid = build_image_pyramid(img, patch=self.spec.patch, levels=len(vdim.levels) + 1)
            prepared.append((f0, pyramid))
        arrays = [a for _, a in trainable_arrays(vdim, down)]
        state = AdamState.for_params(arrays, lr=s.train_lr)
        losses = []
        for step in range(1, steps + 1):
            with rec.span("train.step", request=step):
                grad_sum = [np.zeros_like(a) for a in arrays]
                loss_sum = 0.0
                for k in range(s.train_batch):
                    f0, pyramid = prepared[((step - 1) * s.train_batch + k) % len(prepared)]
                    flat, objective = mlr_objective(f0, pyramid, vdim, down)
                    with rec.span("vdim.train_forward"):
                        loss = objective(flat)
                    if not np.isfinite(loss.data):
                        raise autodiff.NumericalError(f"non-finite training loss at step {step}")
                    with rec.span("autodiff.backward"):
                        autodiff.backward(loss)
                    loss_sum += loss.item()
                    for acc, t in zip(grad_sum, flat):
                        if t.grad is not None:
                            acc += t.grad
                grads = [g / s.train_batch for g in grad_sum]
                with rec.span("numerics.adam"):
                    updated = adam_step(arrays, grads, state)
                for target, new in zip(arrays, updated):
                    target[...] = new
                losses.append(loss_sum / s.train_batch)
        return vdim, down, prepared, losses

    def probes(self, rec: SpanRecorder, vdim, down, prepared) -> dict[str, float]:
        """Inference-side upsampler and downsampler calls on one batch with
        the trained weights; these layers run fused inside the training
        forward, which cannot be split from outside."""
        size = self.scale.train_size
        for f0, pyramid in prepared[: self.scale.train_batch]:
            levels = [FeatureMap(f0.data, level=0, origin=f0.origin)]
            for lvl in range(len(vdim.levels)):
                with rec.span(f"vdim.upsample_l{lvl + 1}", request=0):
                    levels.append(jbu_upsample(levels[-1], pyramid.levels[lvl + 1], vdim, level=lvl))
            for fmap in levels[1:]:
                with rec.span("vdim.downsample", request=0):
                    attention_downsample(fmap, (size, size), down)
        f0, pyramid = prepared[0]
        _, peak = traced_peak_mb(lambda: build_isp(f0, pyramid, vdim))
        return {"vdim.build_isp_peak_mb": peak}

    def run_traced(self, seconds: float) -> RunResult:
        steps = self.steps(seconds)
        self.call(1)  # warm-up
        start = perf_counter()
        plain = self.call(steps)
        plain_wall = perf_counter() - start
        rec = SpanRecorder()
        start = perf_counter()
        vdim, down, prepared, losses = self.replica(rec, steps)
        traced_wall = perf_counter() - start
        if losses != plain.losses:
            self.errors.append("traced replica losses differ from pretrain_vdim")
        replica_ckpt = self.checkpoint_bytes(TrainResult(vdim=vdim, down=down, losses=losses), "replica.ckpt")
        if replica_ckpt != self.checkpoint_bytes(plain, "plain.ckpt"):
            self.errors.append("traced replica checkpoint differs from pretrain_vdim")
        metrics = self.probes(rec, vdim, down, prepared)
        metrics.update(layer_metrics(rec.spans))
        metrics["checkpoint.load_s"] = checkpoint_load_s(self.ckpt_path, rec)
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        details = {
            "steps": steps,
            "traced_wall_s": traced_wall,
            "untraced_wall_s": plain_wall,
            "layers": layer_table(rec.spans),
        }
        return RunResult(metrics, steps, steps if self.errors else 0, self.errors, details, rec.as_dicts())


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, scale: Scale, workdir: Path, nproc: int
) -> RunResult:
    if workload == "train":
        runner = _Train(seed, scale, workdir)
    else:
        runner = _Inference(workload, seed, scale, workdir, nproc)
    return runner.run_traced(seconds) if traced else runner.run(seconds)
