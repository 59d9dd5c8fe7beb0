"""hiwin benchmark.

    python3 perfbench/run.py --workload photo --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root.  One run makes its inputs from ``--seed``,
measures one workload for about ``--seconds`` seconds, checks the outputs,
prints every metric with its unit and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer
metrics from a traced run.  ``--workload all`` runs every workload in its own
process and compares TOKS digests across workloads.

Reports and span traces go to ``.perfbench/`` under the repository root.
"""

import os

# BLAS is pinned to one thread before numpy loads: the workloads bring their
# own parallelism, and on a small machine a BLAS pool oversubscribes cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7

_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hiwin
hiwin.load_checkpoint(sys.argv[2])
print(time.perf_counter() - start)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="hiwin benchmark")
    p.add_argument("--workload", required=True, help="photo, photo-2t, reproject, train or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def blas_threads() -> int | None:
    """Threads of the loaded OpenBLAS, asked through its own API."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the repository the benchmark runs in; None in a plain
    source tree (``src_sha256`` identifies the sources there)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def machine() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole machine, where the kernel says."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return None
    ticks = [int(f) for f in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def setup_seconds(ckpt: Path) -> tuple[float, list[float]]:
    """Median over fresh processes of ``import hiwin`` + ``load_checkpoint``."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(ROOT / "src"), str(ckpt)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_metrics(spec: dict, measured: dict, traced: bool) -> dict:
    """Every metric the spec lists for this mode, with its unit.  A layer
    the workload never calls reads 0; a missing end-to-end metric is a bug."""
    out = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        if m["name"] in measured:
            value = measured[m["name"]]
        elif traced:
            value = 0.0
        else:
            raise KeyError(f"workload did not measure {m['name']}")
        out[m["name"]] = {"value": float(value), "unit": m["unit"]}
    return out


def run_one(args) -> int:
    import inputs
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = load_spec()
    traced = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ticks_before = cpu_ticks()
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, traced, inputs.FULL, workdir, nproc()
        )
        ticks_after = cpu_ticks()
        measured = dict(result.metrics)
        details = dict(result.details)
        if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
            # Time the hypervisor gave to other guests: explains slow runs.
            details["cpu_steal_frac"] = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
        if not traced:
            measured["setup_s"], details["setup_s_samples"] = setup_seconds(workdir / "model.ckpt")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = result_metrics(spec, measured, traced)
    details["failed_frac"] = result.failed / result.attempted
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "metrics": metrics,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors,
        "details": details,
    }
    (OUT / "reports").mkdir(parents=True, exist_ok=True)
    (OUT / "reports" / f"{tag}.json").write_text(json.dumps(report, indent=1))
    if traced:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        (OUT / "traces" / f"{tag}.json").write_text(json.dumps(result.spans))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(report["machine"]))
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':30s} {details['failed_frac']:.6g} ratio")
    if "tail_percentile" in details:
        print(f"  latency_tail_s is p{details['tail_percentile']:.4g} with "
              f"{details['tail_samples_beyond']} samples beyond it")
    for error in result.errors:
        print(f"  check failed: {error}")
    print(json.dumps({
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then the cross-workload digest check."""
    import workloads

    correct = True
    digests = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name} exited with {done.returncode}")
            return 1
        correct &= json.loads(done.stdout.strip().splitlines()[-1])["correct"]
        report = OUT / "reports" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        digests[name] = json.loads(report.read_text())["details"].get("toks_sha256", {})
    for name in ("photo-2t", "reproject"):
        for key, digest in digests[name].items():
            if key in digests["photo"] and digests["photo"][key] != digest:
                print(f"cross-workload check failed: {name} {key} TOKS differ from photo")
                correct = False
    print(f"all workloads correct: {correct}")
    return 0 if correct else 1


def _terminate(signum, frame):
    # Unwind normally, so that the run's work directory is removed.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (ROOT / "src" / "hiwin" / "__init__.py").is_file():
        print(f"hiwin sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
