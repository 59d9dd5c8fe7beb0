"""The usable cores, which set the worker counts, and the import cost of
the worker pool."""

import os
import subprocess
import sys
from pathlib import Path

import hiwin
from hiwin.pipeline import PipelineConfig
from hiwin.workers import usable_cores


def test_usable_cores_are_the_affinity_set_else_the_cpu_count(monkeypatch):
    # taskset narrows the affinity set; without one, the CPU count, and
    # without that, one core
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert usable_cores() == 3
    assert PipelineConfig().threads == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert usable_cores() == 5
    assert PipelineConfig().threads == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cores() == 1


def test_import_loads_no_pool_machinery():
    # the first pool imports it, so that ``import hiwin`` stays fast
    src = str(Path(hiwin.__file__).resolve().parents[1])
    probe = "import sys, hiwin; print(*sorted({'concurrent.futures', 'logging', 'multiprocessing'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
