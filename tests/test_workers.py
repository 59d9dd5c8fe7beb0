"""The usable cores, which set the worker counts, the import cost of the
workers, and the forked workers themselves: results in task order, errors
as raised, dead workers named, and every worker reaped on every way out."""

import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import hiwin
from hiwin.pipeline import PipelineConfig
from hiwin.workers import WorkerTraceback, forked, usable_cores

from helpers import children, exited


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


def scaled(state, task):
    return state * task, os.getpid()


def fail_at(state, task):
    if task == state:
        raise KeyError(f"task {task}")
    return task


def exit_at(state, task):
    if task == state:
        os._exit(3)
    return task


def sleep_at(state, task):
    if task == state:
        time.sleep(60)
    return task


def test_each_worker_runs_its_chunk_of_every_run_in_task_order():
    # 7 tasks on 2 cores: chunks of 4 and 3, on the same 2 workers every run
    with forked(10, 7, 2) as run:
        first = list(run(scaled, list(range(7)), str))
        assert len(children()) == 2
        second = list(run(scaled, list(range(7, 14)), str))
    assert [r for r, _ in first + second] == [10 * t for t in range(14)]
    pids = [pid for _, pid in first]
    assert pids == [pids[0]] * 4 + [pids[4]] * 3 and pids[0] != pids[4] and os.getpid() not in pids
    assert [pid for _, pid in second] == pids


@pytest.mark.parametrize("task", [1, 5])
def test_a_worker_error_is_raised_with_its_traceback_as_the_cause(task):
    with pytest.raises(KeyError) as err, forked(task, 7, 2) as run:
        list(run(fail_at, list(range(7)), str))
    assert str(err.value) == f"'task {task}'"
    cause = err.value.__cause__
    assert type(cause) is WorkerTraceback
    assert str(cause).startswith("Traceback (most recent call last):")
    assert str(cause).endswith(f"KeyError: 'task {task}'\n")


@pytest.mark.parametrize("task, first_lost", [(1, 0), (5, 4)])
def test_a_dead_worker_names_the_first_task_whose_result_did_not_arrive(task, first_lost):
    with forked(task, 7, 2) as run:
        got = []
        with pytest.raises(ChildProcessError, match=f"^lost {first_lost}$"):
            got.extend(run(exit_at, list(range(7)), lambda i: f"lost {i}"))
        assert got == list(range(first_lost))
        while not any(exited(pid) for pid in children()):
            time.sleep(0.01)
        # the next run finds the dead worker's task pipe broken
        with pytest.raises(ChildProcessError, match="^lost 0$"):
            list(run(exit_at, list(range(7)), lambda i: f"lost {i}"))


def unpicklable_result(state, task):
    return lambda: task


def unpicklable_error(state, task):
    class LocalError(Exception):
        pass

    if task == state:
        raise LocalError(f"task {task}")
    return task


def test_a_result_that_cannot_be_pickled_is_raised_with_its_traceback_as_the_cause():
    with pytest.raises(AttributeError, match="^Can't pickle local object") as err, forked(0, 4, 2) as run:
        list(run(unpicklable_result, list(range(4)), str))
    assert type(err.value.__cause__) is WorkerTraceback
    assert str(err.value.__cause__).startswith("Traceback (most recent call last):")


def test_an_error_that_cannot_be_pickled_arrives_as_its_repr():
    with pytest.raises(RuntimeError) as err, forked(3, 4, 2) as run:
        list(run(unpicklable_error, list(range(4)), str))
    assert str(err.value) == "LocalError('task 3')"
    cause = err.value.__cause__
    assert type(cause) is WorkerTraceback
    assert str(cause).startswith("Traceback (most recent call last):")
    assert str(cause).endswith("LocalError: task 3\n")


def reversed_bytes(state, task):
    return task[::-1], os.getpid()


def test_a_megabyte_task_and_result_round_trip_intact():
    # each message is far larger than a pipe's 64 KB buffer
    tasks = [os.urandom(1 << 20), os.urandom(1 << 20)]
    with forked(None, 2, 2) as run:
        results = list(run(reversed_bytes, tasks, str))
    assert [r for r, _ in results] == [t[::-1] for t in tasks]
    assert results[0][1] != results[1][1]


def test_a_worker_killed_while_it_writes_its_result_names_its_chunk():
    # worker 1 blocks writing its 1 MB result until the caller reads it, and
    # dies with part of it in the pipe: the caller reads a message cut short
    tasks = [os.urandom(1 << 20) for _ in range(4)]
    with forked(None, 4, 2) as run:
        results = run(reversed_bytes, tasks, lambda i: f"lost {i}")
        first = [next(results) for _ in range(2)]  # worker 0's chunk
        assert [r for r, _ in first] == [t[::-1] for t in tasks[:2]]
        (pid,) = [pid for pid in children() if pid != first[0][1]]
        deadline = time.monotonic() + 30
        while not Path(f"/proc/{pid}/wchan").read_text().endswith("pipe_write"):
            assert time.monotonic() < deadline, "worker 1 never blocked on its result pipe"
            time.sleep(0.01)
        os.kill(pid, signal.SIGKILL)
        while not exited(pid):
            time.sleep(0.01)
        with pytest.raises(ChildProcessError, match="^lost 2$") as err:
            next(results)
    assert type(err.value.__cause__) is pickle.UnpicklingError


def leave_the_block(leave):
    with forked(5, 7, 2) as run:
        results = run(sleep_at, list(range(7)), str)
        assert next(results) == 0  # worker 0's chunk; worker 1 sleeps on task 5
        if leave == "raised":
            raise LookupError("the caller's own error")
        if leave == "interrupted":  # Ctrl-C while the caller waits for worker 1, which ignores it
            threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGINT)).start()
            list(results)
        results.close()


@pytest.mark.parametrize("leave, error", [("closed", None), ("raised", LookupError), ("interrupted", KeyboardInterrupt)])
def test_a_busy_worker_is_killed_and_every_worker_reaped_on_every_way_out(leave, error):
    start = time.perf_counter()
    if error is None:
        leave_the_block(leave)
    else:
        with pytest.raises(error):
            leave_the_block(leave)
    assert children() == []
    assert time.perf_counter() - start < 30


def test_import_loads_no_pool_machinery():
    # the first pool imports it, so that ``import hiwin`` stays fast
    src = str(Path(hiwin.__file__).resolve().parents[1])
    probe = "import sys, hiwin; print(*sorted({'concurrent.futures', 'logging', 'multiprocessing'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_forked_workers_load_no_pool_machinery():
    # plain forks and pipes: no pool, queue or management thread
    src = str(Path(hiwin.__file__).resolve().parents[1])
    probe = (
        "import sys, threading, hiwin\n"
        "from hiwin.workers import forked\n"
        "def scaled(state, task):\n"
        "    return state * task\n"
        "with forked(2, 4, 2) as run:\n"
        "    assert list(run(scaled, [0, 1, 2, 3], str)) == [0, 2, 4, 6]\n"
        "    print(threading.active_count())\n"
        "print(*sorted({'concurrent.futures', 'logging', 'multiprocessing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["1", "", ""]
