"""Forked worker processes, the package's one parallelism: training batch
items and inference units both run through :func:`forked`.

A worker is a plain ``os.fork`` of the caller with two pipes: each ``run``
writes a worker its chunk of tasks on the task pipe, and the worker writes
back the chunk's results, or the error that ended it, on the result pipe.
Each is one message, pickled behind an 8-byte length.  No pool, queue or
management thread sits between them, and ``multiprocessing`` and
``concurrent.futures`` (about 10 ms of imports per process) are never
loaded.
"""

import ctypes
import math
import os
import pickle
import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

__all__ = ["WorkerTraceback", "forked", "usable_cores"]

_PR_SET_PDEATHSIG = 1
_state: Any = None  # a worker's forked copy of the caller's state


class WorkerTraceback(Exception):
    """The formatted traceback of an error raised in a worker: the
    ``__cause__`` of that error as the caller sees it."""


def usable_cores() -> int:
    """The cores this process may run on, which ``taskset`` limits; the CPU
    count where the platform has no affinity call."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _init_worker(creator: int, state: Any) -> None:
    """Set up a forked worker: it is killed when the process that created
    it dies, leaves Ctrl-C to that process, and keeps its forked copy of
    the caller's state."""
    import signal  # here, as it adds 0.5 ms to ``import hiwin``

    global _state
    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != creator:  # it died before the signal was armed
        os._exit(1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _state = state


def _write(fd: int, data: bytes) -> None:
    """Write ``data`` to the pipe ``fd`` behind its length."""
    for part in (len(data).to_bytes(8, "little"), data):
        view = memoryview(part)
        while view:
            view = view[os.write(fd, view) :]


def _read(fd: int, size: int) -> memoryview:
    buf, got = memoryview(bytearray(size)), 0
    while got < size:
        n = os.readv(fd, [buf[got:]])
        if not n:
            raise EOFError("the writer closed the pipe")
        got += n
    return buf


def _recv(fd: int) -> Any:
    """The next object pickled and written to ``fd``; EOFError if its writer is gone first."""
    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _serve(tasks: int, results: int) -> None:
    """A worker's loop, until its task pipe closes: run each chunk of tasks
    that arrives and write back ``(results, None)`` at its end, one message
    that wakes the caller once, or ``(error, traceback)`` of the first task
    that raised, or of results that cannot be pickled."""
    while True:
        try:
            fn, chunk = _recv(tasks)
        except EOFError:
            return
        try:
            data = pickle.dumps(([fn(_state, task) for task in chunk], None), pickle.HIGHEST_PROTOCOL)
        except BaseException as e:
            import traceback

            error = traceback.format_exc()
            try:
                data = pickle.dumps((e, error), pickle.HIGHEST_PROTOCOL)
            except Exception:  # an error that cannot be pickled goes as its text
                data = pickle.dumps((RuntimeError(repr(e)), error), pickle.HIGHEST_PROTOCOL)
        _write(results, data)


@contextmanager
def forked(state: Any, items: int, cores: int) -> Iterator[Callable]:
    """Yield ``run(fn, tasks, lost)``, which yields ``fn(state, task)`` of a
    module-level ``fn`` for each of the ``items`` tasks, in order.

    On Linux one worker per chunk of ``ceil(items / cores)`` tasks forks at
    the first ``run``, inside the caller's ``np.errstate``, and keeps its
    copy of ``state``; chunk k of every ``run`` goes to worker k.  With one
    chunk, or elsewhere, where ``fork`` may be unsafe and no death signal
    ends the workers of a killed parent, the tasks run in this process.  A
    worker's error reaches the caller as raised, its traceback the
    :class:`WorkerTraceback` cause; a dead worker raises
    ``ChildProcessError(lost(i))``, ``i`` the first task whose result did
    not arrive.  A ``run`` is consumed whole before the next starts.  No
    worker outlives the block: an idle one leaves when its task pipe
    closes, one still busy on an error path is killed, and each is reaped.
    """
    chunk = math.ceil(items / cores)
    if sys.platform != "linux" or chunk >= items:

        def run(fn: Callable, tasks: Sequence, lost: Callable[[int], str]) -> Iterator:
            return (fn(state, task) for task in tasks)

        yield run
        return

    workers: list[list[int]] = []  # [pid, task pipe, result pipe, 1 while its chunk's results are pending]

    def start() -> None:
        creator = os.getpid()
        for _ in range(math.ceil(items / chunk)):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (task_r, task_w, result_r, result_w):
                    os.close(fd)
                raise
            if pid == 0:  # a worker leaves only by os._exit, never by the caller's exit path
                code = 1
                try:
                    for fd in [task_w, result_r] + [fd for w in workers for fd in w[1:3]]:
                        os.close(fd)  # so that each task pipe's EOF reaches its worker
                    _init_worker(creator, state)
                    _serve(task_r, result_w)
                    code = 0
                finally:
                    os._exit(code)
            os.close(task_r)
            os.close(result_w)
            workers.append([pid, task_w, result_r, 0])

    def run(fn: Callable, tasks: Sequence, lost: Callable[[int], str]) -> Iterator:
        if not workers:
            start()
        try:
            for w, k in zip(workers, range(0, len(tasks), chunk)):
                w[3] = 1
                _write(w[1], pickle.dumps((fn, tasks[k : k + chunk]), pickle.HIGHEST_PROTOCOL))
        except BrokenPipeError as e:
            raise ChildProcessError(lost(0)) from e
        arrived = 0
        for w in workers:
            if not w[3]:
                continue
            try:
                results, error = _recv(w[2])
            except EOFError as e:
                raise ChildProcessError(lost(arrived)) from e
            w[3] = 0
            if error is not None:
                raise results from WorkerTraceback(error)
            for result in results:
                yield result
                arrived += 1

    try:
        yield run
    finally:
        import signal

        for pid, task_w, result_r, busy in workers:
            os.close(task_w)  # an idle worker reads EOF and leaves
            if busy:
                os.kill(pid, signal.SIGKILL)
            os.close(result_r)
        for pid, *_ in workers:
            os.waitpid(pid, 0)
