"""Forked worker processes, the package's one parallelism: training batch
items and inference units both run through :func:`forked`.

A worker is a plain ``os.fork`` of the caller with two pipes: each ``run``
pickles a worker its chunk of tasks on the task pipe, and the worker pickles
back the chunk's results, or the error that ended it, on the result pipe.
Pickle frames each message, so a message cut short by a worker's death reads
as truncated.  No pool, queue or management thread sits between them, and
``multiprocessing`` and ``concurrent.futures`` (about 10 ms of imports per
process) are never loaded.
"""

import ctypes
import math
import os
import pickle
import sys
from contextlib import contextmanager, suppress
from typing import IO, Any, Callable, Iterator, Sequence

__all__ = ["WorkerTraceback", "forked", "usable_cores"]

_PR_SET_PDEATHSIG = 1


class WorkerTraceback(Exception):
    """The formatted traceback of an error raised in a worker: the
    ``__cause__`` of that error as the caller sees it."""


def usable_cores() -> int:
    """The cores this process may run on, which ``taskset`` limits; the CPU
    count where the platform has no affinity call."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _serve(creator: int, state: Any, tasks: IO[bytes], results: IO[bytes]) -> None:
    """A forked worker's loop.  It is killed when the process that created
    it dies and leaves Ctrl-C to that process.  Until its task pipe closes,
    it runs each chunk of tasks that arrives and writes back ``(results,
    None)`` at its end, one message that wakes the caller once, or ``(error,
    traceback)`` of the first task that raised, or of results that cannot be
    pickled.  Each reply is pickled whole before it is written, so none is
    left half written but by the worker's death."""
    import signal  # here, as it adds 0.5 ms to ``import hiwin``

    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != creator:  # it died before the signal was armed
        return
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        fn, chunk = pickle.load(tasks)  # EOFError once the task pipe closes
        try:
            data = pickle.dumps(([fn(state, task) for task in chunk], None), pickle.HIGHEST_PROTOCOL)
        except BaseException as e:
            import traceback

            error = traceback.format_exc()
            try:
                data = pickle.dumps((e, error), pickle.HIGHEST_PROTOCOL)
            except Exception:  # an error that cannot be pickled goes as its text
                data = pickle.dumps((RuntimeError(repr(e)), error), pickle.HIGHEST_PROTOCOL)
        results.write(data)
        results.flush()


@contextmanager
def forked(state: Any, items: int, cores: int) -> Iterator[Callable]:
    """Yield ``run(fn, tasks, lost)``, which yields ``fn(state, task)`` of a
    module-level ``fn`` for each of the ``items`` tasks, in order.

    On Linux one worker per chunk of ``ceil(items / cores)`` tasks forks as
    the block is entered, inside the caller's ``np.errstate``, and keeps its
    copy of ``state``; chunk k of every ``run`` goes to worker k.  With one
    chunk, or elsewhere, where ``fork`` may be unsafe and no death signal
    ends the workers of a killed parent, the tasks run in this process.  A
    worker's error reaches the caller as raised, its traceback the
    :class:`WorkerTraceback` cause; a dead worker raises
    ``ChildProcessError(lost(i))``, ``i`` the first task whose result did
    not arrive.  A ``run`` is consumed whole before the next starts.  No
    worker outlives the block: on every way out each one, idle or busy, is
    killed and reaped, since none holds anything to save.
    """
    chunk = math.ceil(items / cores)
    if sys.platform != "linux" or chunk >= items:

        def run(fn: Callable, tasks: Sequence, lost: Callable[[int], str]) -> Iterator:
            return (fn(state, task) for task in tasks)

        yield run
        return

    workers: list[tuple[int, IO[bytes], IO[bytes]]] = []  # (pid, task writer, result reader)

    def run(fn: Callable, tasks: Sequence, lost: Callable[[int], str]) -> Iterator:
        starts = range(0, len(tasks), chunk)
        try:
            for (_, to, _), k in zip(workers, starts):
                pickle.dump((fn, tasks[k : k + chunk]), to, pickle.HIGHEST_PROTOCOL)
                to.flush()
        except BrokenPipeError as e:
            raise ChildProcessError(lost(0)) from e
        arrived = 0
        for _, _, back in workers[: len(starts)]:
            try:
                results, error = pickle.load(back)
            except (EOFError, pickle.UnpicklingError) as e:  # it died before or while it wrote
                raise ChildProcessError(lost(arrived)) from e
            if error is not None:
                raise results from WorkerTraceback(error)
            for result in results:
                yield result
                arrived += 1

    try:
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
                try:
                    for fd in [task_w, result_r] + [f.fileno() for w in workers for f in w[1:]]:
                        os.close(fd)  # so that each task pipe's EOF reaches its worker
                    _serve(creator, state, os.fdopen(task_r, "rb"), os.fdopen(result_w, "wb"))
                finally:
                    os._exit(1)
            os.close(task_r)
            os.close(result_w)
            workers.append((pid, os.fdopen(task_w, "wb"), os.fdopen(result_r, "rb")))
        yield run
    finally:
        import signal

        for pid, to, back in workers:
            os.kill(pid, signal.SIGKILL)
            with suppress(BrokenPipeError):  # the unsent bytes of a dead worker's task
                to.close()
            back.close()
            os.waitpid(pid, 0)
