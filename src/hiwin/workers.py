"""Forked worker processes, the package's one parallelism: training batch
items and inference units both run through :func:`forked`."""

import ctypes
import functools
import math
import os
import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

__all__ = ["forked", "usable_cores"]

_PR_SET_PDEATHSIG = 1
_state: Any = None  # a worker's forked copy of the caller's state


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


def _call(fn: Callable, task: Any) -> Any:
    return fn(_state, task)


@contextmanager
def forked(state: Any, items: int, cores: int) -> Iterator[Callable]:
    """Yield ``run(fn, tasks, lost)``, which yields ``fn(state, task)`` of a
    module-level ``fn`` for each of the ``items`` tasks, in order.

    On Linux one worker per chunk of ``ceil(items / cores)`` tasks forks at
    the first ``run``, inside the caller's ``np.errstate``, and keeps its
    copy of ``state``.  With one chunk, or elsewhere, where ``fork`` may be
    unsafe and no death signal ends the workers of a killed parent, the
    tasks run in this process.  A worker's error reaches the caller as
    raised; a dead worker raises ``ChildProcessError(lost(i))``, ``i`` the
    first task whose result did not arrive.  No worker outlives the block.
    """
    chunk = math.ceil(items / cores)
    if sys.platform != "linux" or chunk >= items:

        def run(fn: Callable, tasks: Sequence, lost: Callable[[int], str]) -> Iterator:
            return (fn(state, task) for task in tasks)

        yield run
        return

    # imported here, as they add about 10 ms to ``import hiwin``
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        math.ceil(items / chunk),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(os.getpid(), state),
    )

    def run(fn: Callable, tasks: Sequence, lost: Callable[[int], str]) -> Iterator:
        arrived = 0
        try:
            for result in pool.map(functools.partial(_call, fn), tasks, chunksize=chunk):
                yield result
                arrived += 1
        except BrokenProcessPool as e:
            raise ChildProcessError(lost(arrived)) from e

    try:
        yield run
    finally:
        pool.shutdown(cancel_futures=True)
