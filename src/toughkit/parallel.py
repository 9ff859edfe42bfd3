"""The one process pool behind every parallel map in toughkit.

Each caller splits its work into independent tasks and merges the results
in task order, so output never depends on the worker count.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serial_map(fn, tasks) -> list:
    return [fn(t) for t in tasks]


@contextmanager
def worker_pool(workers: int):
    """Yield ``map(fn, tasks) -> list`` running on up to ``workers`` processes.

    One pool is forked on entry and serves every map made inside the block;
    results come back in task order.  ``workers`` is capped at the CPUs this
    process may run on, and a count of 1 (after the cap) yields the plain
    loop without forking or importing ``multiprocessing``.  Workers are
    forked, so ``fn`` and the tasks must be picklable and the caller must
    hold no threads.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, usable_cpus())
    if workers == 1:
        yield _serial_map
        return
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(workers) as pool:
        yield pool.map
