"""One process-wide thread pool for row-parallel numpy kernels.

Some kernels split into independent jobs that each write their own slice
of a preallocated output: the packed forest's (tree, row chunk) walks and
the feature binner's per-column passes. numpy releases the GIL inside the
heavy calls of those jobs, so running them on threads uses every CPU the
process may run on. :func:`kernel_map` is the one entry point:

* **Width** is the number of CPUs in the process's affinity mask
  (:func:`available_cpus`), so ``taskset`` and cgroup CPU sets are
  respected. It is not a parameter: the jobs' outputs do not depend on each
  other and no reduction changes order, so a kernel's result is identical
  at any width, and width 1 is the same code run in a loop.
* **Serial fallback.** One CPU, one job, or a call from one of the pool's
  own threads runs the jobs in the calling thread. The last case means a
  job may itself call :func:`kernel_map` without waiting on the pool it
  occupies, so nested kernels cannot deadlock.
* **Lazy and fork-safe.** The executor is created on first use. A forked
  child drops the parent's executor (its threads do not exist in the
  child) and builds its own on first use.
* **Whole-call semantics.** Results come back in job order. Every job has
  finished before :func:`kernel_map` returns or raises, so no job keeps
  writing into an output the caller has given up on; the first failing
  job's exception (in job order) reaches the caller unchanged.

This module imports nothing from :mod:`repro`, so the low-level kernels
can use it without import cycles.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence

__all__ = ["available_cpus", "kernel_map"]

_pool: Optional[ThreadPoolExecutor] = None
_pool_width = 0
_pool_lock = threading.Lock()
_in_pool = threading.local()


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity API on this platform
        return os.cpu_count() or 1


def _mark_pool_thread() -> None:
    _in_pool.active = True


def _executor(width: int) -> ThreadPoolExecutor:
    global _pool, _pool_width
    with _pool_lock:
        if _pool is None or _pool_width != width:
            # A replaced pool is not shut down: a caller may still be
            # submitting to it, and its idle threads exit once it is
            # garbage-collected.
            _pool = ThreadPoolExecutor(
                max_workers=width,
                thread_name_prefix="repro-kernel",
                initializer=_mark_pool_thread,
            )
            _pool_width = width
        return _pool


def _drop_pool_in_child() -> None:
    # Fork copies only the forking thread: the parent's pool threads are
    # gone here, and another thread may have held the lock at the fork.
    global _pool, _pool_width, _pool_lock
    _pool, _pool_width, _pool_lock = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool_in_child)


def kernel_map(fn: Callable, jobs: Sequence) -> List:
    """``[fn(job) for job in jobs]``, spread over the kernel pool."""
    jobs = list(jobs)
    width = available_cpus()
    if width <= 1 or len(jobs) <= 1 or getattr(_in_pool, "active", False):
        return [fn(job) for job in jobs]
    pool = _executor(width)
    futures = [pool.submit(fn, job) for job in jobs]
    wait(futures)
    return [future.result() for future in futures]
