"""Execution backends for the ensemble engine.

Everything in :mod:`repro.parallel` is built on one primitive —
:func:`parallel_map` — which applies a function over a list of task
payloads and returns the results *in task order* regardless of backend:

* ``"serial"``   — a plain loop in the calling thread (zero overhead, the
  reference semantics every other backend must reproduce bit-for-bit);
* ``"thread"``   — a :class:`~concurrent.futures.ThreadPoolExecutor`; tasks
  share memory, so no data is copied (numpy releases the GIL inside most
  heavy kernels);
* ``"process"``  — a :class:`~concurrent.futures.ProcessPoolExecutor`; task
  payloads and results cross process boundaries via pickle, so the mapped
  function and every payload must be picklable (module-level functions and
  :func:`functools.partial` of them qualify; closures do not).

Determinism contract: callers must make each task self-contained — any
randomness a task needs is derived from a per-task seed drawn *before*
dispatch (:mod:`repro.parallel.seeding`), and reductions over task results
always run in task order. Under that contract every backend and every
``n_jobs`` produces identical output.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence

from ..utils.kernel_pool import available_cpus

__all__ = ["BACKENDS", "resolve_n_jobs", "parallel_map"]

#: Recognised backend names, in increasing isolation order.
BACKENDS = ("serial", "thread", "process")


def resolve_n_jobs(n_jobs: Optional[int] = None) -> int:
    """Turn an ``n_jobs`` hyper-parameter into a concrete worker count.

    ``None`` means 1 (no parallelism); positive integers pass through;
    negative integers count back from the CPUs this process may run on
    (its affinity mask, :func:`~repro.utils.kernel_pool.available_cpus`)
    the way joblib does (``-1`` → all of them, ``-2`` → all but one, never
    below 1).
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        raise ValueError("n_jobs == 0 has no meaning; use 1, a positive int, or -1")
    if n_jobs < 0:
        return max(1, available_cpus() + 1 + n_jobs)
    return n_jobs


def _check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"Unknown backend {backend!r}; expected one of {list(BACKENDS)}"
        )
    return backend


def parallel_map(
    fn: Callable,
    tasks: Sequence,
    *,
    backend: str = "serial",
    n_jobs: Optional[int] = None,
    initializer: Optional[Callable] = None,
    initargs: Sequence = (),
) -> List:
    """Apply ``fn`` to every payload in ``tasks``; results in task order.

    Falls back to the serial loop whenever parallelism cannot pay off
    (one worker, one task, or the serial backend) so callers can pass
    ``n_jobs`` straight through without special-casing.

    ``initializer(*initargs)`` runs once per worker before any task (and
    once in the calling thread on the serial path). This is how a caller
    ships shared state — e.g. a block of estimators — to ``"process"``
    workers *once per worker* instead of re-pickling it into every task
    payload; thread/serial workers share the caller's memory, so the same
    registration is effectively free there.
    """
    _check_backend(backend)
    tasks = list(tasks)
    workers = min(resolve_n_jobs(n_jobs), max(len(tasks), 1))
    if backend == "serial" or workers <= 1 or len(tasks) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(task) for task in tasks]
    pool_cls = ThreadPoolExecutor if backend == "thread" else ProcessPoolExecutor
    with pool_cls(
        max_workers=workers, initializer=initializer, initargs=tuple(initargs)
    ) as pool:
        return list(pool.map(fn, tasks))
