"""Open-loop request generator for the serving workloads.

Requests are due on a fixed schedule (``rate`` per second) made from the
seed before the run starts, and one generator thread sends each one when
it is due, whether or not earlier ones have been answered -- independent
users, not callers waiting on replies. Latency is measured from the due
time, so a stall in the generator or the server is charged to every
request it delayed; how late the generator itself ran is reported
beside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

#: 19 of every 20 requests are one row; the 20th is a bulk batch.
BATCH_EVERY = 20
BATCH_ROWS = 512


@dataclass
class Request:
    due: float  # seconds after the phase start
    rows: np.ndarray  # indices into the held-out matrix


def make_schedule(rng: np.random.RandomState, n_rows: int, rate: float, seconds: float) -> List[Request]:
    """Due times every ``1/rate`` s; in each block of ``BATCH_EVERY``
    requests one position, drawn from ``rng``, carries ``BATCH_ROWS``
    rows and the rest one row each, drawn uniformly from the held-out
    rows."""
    n = max(BATCH_EVERY, int(rate * seconds))
    batch_at = {
        block + rng.randint(BATCH_EVERY) for block in range(0, n, BATCH_EVERY)
    }
    return [
        Request(
            due=i / rate,
            rows=rng.randint(n_rows, size=BATCH_ROWS if i in batch_at else 1),
        )
        for i in range(n)
    ]


@dataclass
class PhaseResult:
    """Per-request outcome of one open-loop phase (times in seconds)."""

    due: np.ndarray
    rows: np.ndarray  # rows per request
    sent: np.ndarray
    done: np.ndarray  # NaN where the request failed or never answered
    ok: np.ndarray  # answered, and the answer was correct
    errors: Dict[str, int] = field(default_factory=dict)
    program_spans: List[list] = field(default_factory=list)

    @property
    def sent_count(self) -> int:
        return int(np.isfinite(self.sent).sum())

    def latency_ms(self, batch: bool = False) -> np.ndarray:
        """Due-to-answer latency of every correctly answered request, or
        with ``batch`` of the ``BATCH_ROWS``-row ones only."""
        keep = self.ok & (self.rows == BATCH_ROWS) if batch else self.ok
        return (self.done[keep] - self.due[keep]) * 1e3

    def late_ms(self) -> np.ndarray:
        sent = np.isfinite(self.sent)
        return (self.sent[sent] - self.due[sent]) * 1e3

    def within_limit_frac(self, limit_ms: float) -> float:
        """Share of all scheduled requests answered correctly within
        ``limit_ms`` of their due time; failures count as misses."""
        return float((self.latency_ms() <= limit_ms).sum() / len(self.due))


def run_open_loop(
    submit: Callable[[np.ndarray], object],
    schedule: List[Request],
    X: np.ndarray,
    check: Callable[[np.ndarray, np.ndarray], bool],
    *,
    trace: Optional[Callable] = None,
    drain: Optional[Callable[[int], list]] = None,
    timeout: float = 60.0,
) -> PhaseResult:
    """Send ``schedule`` through ``submit`` and wait for every answer.

    ``check(indices, answer)`` decides correctness. With ``trace`` (a
    context-manager factory yielding a span with ``trace_id``) each
    submit runs inside it, and ``drain(trace_id)`` collects the
    program's spans of that request once it is answered; draining as the
    phase goes keeps the program's bounded span buffer from overflowing.
    """
    n = len(schedule)
    due = np.array([r.due for r in schedule])
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    errors: Dict[str, int] = {}
    futures: List[Optional[object]] = [None] * n
    trace_ids: List[Optional[int]] = [None] * n
    undrained: List[int] = []
    program_spans: List[list] = [[] for _ in range(n)]

    def stamp(i: int):
        def on_done(_future) -> None:
            done[i] = time.perf_counter()

        return on_done

    def drain_answered() -> None:
        still = []
        for i in undrained:
            if futures[i].done():
                program_spans[i] = drain(trace_ids[i])
            else:
                still.append(i)
        undrained[:] = still

    start = time.perf_counter() + 0.005
    due += start
    for i, request in enumerate(schedule):
        wait = due[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        rows = X[request.rows]
        sent[i] = time.perf_counter()
        try:
            if trace is not None:
                with trace() as span:
                    future = submit(rows)
                if span is not None:  # None: the program's sampling is off
                    trace_ids[i] = span.trace_id
                    undrained.append(i)
            else:
                future = submit(rows)
        except Exception as exc:  # a refused request is a counted failure
            errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
            continue
        futures[i] = future
        future.add_done_callback(stamp(i))
        if drain is not None and i % 16 == 0:
            drain_answered()

    limit = time.perf_counter() + timeout
    for i, future in enumerate(futures):
        if future is None:
            continue
        try:
            answer = future.result(timeout=max(0.0, limit - time.perf_counter()))
        except Exception as exc:
            errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
            done[i] = np.nan
            continue
        ok[i] = check(schedule[i].rows, answer)
        if not ok[i]:
            errors["WrongAnswer"] = errors.get("WrongAnswer", 0) + 1
    if drain is not None:
        drain_answered()
    due -= start
    sent -= start
    done -= start
    rows = np.array([len(r.rows) for r in schedule])
    return PhaseResult(due, rows, sent, done, ok, errors, program_spans)


def percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")
