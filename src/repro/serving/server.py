"""Model serving: warm loading, micro-batching, thresholding, hot swap.

:class:`ModelServer` turns a fitted (or persisted) ensemble into a serving
endpoint:

* **Warm loading** — given an artifact path, the model is restored through
  :func:`repro.persistence.load_model` and its packed inference kernel
  (:class:`~repro.fastpath.PackedForest`) is built *at construction*,
  through
  :func:`~repro.fastpath.warm_serving_pack` — which warms the very
  ``(estimators, classes)`` cache entry ``predict_proba`` feeds — so the
  first request pays only the kernel, never a re-pack.
* **Micro-batching** — requests submitted through :meth:`submit` enter a
  *bounded* queue (overflow raises
  :class:`~repro.exceptions.ServerOverloadedError` instead of growing
  without limit) and a single worker thread drains up to ``max_batch`` rows
  per kernel call: concurrent small requests coalesce into one batched
  ``predict_proba``, the serving pattern the packed kernels are fastest at.
  Results come back through futures; batching never changes a result
  because the batch rows are scored by one deterministic kernel call and
  split back per request.
* **Thresholding** — :meth:`predict` classifies by comparing the positive
  (minority) class probability against the tunable :attr:`threshold`
  instead of the estimators' hard-coded 0.5 argmax; on heavily imbalanced
  traffic the operating point is a product decision, not a constant.
  :func:`threshold_for_precision` picks the threshold from a validation
  set's PR curve.
* **Hot swap** — :meth:`swap_model` replaces the served model with zero
  downtime. The *entire* serving identity (model, version, classes,
  positive index, kernel flags) lives in one immutable
  :class:`_ActiveModel` record; the challenger's packed kernel is built in
  the *caller's* thread first, then the record pointer is flipped under
  the submit lock. The batching worker reads the pointer exactly once per
  drained batch, so every request is served end-to-end by exactly one
  model version (stamped into :class:`ScoredBatch` results as
  ``model_version``), in-flight requests never block on a re-pack, and
  the queue never drops a request across a swap.
* **Observability** — :meth:`stats` reports served-traffic counters
  (requests, batches, rows, batch-size distribution, overflow rejections,
  per-version request counts, swap count, current version) so monitoring
  loops and benchmarks read server health without instrumenting
  internals. The counters live in the process-wide
  :mod:`repro.telemetry` registry (``repro_server_*``, one labeled
  child per server instance) — ``stats()`` is a thin view over them —
  and requests submitted under an active :func:`repro.telemetry.trace`
  leave ``server.queue_wait`` / ``server.kernel_eval`` spans behind.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from collections import Counter
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..exceptions import (
    DeadlineExceededError,
    ServerClosedError,
    ServerOverloadedError,
)
from ..fastpath.packed import warm_serving_pack

# Historical import path: threshold_for_precision grew up here but is a
# ranking-metrics concern; it now lives in repro.metrics and is re-exported
# so `from repro.serving import threshold_for_precision` keeps working.
from ..metrics.ranking import threshold_for_precision
from ..utils.validation import check_is_fitted, check_n_features

__all__ = ["ModelServer", "ScoredBatch", "threshold_for_precision"]

_STOP = object()


@dataclass(frozen=True)
class ScoredBatch:
    """A scored request with the version that served it.

    ``proba`` columns follow the serving model's ``classes_``;
    ``model_version`` is the :class:`ModelServer` version stamp of the one
    model that scored every row of this request.
    """

    proba: np.ndarray
    model_version: str


@dataclass(frozen=True)
class _ActiveModel:
    """Immutable serving identity; swapped as a single pointer flip."""

    model: object
    version: str
    classes: np.ndarray
    positive_idx: int
    packed: bool


def _resolve_positive_idx(model, classes: np.ndarray) -> int:
    minority = getattr(model, "minority_class_", None)
    if minority is not None:
        return int(np.flatnonzero(classes == minority)[0])
    # Label-generic ensembles (forest/bagging): by the library's
    # convention the higher-sorted label is the positive one.
    return len(classes) - 1


class ModelServer:
    """Serve a fitted ensemble (or a persisted artifact) over micro-batches.

    Parameters
    ----------
    model : fitted classifier, or str / path
        A path is loaded through :func:`repro.persistence.load_model`.
    threshold : float in [0, 1], default 0.5
        Decision threshold on the positive-class probability used by
        :meth:`predict`; writable at runtime (``server.threshold = t``).
    max_batch : int, default 256
        Maximum rows coalesced into one kernel call by the batching worker.
    max_pending : int, default 4096
        Bound on queued requests; :meth:`submit` raises
        :class:`~repro.exceptions.ServerOverloadedError` beyond it.
    model_version : str, default "v0"
        Version stamp for the initial model (use the
        :class:`~repro.lifecycle.ArtifactRegistry` id when serving a
        registered artifact); :meth:`swap_model` installs new stamps.
    mmap : bool, default False
        Load artifact paths with ``load_model(path, mmap_mode="r")``: the
        fitted arrays stay read-only views into the file, so co-located
        servers (and the :class:`~repro.serving.WorkerPool` worker fleet)
        share one page-cache copy of the model instead of one heap copy
        each. Ignored when ``model`` is a live fitted estimator.
    chaos : :class:`repro.chaos.FaultPlan`, optional
        Deterministic fault-injection hooks for tests and the chaos
        benchmark (see :mod:`repro.chaos`); ``None`` (the default)
        disables every hook.

    Attributes
    ----------
    packed_ : bool — the active model is served by a warm ``PackedForest``.
    n_requests_ / n_batches_ : served-traffic counters (micro-batching
        efficiency = requests per batch); see :meth:`stats` for the rest.

    Examples
    --------
    >>> from repro.serving import ModelServer
    >>> server = ModelServer(clf, threshold=0.3)          # doctest: +SKIP
    >>> proba = server.predict_proba(X_batch)             # doctest: +SKIP
    >>> labels = server.predict(X_batch)                  # doctest: +SKIP
    >>> server.swap_model(new_clf, version="v0002")       # doctest: +SKIP
    >>> server.stats()["model_version"]                   # doctest: +SKIP
    >>> server.close()                                    # doctest: +SKIP
    """

    def __init__(
        self,
        model,
        *,
        threshold: float = 0.5,
        max_batch: int = 256,
        max_pending: int = 4096,
        model_version: str = "v0",
        mmap: bool = False,
        chaos=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.mmap = bool(mmap)
        self._chaos = chaos
        self.max_batch = int(max_batch)
        self.threshold = threshold
        self._queue: "queue.Queue" = queue.Queue(maxsize=int(max_pending))
        self._worker: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._closed = False
        self._init_metrics()
        self._batch_rows: Counter = Counter()
        self._requests_by_version: Counter = Counter()
        self._active = self._make_active(model, str(model_version))
        # version → serving record, for decoding results stamped with a
        # version other than the current one (predict across a swap).
        self._version_records: Dict[str, _ActiveModel] = {
            self._active.version: self._active
        }

    # ------------------------------------------------------------------ #
    def _init_metrics(self) -> None:
        """Register this instance's labeled children in the process-wide
        telemetry registry; ``stats()`` reads these, nothing else."""
        registry = telemetry.get_registry()
        self.telemetry_label_ = telemetry.instance_label("server")
        label = ("server",)

        def counter(name: str, help: str):
            return registry.counter(name, help, labels=label).labels(
                self.telemetry_label_
            )

        self._m_requests = counter(
            "repro_server_requests_total", "Requests served by ModelServer."
        )
        self._m_batches = counter(
            "repro_server_batches_total", "Micro-batches drained (kernel calls)."
        )
        self._m_rows = counter(
            "repro_server_rows_total", "Rows scored by ModelServer."
        )
        self._m_overflows = counter(
            "repro_server_overflows_total", "Submissions rejected on a full queue."
        )
        self._m_deadline = counter(
            "repro_server_deadline_expired_total",
            "Requests failed on an expired deadline.",
        )
        self._m_swaps = counter(
            "repro_server_swaps_total", "Hot model swaps installed."
        )
        self._g_queue_depth = registry.gauge(
            "repro_server_queue_depth",
            "Requests waiting in the ModelServer queue.",
            labels=label,
        ).labels(self.telemetry_label_)
        self._h_queue_wait = registry.histogram(
            "repro_server_queue_wait_seconds",
            "Time a request waits in the ModelServer queue before its "
            "batch is drained.",
            labels=label,
        ).labels(self.telemetry_label_)
        self._h_kernel = registry.histogram(
            "repro_server_kernel_eval_seconds",
            "predict_proba kernel duration per drained batch.",
            labels=label,
        ).labels(self.telemetry_label_)
        self._h_swap = registry.histogram(
            "repro_server_swap_seconds",
            "Hot-swap duration (challenger validation + kernel build + flip).",
            labels=label,
        ).labels(self.telemetry_label_)

    # -- served-traffic counters (views over the telemetry registry) ---- #
    @property
    def n_requests_(self) -> int:
        """Requests served (registry view)."""
        return int(self._m_requests.value)

    @property
    def n_batches_(self) -> int:
        """Micro-batches drained (registry view)."""
        return int(self._m_batches.value)

    @property
    def n_rows_(self) -> int:
        """Rows scored (registry view)."""
        return int(self._m_rows.value)

    @property
    def n_overflows_(self) -> int:
        """Overflow rejections (registry view)."""
        return int(self._m_overflows.value)

    @property
    def n_deadline_expired_(self) -> int:
        """Deadline failures (registry view)."""
        return int(self._m_deadline.value)

    @property
    def n_swaps_(self) -> int:
        """Hot swaps installed (registry view)."""
        return int(self._m_swaps.value)

    def _refresh_queue_depth(self) -> int:
        """Read the queue depth and mirror it into the gauge."""
        depth = self._queue.qsize()
        self._g_queue_depth.set(depth)
        return depth

    # ------------------------------------------------------------------ #
    def _make_active(self, model, version: str) -> _ActiveModel:
        """Validate a model and build its warm serving identity.

        Runs *outside* any lock: the packed-kernel build (the expensive
        part) happens in the calling thread, before the identity becomes
        visible to the batching worker.
        """
        if isinstance(model, (str, bytes)) or hasattr(model, "__fspath__"):
            from ..persistence import load_model

            model = load_model(model, mmap_mode="r" if self.mmap else None)
        check_is_fitted(model)
        classes = np.asarray(getattr(model, "classes_", np.array([0, 1])))
        return _ActiveModel(
            model=model,
            version=version,
            classes=classes,
            positive_idx=_resolve_positive_idx(model, classes),
            packed=warm_serving_pack(model),
        )

    # -- serving identity (all views of the one _ActiveModel record) ---- #
    @property
    def model(self):
        """The currently served model."""
        return self._active.model

    @property
    def model_version(self) -> str:
        """Version stamp of the currently served model."""
        return self._active.version

    @property
    def positive_class(self):
        """The label :meth:`predict` emits when the thresholded probability
        clears :attr:`threshold` (the minority class when known)."""
        active = self._active
        return active.classes[active.positive_idx]

    @property
    def positive_index(self) -> int:
        """Column of the positive class in ``predict_proba`` output."""
        return self._active.positive_idx

    @property
    def packed_(self) -> bool:
        """Whether the active model serves via a packed kernel."""
        return self._active.packed

    @property
    def threshold(self) -> float:
        """Decision threshold on the positive-class probability."""
        return self._threshold

    @threshold.setter
    def threshold(self, value: float) -> None:
        """Set the positive-class decision threshold."""
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {value}")
        self._threshold = value

    # ------------------------------------------------------------------ #
    def swap_model(self, model, *, version: Optional[str] = None) -> str:
        """Atomically replace the served model; returns the new version.

        Zero-downtime by construction:

        1. the challenger (a fitted model or an artifact path) is
           validated and its packed kernel is built *first*, in the
           calling thread — the serving worker keeps draining the queue
           with the old model the whole time;
        2. the new :class:`_ActiveModel` record is installed under the
           submit lock — a single reference assignment, so the lock is
           held for nanoseconds, not for a kernel build;
        3. the worker reads the active record exactly once per drained
           batch, so every request — including ones queued before the
           swap — is served entirely by one model version, and none is
           dropped or blocked.

        Requests scored after the flip carry the new ``model_version``
        stamp in their :class:`ScoredBatch`.
        """
        swap_watch = telemetry.stopwatch()
        # expensive part (validation + kernel build), outside the lock
        active = self._make_active(
            model, "(pending)" if version is None else str(version)
        )
        with self._lock:
            if self._closed:
                raise ServerClosedError("ModelServer is closed")
            if version is None:
                # auto-version under the lock: concurrent unnamed swaps
                # must never install the same stamp
                active = dataclasses.replace(
                    active, version=f"swap-{self.n_swaps_ + 1}"
                )
            self._active = active  # atomic pointer flip
            self._version_records[active.version] = active
            self._m_swaps.inc()
        swap_watch.observe(self._h_swap)
        return active.version

    # ------------------------------------------------------------------ #
    def submit(self, rows, *, deadline: Optional[float] = None) -> Future:
        """Queue rows for scoring; the future resolves to their
        ``predict_proba`` matrix (columns follow ``model.classes_``).

        ``deadline`` is this request's scoring budget in seconds. A
        request still queued when its deadline expires fails with
        :class:`~repro.exceptions.DeadlineExceededError` instead of
        being scored late (an already-expired deadline raises at
        submission); ``None`` waits indefinitely. Rows that are not a
        finite matrix of the served model's width raise
        :class:`~repro.exceptions.DataValidationError` at submission, so
        they never join another request's batch."""
        return self._enqueue(rows, want_version=False, deadline=deadline)

    def submit_scored(self, rows, *, deadline: Optional[float] = None) -> Future:
        """Like :meth:`submit`, but the future resolves to a
        :class:`ScoredBatch` carrying the serving ``model_version``."""
        return self._enqueue(rows, want_version=True, deadline=deadline)

    def _resolve_deadline(self, deadline: Optional[float]) -> Optional[float]:
        """Seconds-from-now budget → absolute ``time.monotonic`` expiry."""
        if deadline is None:
            return None
        deadline = float(deadline)
        if deadline <= 0:
            self._m_deadline.inc()
            raise DeadlineExceededError(
                f"deadline of {deadline}s already expired at submission"
            )
        return time.monotonic() + deadline

    def _enqueue(
        self, rows, want_version: bool, deadline: Optional[float] = None
    ) -> Future:
        rows = check_n_features(
            self._active.model, np.atleast_2d(np.asarray(rows, dtype=np.float64))
        )
        expires_at = self._resolve_deadline(deadline)
        future: Future = Future()
        # Trace context + queue-wait stopwatch travel with the request;
        # both are no-ops for untraced/unsampled traffic.
        ctx = telemetry.current_context()
        waited = telemetry.stopwatch()
        # Enqueue under the lock: close() also holds it while setting
        # _closed and enqueuing the stop sentinel, so a request can never
        # slip in after the sentinel (its future would otherwise hang).
        with self._lock:
            if self._closed:
                raise ServerClosedError("ModelServer is closed")
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._serve_loop, name="repro-model-server", daemon=True
                )
                self._worker.start()
            try:
                self._queue.put_nowait(
                    (rows, future, want_version, expires_at, waited, ctx)
                )
            except queue.Full:
                self._m_overflows.inc()
                raise ServerOverloadedError(
                    f"request queue is full ({self._queue.maxsize} pending); "
                    "back off and retry"
                ) from None
        return future

    def _expire(self, item) -> bool:
        """Fail a dequeued request typed if its deadline already passed."""
        rows_, future, _, expires_at, _, _ = item
        if expires_at is not None and time.monotonic() > expires_at:
            self._m_deadline.inc()
            future.set_exception(
                DeadlineExceededError(
                    f"request of {len(rows_)} row(s) expired after waiting "
                    "in the serving queue; not scored"
                )
            )
            return True
        return False

    def _serve_loop(self) -> None:
        carry = None  # dequeued request deferred to the next batch
        while True:
            if carry is not None:
                item, carry = carry, None
            else:
                item = self._queue.get()
            if item is _STOP:
                return
            if self._expire(item):
                continue
            batch: List[Tuple] = [item]
            total = len(item[0])
            # Coalesce whatever is already queued, up to max_batch rows
            # per kernel call (a single larger request is the only case
            # that exceeds the bound — it is always served alone).
            while total < self.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP:
                    self._queue.put(nxt)  # re-deliver the sentinel
                    break
                if self._expire(nxt):
                    continue
                if (
                    total + len(nxt[0]) > self.max_batch
                    or nxt[0].shape[1] != item[0].shape[1]
                ):
                    # Would overflow the bound, or has another width
                    # (admitted for a model swapped in since): next batch.
                    carry = nxt
                    break
                batch.append(nxt)
                total += len(nxt[0])
            if self._chaos is not None:
                self._chaos.fire("server.batch", count=self.n_batches_ + 1)
            rows = (
                batch[0][0]
                if len(batch) == 1
                else np.vstack([item[0] for item in batch])
            )
            # Queue-wait ends here: the batch is drained and about to be
            # scored. Traced requests additionally leave a span each.
            for req_rows, _, _, _, waited, ctx in batch:
                wait_s = waited.observe(self._h_queue_wait)
                if ctx is not None:
                    telemetry.record_span(
                        "server.queue_wait",
                        wait_s,
                        ctx,
                        server=self.telemetry_label_,
                        rows=len(req_rows),
                    )
            # One read of the active record per drained batch: every
            # request in the batch is served by exactly this version,
            # and a concurrent swap_model only affects later batches.
            active = self._active
            kernel_watch = telemetry.stopwatch()
            try:
                proba = active.model.predict_proba(rows)
            except BaseException as exc:  # propagate per request
                for item in batch:
                    item[1].set_exception(exc)
                continue
            kernel_s = kernel_watch.observe(self._h_kernel)
            self._m_batches.inc()
            self._m_requests.inc(len(batch))
            self._m_rows.inc(total)
            self._g_queue_depth.set(self._queue.qsize())
            self._batch_rows[total] += 1
            self._requests_by_version[active.version] += len(batch)
            offset = 0
            for req_rows, future, want_version, _, _, ctx in batch:
                if ctx is not None:
                    # The whole batch is one kernel call; each traced
                    # request is attributed the shared duration.
                    telemetry.record_span(
                        "server.kernel_eval",
                        kernel_s,
                        ctx,
                        server=self.telemetry_label_,
                        version=active.version,
                        batch_rows=total,
                    )
                out = proba[offset : offset + len(req_rows)]
                future.set_result(
                    ScoredBatch(out, active.version) if want_version else out
                )
                offset += len(req_rows)

    # ------------------------------------------------------------------ #
    def predict_proba(self, rows) -> np.ndarray:
        """Synchronous scoring through the batching queue."""
        return self.submit(rows).result()

    def score(self, rows) -> ScoredBatch:
        """Synchronous scoring with the serving version stamp."""
        return self.submit_scored(rows).result()

    def predict(self, rows) -> np.ndarray:
        """Thresholded classification (not the estimators' argmax).

        Binary models emit :attr:`positive_class` where its probability is
        ``>= threshold``; multi-class models fall back to argmax (a single
        threshold is not meaningful there). The probabilities are decoded
        with the classes/positive-index of the *version that scored them*
        (looked up by the ``ScoredBatch`` stamp), so a swap landing
        between submission and scoring can never mis-map the columns.
        """
        scored = self.score(rows)
        active = self._version_records[scored.model_version]
        proba = scored.proba
        if len(active.classes) != 2:
            return active.classes[np.argmax(proba, axis=1)]
        positive = proba[:, active.positive_idx] >= self._threshold
        return active.classes[
            np.where(positive, active.positive_idx, 1 - active.positive_idx)
        ]

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict:
        """Server-health snapshot for monitoring loops and benchmarks.

        Counters are written by the single worker thread (traffic) and
        the submit path (overflows); the snapshot is advisory — exact for
        a drained queue, approximate by a batch under load.
        """
        active = self._active
        # dict(counter) copies at C level under the GIL — an atomic
        # snapshot; iterating the live Counter while the worker inserts a
        # new key would raise "dictionary changed size during iteration".
        batch_rows = dict(self._batch_rows)
        by_version = dict(self._requests_by_version)
        return {
            "model_version": active.version,
            "packed": active.packed,
            "threshold": self._threshold,
            "n_requests": self.n_requests_,
            "n_batches": self.n_batches_,
            "n_rows": self.n_rows_,
            "n_overflows": self.n_overflows_,
            "n_deadline_expired": self.n_deadline_expired_,
            "n_swaps": self.n_swaps_,
            "queue_depth": self._refresh_queue_depth(),
            "batch_size_distribution": {
                int(k): int(v) for k, v in sorted(batch_rows.items())
            },
            "requests_by_version": {
                str(k): int(v) for k, v in sorted(by_version.items())
            },
        }

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the batching worker; pending requests are still served."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
            if worker is not None:
                # Under the lock: no submit can enqueue after the sentinel.
                # The worker drains without taking the lock, so a full
                # queue always makes progress for the blocking put.
                self._queue.put(_STOP)  # repro-lint: disable=lock-blocking-call
        if worker is not None:
            worker.join()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
