"""The four workloads and the metrics they report.

Every workload runs the same user pipeline through the public API --
generate data (``repro.datasets``), stratified 80/20
``train_test_split``, fit a default ``SelfPacedEnsembleClassifier``,
``predict_proba`` the held-out rows, then serve held-out rows through
``serve()`` on an open-loop schedule -- and differs in which part it
loads:

* ``fit-*`` repeat the fit and the bulk prediction for 60% of the run
  and then serve their own model in-process;
* ``serve-*`` set up ``SERVE_SETUPS`` times -- each time a fresh draw,
  fit, ``save_model``, ``serve(path)`` and a first answer -- and spend
  60% of the run on traffic to the last server.

Every workload therefore reports every end-to-end metric.

Estimators and servers are built with default parameters plus
``random_state``; nothing here selects an optional fast path, so the
program's defaults are what is measured.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import loadgen
import tracer
from tracer import Recorder, Target

import repro
from repro import datasets, model_selection, persistence, serving, telemetry
from repro.metrics import average_precision_score, roc_auc_score

#: Open-loop rate and the latency limit that ``serve_within_limit_frac``
#: counts against.
RATE_PER_S = 300.0
LIMIT_MS = 25.0
#: Set-ups per fit-workload run; ``setup_s`` is the median over them.
SETUP_REPEATS = 5
#: Share of a fit workload's run spent on the fit/predict loop; the rest
#: is open-loop traffic to the fitted model.
FIT_SHARE = 0.6
#: Set-ups per serve-workload run, each on a fresh draw of the data (a
#: fixed count: the process's peak memory grows with each server made).
#: Traffic then takes ``SERVE_TRAFFIC_SHARE`` of the run.
SERVE_SETUPS = 7
SERVE_TRAFFIC_SHARE = 0.6
#: Untraced/traced fit pairs in a fit workload's traced run.
TRACED_FIT_PAIRS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_data: Callable[[int], Tuple[np.ndarray, np.ndarray]]
    n_workers: Optional[int]  # None: a fit workload, served in-process

    @property
    def serves_artifact(self) -> bool:
        return self.n_workers is not None

    @property
    def serve_kwargs(self) -> Dict[str, int]:
        """Only what differs from ``serve()``'s defaults."""
        return {"n_workers": self.n_workers} if self.n_workers else {}


def _credit_paper(seed: int):
    return datasets.make_credit_fraud(n_samples=284_807, random_state=seed)


def _checkerboard_100x(seed: int):
    return datasets.make_checkerboard(
        n_minority=100_000, n_majority=1_000_000, random_state=seed
    )


def _credit_serving(seed: int):
    return datasets.make_credit_fraud(
        n_samples=40_000, imbalance_ratio=120, random_state=seed
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fit-credit",
            "284,807 x 30 credit fraud at the paper's IR 578.88: |N| >> |P|, so "
            "re-scoring the majority each iteration dominates fit",
            _credit_paper,
            None,
        ),
        Workload(
            "fit-checkerboard",
            "Table II checkerboard at 100x scale (1.1M x 2, IR 10): members train "
            "on ~160k rows, so the tree builder dominates fit",
            _checkerboard_100x,
            None,
        ),
        Workload(
            "serve-inproc",
            "in-process ModelServer, the serve() default, at 300 req/s open loop "
            "(1 in 20 requests a 512-row batch): queue wait and kernel only",
            _credit_serving,
            0,
        ),
        Workload(
            "serve-pool",
            "same model and schedule through a forked one-worker WorkerPool on "
            "an mmap'd artifact: adds the IPC and collector hop",
            _credit_serving,
            1,
        ),
    )
}

#: End-to-end metrics: name -> (unit, better). Measured with tracing off.
#: ``setup_s``: median set-up (data, split; for serve-* also fit, save,
#: server start and first answer). ``fit_s``: median ``fit()`` wall.
#: ``roc_auc``: held-out ROC AUC (median over
#: set-ups on serve-*). ``peak_rss_mb``: peak RSS of this process plus the
#: largest child (the pool worker). ``serve_within_limit_frac``: requests answered correctly within
#: ``LIMIT_MS`` / requests scheduled. ``ok_frac``: operations that succeeded
#: with a correct output / operations attempted. Latency percentiles (p50,
#: p90, p99 over all requests, p50 of the 512-row ones) are printed every
#: run with their sample counts but not gated: on a shared 2-CPU host they
#: follow its scheduling stalls from run to run (p50 moved 2x between runs).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "roc_auc": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "serve_within_limit_frac": ("ratio", "higher"),
    "ok_frac": ("ratio", "higher"),
}

#: Per-layer metrics of the traced run: name -> (unit, better, the
#: end-to-end metric it should move, and on which workloads).
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "datasets.generate_s": ("s", "lower", "setup_s on all"),
    "core.majority_score_s": ("s", "lower", "fit_s; ~80% of fit on fit-credit, less on fit-checkerboard"),
    "core.majority_score_rows": ("rows", "lower", "fit_s on fit-*"),
    "core.sampling_s": ("s", "lower", "fit_s on fit-*, ~4-7%"),
    "core.sampling_calls": ("count", "lower", "fit_s on fit-*"),
    "core.fit_unattributed_s": ("s", "lower", "fit_s on fit-*; should stay < 10% of fit"),
    "tree.member_fit_s": ("s", "lower", "fit_s; ~50% on fit-checkerboard, ~14% on fit-credit"),
    "tree.member_fit_calls": ("count", "lower", "fit_s on fit-*"),
    "tree.member_fit_rows": ("rows", "lower", "fit_s on fit-*"),
    "fastpath.scoring_matrix_build_s": ("s", "lower", "fit_s and peak_rss_mb on fit-credit"),
    "fastpath.pack_s": ("s", "lower", "fit_s on fit-*"),
    "fastpath.fit_speedup_vs_simple": ("ratio", "higher", "none; diagnostic for the fastpath"),
    "parallel.predict_s": ("s", "lower", "none gated; bulk predict_proba time (rows/s is printed)"),
    "parallel.predict_rows": ("rows", "higher", "none gated; rows in that bulk predict_proba"),
    "persistence.save_s": ("s", "lower", "setup_s on serve-*"),
    "persistence.load_s": ("s", "lower", "setup_s on serve-*"),
    "persistence.artifact_kb": ("KiB", "lower", "setup_s on serve-*"),
    "serving.server.queue_wait_ms.p50": ("ms", "lower", "request latency (printed) on all"),
    "serving.server.queue_wait_ms.p99": ("ms", "lower", "request latency (printed) on all"),
    "serving.server.kernel_ms.p50": ("ms", "lower", "request latency (printed) on all"),
    "serving.server.kernel_ms.p99": ("ms", "lower", "request latency (printed) on all"),
    "serving.server.rows_per_batch": ("rows", "higher", "request latency (printed) on all"),
    "serving.server.requests_per_batch": ("count", "higher", "request latency (printed) on all"),
    "serving.pool.roundtrip_ms.p50": ("ms", "lower", "request latency (printed) on serve-pool"),
    "serving.pool.roundtrip_ms.p99": ("ms", "lower", "request latency (printed) on serve-pool"),
    "serving.pool.ipc_ms.p50": ("ms", "lower", "request latency (printed) on serve-pool"),
    "serving.pool.ipc_ms.p99": ("ms", "lower", "request latency (printed) on serve-pool"),
    "serving.pool.worker_private_kb": ("KiB", "lower", "peak_rss_mb on serve-pool"),
    "serving.overflows": ("count", "lower", "ok_frac on all"),
    "serving.deadline_expired": ("count", "lower", "ok_frac on all"),
    "loadgen.late_p99_ms": ("ms", "lower", "none; validity of the serve_* numbers"),
    "telemetry.trace_overhead_frac": ("ratio", "lower", "none; traced / untraced fit_s (fit-*) or request p50 (serve-*) - 1"),
    "metrics.aucprc": ("ratio", "higher", "none; held-out AUCPRC, too seed-dependent to gate"),
}

#: The public callables timed in the traced run, one span name each.
TARGETS: List[Target] = [
    Target("datasets.generate", "repro.datasets", "make_credit_fraud"),
    Target("datasets.generate", "repro.datasets", "make_checkerboard"),
    Target("core.majority_score", "repro.core.self_paced", "InMemoryMajorityAccess.score", rows=len),
    Target("core.sampling", "repro.core.self_paced", "self_paced_under_sample"),
    Target("tree.member_fit", "repro.core.self_paced", "fit_ensemble_member", rows=lambda r: r[1]),
    Target("fastpath.scoring_matrix_build", "repro.core.self_paced", "ScoringMatrix"),
    Target("fastpath.pack", "repro.fastpath.packed", "PackedForest.from_estimators"),
    Target("parallel.predict", "repro.core.self_paced", "ensemble_predict_proba", rows=len),
    Target("persistence.save", "repro.persistence", "save_model"),
    Target("persistence.load", "repro.persistence", "load_model"),
]

#: Bench span layer -> the ``repro_fit_stage_seconds`` stage the program
#: itself times around the same call.
STAGE_OF_LAYER = {
    "tree.member_fit": "member_fit",
    "core.majority_score": "ensemble_score",
    "core.sampling": "self_paced_sampling",
}


class Run:
    """State of one benchmark run: seeds, spans, counts and report lines."""

    def __init__(self, workload: Workload, seed: int, seconds: float, traced: bool, workdir: str):
        self.w = workload
        self.seconds = float(seconds)
        self.traced = traced
        self.workdir = workdir
        draws = np.random.RandomState(seed).randint(2**31 - 1, size=4)
        self.data_seed, self.split_seed, self.model_seed, self.schedule_seed = (int(d) for d in draws)
        self.rec = Recorder()
        self.absent: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.lines: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.predict_rows = 0
        self.predict_seconds = 0.0

    # -- helpers -------------------------------------------------------- #
    def say(self, line: str) -> None:
        self.lines.append(line)

    def count(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.say(f"FAILED: {what}")
        return ok

    def layers(self):
        """Wrap the layer targets while tracing; a no-op otherwise."""
        if self.traced:
            return tracer.installed(self.rec, TARGETS)
        return contextlib.nullcontext([])

    # -- pipeline steps ------------------------------------------------- #
    def setup_data(self, draw: int = 0):
        X, y = self.w.make_data(self.data_seed + draw)
        Xtr, Xte, ytr, yte = model_selection.train_test_split(
            X, y, test_size=0.2, random_state=self.split_seed
        )
        n_min = int(np.sum(y == 1))
        self.shape = {
            "rows": int(len(y)),
            "features": int(X.shape[1]),
            "minority": n_min,
            "imbalance_ratio": round((len(y) - n_min) / n_min, 2),
            "train_rows": int(len(ytr)),
            "test_rows": int(len(yte)),
        }
        return Xtr, Xte, ytr, yte

    def fit(self, Xtr, ytr, label: str = "bench.fit"):
        model = repro.SelfPacedEnsembleClassifier(random_state=self.model_seed)
        stages = _stage_sums() if self.traced else {}
        with self.rec.span(label) as span:
            model.fit(Xtr, ytr)
        if stages:
            after = _stage_sums()
            span.tags["stages"] = {k: after[k] - stages[k] for k in stages}
        self.count(
            len(model.estimators_) == model.n_estimators,
            f"fit produced {len(model.estimators_)} members, expected {model.n_estimators}",
        )
        return model, span.duration

    def predict(self, model, Xte, reference=None):
        with self.rec.span("bench.predict") as span:
            proba = model.predict_proba(Xte)
        ok = (
            proba.shape == (len(Xte), 2)
            and bool(np.all(np.isfinite(proba)))
            and bool(np.allclose(proba.sum(axis=1), 1.0, rtol=0, atol=1e-9))
        )
        if reference is not None:
            ok = ok and np.array_equal(proba, reference)
        self.count(ok, "predict_proba output not finite / not summing to 1 / not deterministic")
        self.predict_rows += len(Xte)
        self.predict_seconds += span.duration
        return proba

    def quality(self, yte, proba) -> float:
        """Held-out ROC AUC (returned and recorded) and AUCPRC."""
        self.metrics["roc_auc"] = float(roc_auc_score(yte, proba[:, 1]))
        self.layer_values["metrics.aucprc"] = float(average_precision_score(yte, proba[:, 1]))
        return self.metrics["roc_auc"]

    def serve_phase(self, server, model, Xte, reference, seconds, traced: bool, tag: str):
        """One open-loop phase; every answer must equal direct
        ``predict_proba`` of the same fitted model on the same rows."""

        def check(idx, answer) -> bool:
            expected = reference[idx]
            if np.array_equal(answer, expected):
                return True
            return np.array_equal(answer, model.predict_proba(Xte[idx]))

        schedule = loadgen.make_schedule(
            np.random.RandomState(self.schedule_seed), len(Xte), RATE_PER_S, seconds
        )
        before = _serving_counters(server)
        with self.rec.span("bench.serve", phase=tag):
            result = loadgen.run_open_loop(
                server.submit,
                schedule,
                Xte,
                check,
                trace=(lambda: telemetry.trace("bench.request")) if traced else None,
                drain=telemetry.drain_trace if traced else None,
            )
        after = _serving_counters(server)
        n = len(schedule)
        ok = int(result.ok.sum())
        self.attempted += n
        self.failed += n - ok
        lat = result.latency_ms()
        late = result.late_ms()
        self.say(
            f"phase {tag}: sent {result.sent_count}/{n}, succeeded {ok}, failed {n - ok}"
            f" {dict(result.errors) if result.errors else ''}; latency over {len(lat)} answered:"
            + "".join(
                f" p{q} {loadgen.percentile(lat, q):.3f} ms ({int(len(lat) * (100 - q) / 100)} beyond),"
                for q in (50, 90, 99)
            )
            + f" {loadgen.BATCH_ROWS}-row requests p50"
            f" {loadgen.percentile(result.latency_ms(batch=True), 50):.3f} ms"
            f" (over {len(result.latency_ms(batch=True))}),"
            + f" generator late p50 {loadgen.percentile(late, 50):.3f} ms,"
            f" p99 {loadgen.percentile(late, 99):.3f} ms"
        )
        return result, before, after

    # -- the two run shapes --------------------------------------------- #
    def run(self) -> None:
        self.layer_values: Dict[str, float] = {}
        if self.w.serves_artifact:
            self._run_serve()
        else:
            self._run_fit()
        if self.traced:
            self._reconcile()
        # Not an end-to-end metric: bulk prediction is memory-bound, and
        # on a shared host its run-to-run spread exceeds any usable bound.
        self.say(
            f"bulk predict_proba: {self.predict_rows} held-out rows in {self.predict_seconds:.3f} s"
            f" = {self.predict_rows / self.predict_seconds:.0f} rows/s"
        )
        self.metrics["peak_rss_mb"] = _peak_rss_mb()
        self.metrics["ok_frac"] = (self.attempted - self.failed) / self.attempted

    def _run_fit(self) -> None:
        setups = []
        with self.layers() as absent:
            self.absent = absent
            for _ in range(SETUP_REPEATS):
                data = None  # a user's process holds one data set at a time
                with self.rec.span("bench.setup") as span:
                    data = self.setup_data()
                setups.append(span.duration)
        self.metrics["setup_s"] = statistics.median(setups)
        Xtr, Xte, ytr, yte = data

        if self.traced:
            # Alternate untraced and traced fits so drift on the host does
            # not land on one side of the overhead ratio.
            untraced, traced = [], []
            for _ in range(TRACED_FIT_PAIRS):
                model = None
                model, fit_s = self.fit(Xtr, ytr, "bench.fit_untraced")
                untraced.append(fit_s)
                model = None
                with self.layers():
                    model, fit_s = self.fit(Xtr, ytr)
                traced.append(fit_s)
            untraced_fit = statistics.median(untraced)
            self.layer_values["telemetry.trace_overhead_frac"] = statistics.median(traced) / untraced_fit - 1
            with self.layers():
                proba = self.predict(model, Xte)
            self._fastpath_speedup(Xtr, ytr, untraced_fit)
        else:
            fits = []
            start = time.perf_counter()
            proba = None
            while not fits or time.perf_counter() - start < FIT_SHARE * self.seconds:
                model = None  # drop the previous model before the next fit
                model, fit_s = self.fit(Xtr, ytr)
                fits.append(fit_s)
                answer = self.predict(model, Xte, reference=proba)
                proba = answer if proba is None else proba
            self.metrics["fit_s"] = statistics.median(fits)
            self.say(f"fit loop: {len(fits)} fits, fit_s {['%.3f' % f for f in fits]}")
        self.quality(yte, proba)

        server = serving.serve(model)
        try:
            server.predict_proba(Xte[:1])
            self._serve_metrics(server, model, Xte, proba, (1 - FIT_SHARE) * self.seconds)
        finally:
            server.close()

    def _run_serve(self) -> None:
        """Set up repeatedly, each time on a fresh draw of the data, so the
        set-up, fit, predict and quality medians are over several models;
        the last set-up's server takes the traffic."""
        path = os.path.join(self.workdir, f"{self.w.name}-{os.getpid()}.npz")
        setups, fits, aucs = [], [], []
        server = None
        try:
            with self.layers() as absent:
                self.absent = absent
                for draw in range(SERVE_SETUPS):
                    if server is not None:
                        server.close()
                    server = model = data = None
                    with self.rec.span("bench.setup") as span:
                        data = self.setup_data(draw)
                        Xtr, Xte, ytr, yte = data
                        model, fit_s = self.fit(Xtr, ytr)
                        persistence.save_model(model, path)
                        server = serving.serve(path, **self.w.serve_kwargs)
                        server.predict_proba(Xte[:1])
                    setups.append(span.duration)
                    fits.append(fit_s)
                    proba = self.predict(model, Xte)
                    aucs.append(self.quality(yte, proba))
            self.metrics["setup_s"] = statistics.median(setups)
            self.metrics["fit_s"] = statistics.median(fits)
            self.metrics["roc_auc"] = statistics.median(aucs)
            self.say(f"set-ups: {len(setups)}, fit_s {['%.3f' % f for f in fits]}")
            if self.traced:
                self.layer_values["persistence.artifact_kb"] = os.path.getsize(path) / 1024
                self._fastpath_speedup(Xtr, ytr, self.fit(Xtr, ytr, "bench.fit_untraced")[1])
            self._serve_metrics(server, model, Xte, proba, SERVE_TRAFFIC_SHARE * self.seconds)
        finally:
            if server is not None:
                server.close()
            if os.path.exists(path):
                os.remove(path)

    def _fastpath_speedup(self, Xtr, ytr, default_fit: float) -> None:
        """Simple-path fit wall / default fit wall, both untraced."""
        disabled = tracer.resolve("repro.fastpath", "fastpath_disabled")
        if disabled is None:
            self.say("fastpath.fit_speedup_vs_simple: absent (no fastpath_disabled)")
            return
        with disabled():
            _, simple_fit = self.fit(Xtr, ytr, "bench.fit_simple")
        self.layer_values["fastpath.fit_speedup_vs_simple"] = simple_fit / default_fit

    def _serve_metrics(self, server, model, Xte, reference, seconds) -> None:
        if not self.traced:
            result, _, _ = self.serve_phase(server, model, Xte, reference, seconds, False, "untraced")
            self.metrics["serve_within_limit_frac"] = result.within_limit_frac(LIMIT_MS)
            return
        if self.w.serves_artifact:
            # Overhead baseline: the same schedule untraced, half the run each.
            seconds /= 2
            plain, _, _ = self.serve_phase(server, model, Xte, reference, seconds, False, "untraced")
        result, before, after = self.serve_phase(server, model, Xte, reference, seconds, True, "traced")
        if self.w.serves_artifact:
            self.layer_values["telemetry.trace_overhead_frac"] = (
                loadgen.percentile(result.latency_ms(), 50)
                / loadgen.percentile(plain.latency_ms(), 50)
                - 1
            )
        self._request_layers(result, before, after)
        if isinstance(server, serving.WorkerPool):
            kb = [s.get("private_kb") for s in server.worker_stats().values()]
            kb = [k for k in kb if k is not None]
            if kb:
                self.layer_values["serving.pool.worker_private_kb"] = float(max(kb))

    # -- per-layer analysis --------------------------------------------- #
    def _request_layers(self, result, before, after) -> None:
        v = self.layer_values
        queue_wait, kernel, roundtrip, ipc = [], [], [], []
        for i, spans in enumerate(result.program_spans):
            if not result.ok[i]:
                continue
            by_name: Dict[str, float] = {}
            for span in spans:
                by_name[span.name] = by_name.get(span.name, 0.0) + (span.duration_s or 0.0)
            if "server.queue_wait" in by_name:
                queue_wait.append(by_name["server.queue_wait"] * 1e3)
            if "server.kernel_eval" in by_name:
                kernel.append(by_name["server.kernel_eval"] * 1e3)
            if "pool.roundtrip" in by_name:
                rt = by_name["pool.roundtrip"]
                roundtrip.append(rt * 1e3)
                ipc.append((rt - by_name.get("server.queue_wait", 0.0) - by_name.get("server.kernel_eval", 0.0)) * 1e3)
        for name, values in (
            ("serving.server.queue_wait_ms", queue_wait),
            ("serving.server.kernel_ms", kernel),
            ("serving.pool.roundtrip_ms", roundtrip),
            ("serving.pool.ipc_ms", ipc),
        ):
            if values:
                v[f"{name}.p50"] = loadgen.percentile(np.array(values), 50)
                v[f"{name}.p99"] = loadgen.percentile(np.array(values), 99)
                self.say(f"{name}: {len(values)} request spans")
            else:
                self.say(f"{name}: absent (no such spans recorded)")
        delta = {k: after[k] - before[k] for k in after if k in before}
        if delta.get("n_batches"):
            v["serving.server.rows_per_batch"] = delta["n_rows"] / delta["n_batches"]
            v["serving.server.requests_per_batch"] = delta["n_requests_served"] / delta["n_batches"]
        v["serving.overflows"] = float(delta.get("n_overflows", 0))
        v["serving.deadline_expired"] = float(delta.get("n_deadline_expired", 0))
        v["loadgen.late_p99_ms"] = loadgen.percentile(result.late_ms(), 99)

    def _reconcile(self) -> None:
        """Check every traced fit and report the last one's layers.

        Two cross-checks are printed per fit: the self times of all spans
        under the fit plus its unattributed time must equal its wall time,
        and the bench's member-fit, scoring and sampling spans are set
        beside the program's own ``repro_fit_stage_seconds`` sums."""
        index = tracer.children_index(self.rec.spans)
        fits = [s for s in self.rec.spans if s.name == "bench.fit" and s.span_id in index]
        for n, fit in enumerate(fits, 1):
            inner = tracer.descendants(fit, index)
            unattributed = tracer.self_time(fit, index)
            total = sum(tracer.self_time(s, index) for s in inner) + unattributed
            self.say(
                f"reconcile fit {n}/{len(fits)}: wall {fit.duration:.6f} s = spans' self"
                f" {total - unattributed:.6f} s + unattributed {unattributed:.6f} s"
                f" ({unattributed / fit.duration:.1%}); residual {fit.duration - total:+.2e} s"
            )
            self.count(abs(fit.duration - total) < 1e-6, "fit span self times do not add up to its wall time")
            sums: Dict[str, float] = {}
            rows: Dict[str, int] = {}
            calls: Dict[str, int] = {}
            for span in inner:
                sums[span.name] = sums.get(span.name, 0.0) + span.duration
                rows[span.name] = rows.get(span.name, 0) + int(span.tags.get("rows", 0))
                calls[span.name] = calls.get(span.name, 0) + 1
            program = fit.tags.get("stages", {})
            for layer, stage in STAGE_OF_LAYER.items():
                if layer in self.absent or stage not in program:
                    self.say(f"  {layer} vs repro_fit_stage_seconds{{stage={stage}}}: absent")
                    continue
                bench = sums.get(layer, 0.0)
                self.say(
                    f"  {layer} {bench:.6f} s vs repro_fit_stage_seconds{{stage={stage}}}"
                    f" {program[stage]:.6f} s: difference {bench - program[stage]:+.6f} s"
                )
        if not fits:
            return
        v = self.layer_values
        v["core.fit_unattributed_s"] = unattributed
        for layer in (
            "core.majority_score",
            "core.sampling",
            "tree.member_fit",
            "fastpath.scoring_matrix_build",
            "fastpath.pack",
        ):
            if layer not in self.absent:
                v[f"{layer}_s"] = sums.get(layer, 0.0)
        if "core.majority_score" not in self.absent:
            v["core.majority_score_rows"] = float(rows.get("core.majority_score", 0))
        if "core.sampling" not in self.absent:
            v["core.sampling_calls"] = float(calls.get("core.sampling", 0))
        if "tree.member_fit" not in self.absent:
            v["tree.member_fit_calls"] = float(calls.get("tree.member_fit", 0))
            v["tree.member_fit_rows"] = float(rows.get("tree.member_fit", 0))

    def finish_layers(self) -> Dict[str, float]:
        """Per-layer values, including the ones the generate/predict/
        persistence spans give; layers never measured are left out."""
        v = dict(self.layer_values)
        index = tracer.children_index(self.rec.spans)
        for layer, name in (
            ("datasets.generate", "datasets.generate_s"),
            ("persistence.save", "persistence.save_s"),
            ("persistence.load", "persistence.load_s"),
        ):
            per_setup = [
                sum(c.duration for c in tracer.descendants(s, index) if c.name == layer)
                for s in self.rec.spans
                if s.name == "bench.setup"
            ]
            if layer not in self.absent and any(per_setup):
                v[name] = statistics.median(per_setup)
        predicts = [s for s in self.rec.spans if s.name == "bench.predict"]
        if predicts and "parallel.predict" not in self.absent:
            inner = [c for c in tracer.descendants(predicts[0], index) if c.name == "parallel.predict"]
            if inner:
                v["parallel.predict_s"] = sum(c.duration for c in inner)
                v["parallel.predict_rows"] = float(sum(int(c.tags.get("rows", 0)) for c in inner))
        return v


# --------------------------------------------------------------------- #
def _serving_counters(server) -> Dict[str, float]:
    """Front-door overflow/deadline counters plus the batching counters of
    whichever ``ModelServer`` does the scoring (the worker's, for a pool)."""
    front = server.stats()
    out = {
        "n_overflows": front["n_overflows"],
        "n_deadline_expired": front["n_deadline_expired"],
    }
    if isinstance(server, serving.WorkerPool):
        inner = list(server.worker_stats().values())
    else:
        inner = [front]
    out["n_batches"] = sum(s["n_batches"] for s in inner)
    out["n_rows"] = sum(s["n_rows"] for s in inner)
    out["n_requests_served"] = sum(s["n_requests"] for s in inner)
    return out


def _stage_sums() -> Dict[str, float]:
    """Cumulative ``repro_fit_stage_seconds`` sum per stage, or empty if
    the program no longer exposes the histogram."""
    stage_histogram = getattr(telemetry, "stage_histogram", None)
    if stage_histogram is None:
        return {}
    return {stage: stage_histogram(stage).sum for stage in STAGE_OF_LAYER.values()}


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest finished child
    (the pool worker, once the pool has been closed and joined)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
