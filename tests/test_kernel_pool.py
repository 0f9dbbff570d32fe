"""The kernel pool and the kernels that run on it.

``kernel_map`` semantics (order, nesting, errors, fork safety), and
bit-identity of the packed forest's segmented routing and of the feature
binner at every pool width. Widths are forced by patching the affinity
mask, so a 1-CPU runner still drives the concurrent path.
"""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.core import SelfPacedEnsembleClassifier
from repro.fastpath import PackedForest
from repro.fastpath import packed as packed_mod
from repro.fastpath.packed import _level_order_adjacent
from repro.parallel import ensemble_predict_proba, resolve_n_jobs
from repro.serving import WorkerPool
from repro.tree import DecisionTreeClassifier, FeatureBinner
from repro.tree import _binning as binning_mod
from repro.utils import kernel_pool
from repro.utils.kernel_pool import available_cpus, kernel_map

SEG = packed_mod._SEGMENT_ROWS
CLASSES = np.array([0, 1])


def _force_width(monkeypatch, width):
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(width)), raising=False
    )


def _fit_trees(n_trees, seed=0):
    rng = np.random.RandomState(seed)
    X = rng.randn(600, 4)
    y = (X[:, 0] + X[:, 1] * X[:, 2] + 0.3 * rng.randn(600) > 0.5).astype(int)
    return [
        DecisionTreeClassifier(max_depth=9, random_state=s).fit(X, y)
        for s in range(n_trees)
    ]


def _call_with_timeout(fn, seconds=60):
    """Run ``fn`` on a daemon thread; fail instead of hanging the suite."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised in the test thread
            box["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"call did not finish within {seconds}s"
    if "error" in box:
        raise box["error"]
    return box["value"]


# --------------------------------------------------------------------- #
class TestKernelMap:
    def test_results_in_job_order_on_pool_threads(self, monkeypatch):
        _force_width(monkeypatch, 2)

        def job(i):
            time.sleep(0.002 * (i % 3))
            return i * i, threading.current_thread().name

        results = kernel_map(job, range(12))
        assert [value for value, _ in results] == [i * i for i in range(12)]
        assert all(name.startswith("repro-kernel") for _, name in results)

    def test_width_one_runs_in_the_caller(self, monkeypatch):
        _force_width(monkeypatch, 1)
        names = kernel_map(lambda i: threading.current_thread().name, range(4))
        assert names == [threading.current_thread().name] * 4

    def test_nested_call_from_a_pool_job_completes(self, monkeypatch):
        _force_width(monkeypatch, 2)

        def outer(i):
            return sum(kernel_map(lambda j: i * 10 + j, range(3)))

        got = _call_with_timeout(lambda: kernel_map(outer, range(6)))
        assert got == [30 * i + 3 for i in range(6)]

    def test_job_exception_reaches_the_caller_unchanged(self, monkeypatch):
        _force_width(monkeypatch, 2)
        error = KeyError("job 3")
        finished = []

        def job(i):
            if i == 3:
                raise error
            time.sleep(0.01)
            finished.append(i)

        with pytest.raises(KeyError) as caught:
            kernel_map(job, range(6))
        assert caught.value is error
        # Every other job ran to completion before the call raised.
        assert sorted(finished) == [0, 1, 2, 4, 5]

    def test_width_follows_the_affinity_mask(self, monkeypatch):
        _force_width(monkeypatch, 3)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_cpus() == 3
        kernel_map(lambda i: i, range(4))
        assert kernel_pool._pool_width == 3


# --------------------------------------------------------------------- #
class TestPackedRoutingAtEveryWidth:
    @pytest.mark.parametrize("n_trees", [1, 12])
    @pytest.mark.parametrize("n", [1, SEG - 1, SEG + 1, 3 * SEG + 7])
    def test_leaves_and_proba_bit_identical(self, monkeypatch, n_trees, n):
        trees = _fit_trees(n_trees)
        forest = PackedForest.from_estimators(trees, CLASSES)
        X = np.random.RandomState(n).randn(n, 4)
        want_leaves = np.array([
            forest.roots[t] + _level_order_adjacent(est.tree_)[1][est.tree_.apply(X)]
            for t, est in enumerate(trees)
        ])
        want_proba = ensemble_predict_proba(trees, X, CLASSES, packed="never")
        for width in (1, 2, 3):
            _force_width(monkeypatch, width)
            assert np.array_equal(forest.apply(X), want_leaves), width
            assert np.array_equal(
                ensemble_predict_proba(trees, X, CLASSES), want_proba
            ), width
            # The segmented walk on inputs the fused kernel would take.
            monkeypatch.setattr(packed_mod, "_FUSED_LANES", 0)
            assert np.array_equal(forest.apply(X), want_leaves), width
            monkeypatch.undo()

    def test_rows_split_evenly_across_the_pool(self, monkeypatch):
        _force_width(monkeypatch, 2)
        # One member over 39.6k majority rows: two equal jobs, not
        # 32,768 + 6,832.
        assert packed_mod._row_step(39_600, 1) == 19_800
        # Enough trees to occupy the pool: chunks stay full-size.
        assert packed_mod._row_step(9 * SEG, 12) == SEG
        _force_width(monkeypatch, 3)
        assert packed_mod._row_step(SEG + 1, 1) == -(-(SEG + 1) // 3)
        assert packed_mod._row_step(2, 1) == 1


# --------------------------------------------------------------------- #
def _reference_binner(X, max_bins):
    """``np.unique`` / ``np.quantile`` on each raw column."""
    quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    edges = []
    for col in X.T:
        unique = np.unique(col)
        if unique.size <= max_bins:
            edges.append((unique[:-1] + unique[1:]) / 2.0)
        else:
            edges.append(np.unique(np.quantile(col, quantiles)))
    codes = np.column_stack(
        [np.searchsorted(e, col, side="right") for e, col in zip(edges, X.T)]
    )
    return edges, codes


def _binner_cases():
    rng = np.random.RandomState(7)
    tall = binning_mod._THREADED_ROWS + 5
    mixed = rng.randn(tall)
    mixed[rng.rand(tall) < 0.4] = -0.0
    mixed[rng.rand(tall) < 0.4] = 0.0
    return {
        "ties": np.round(rng.randn(tall, 3) * 4) / 4,
        "constant": np.full((tall, 2), 3.5),
        "few_distinct": rng.randint(0, 16, size=(tall, 2)).astype(float),
        "signed_zero": np.column_stack(
            [rng.choice([-2.0, -0.0, 0.0, 1.0], size=tall), mixed]
        ),
        "one_row": rng.randn(1, 3),
        "short": rng.randn(50, 3),
    }


_BINNER_CASES = _binner_cases()


class TestBinnerEquivalence:
    @pytest.mark.parametrize("case", sorted(_BINNER_CASES))
    @pytest.mark.parametrize("max_bins", [16, 64])
    def test_edges_and_codes_match_reference(self, monkeypatch, case, max_bins):
        X = _BINNER_CASES[case]
        want_edges, want_codes = _reference_binner(X, max_bins)
        for width in (1, 2):
            _force_width(monkeypatch, width)
            binner = FeatureBinner(max_bins=max_bins).fit(X)
            assert len(binner.edges_) == len(want_edges)
            for got, want in zip(binner.edges_, want_edges):
                assert np.array_equal(got, want), (case, width)
            assert np.array_equal(binner.n_bins_, [e.size + 1 for e in want_edges])
            assert np.array_equal(binner.transform(X), want_codes), (case, width)

    def test_wide_input_threaded_equals_serial(self, monkeypatch):
        rng = np.random.RandomState(3)
        X = rng.randn(70_000, 30)
        X[:, 5] = np.round(X[:, 5])  # a heavily tied column among them
        _force_width(monkeypatch, 1)
        serial = FeatureBinner().fit(X)
        serial_codes = serial.transform(X)
        _force_width(monkeypatch, 2)
        threaded = FeatureBinner().fit(X)
        assert kernel_pool._pool_width == 2
        for a, b in zip(threaded.edges_, serial.edges_):
            assert np.array_equal(a, b)
        assert np.array_equal(threaded.transform(X), serial_codes)
        want_edges, want_codes = _reference_binner(X, 64)
        for a, b in zip(threaded.edges_, want_edges):
            assert np.array_equal(a, b)
        assert np.array_equal(serial_codes, want_codes)


# --------------------------------------------------------------------- #
def _imbalanced(n_majority, seed):
    rng = np.random.RandomState(seed)
    X = np.vstack([rng.randn(n_majority, 2), rng.randn(400, 2) * 0.7 + 1.5])
    y = np.r_[np.zeros(n_majority, dtype=int), np.ones(400, dtype=int)]
    return X, y


def test_forked_child_scores_after_parent_used_the_pool(monkeypatch):
    _force_width(monkeypatch, 2)
    X, y = _imbalanced(SEG + 500, seed=0)
    model = SelfPacedEnsembleClassifier(n_estimators=3, random_state=0).fit(X, y)
    X_test = np.random.RandomState(1).randn(3 * SEG, 2)
    expected = model.predict_proba(X_test)  # several row chunks
    assert kernel_pool._pool is not None

    def child():
        assert np.array_equal(model.predict_proba(X_test), expected)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(60)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("forked child hung on the parent's kernel pool")
    assert proc.exitcode == 0


def test_worker_pool_serves_a_bulk_batch_after_a_parent_fit(monkeypatch):
    _force_width(monkeypatch, 2)
    X, y = _imbalanced(SEG + 500, seed=2)
    model = SelfPacedEnsembleClassifier(n_estimators=3, random_state=0).fit(X, y)
    X_test = np.random.RandomState(3).randn(70_000, 2)
    expected = model.predict_proba(X_test)
    with WorkerPool(model, n_workers=1, mmap=False) as pool:
        got = pool.submit(X_test).result(timeout=60)
    assert np.array_equal(got, expected)


def test_resolve_n_jobs_follows_the_affinity_mask(monkeypatch):
    _force_width(monkeypatch, 3)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert resolve_n_jobs(-1) == 3
    assert resolve_n_jobs(-2) == 2
