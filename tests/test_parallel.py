"""Tests for the parallel execution engine (repro.parallel)."""

import os

import numpy as np
import pytest

from repro.ensemble import BaggingClassifier, average_ensemble_proba
from repro.parallel import (
    BACKENDS,
    ensemble_predict_proba,
    fit_ensemble_parallel,
    parallel_map,
    resolve_n_jobs,
    spawn_seeds,
    task_rng,
)
from repro.tree import DecisionTreeClassifier
from repro.utils.kernel_pool import available_cpus


def _square(x):  # module-level so the process backend can pickle it
    return x * x


def _balanced_pair_sample(index, rng, X, y):
    idx = rng.permutation(len(y))[: max(2, len(y) // 2)]
    return X[idx], y[idx]


def _make_tree(rng):
    return DecisionTreeClassifier(max_depth=3, random_state=rng.randint(2**31 - 1))


class TestResolveNJobs:
    def test_none_means_serial(self):
        assert resolve_n_jobs(None) == 1

    def test_positive_passthrough(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(7) == 7

    def test_minus_one_is_cpu_count(self):
        assert resolve_n_jobs(-1) == available_cpus()

    def test_negative_counts_back_from_cpus(self):
        assert resolve_n_jobs(-2) == max(1, available_cpus() - 1)
        # Never resolves below one worker, however negative.
        assert resolve_n_jobs(-10_000) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(0)


class TestParallelMap:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ordered_results_all_backends(self, backend):
        items = list(range(20))
        assert parallel_map(_square, items, backend=backend, n_jobs=2) == [
            i * i for i in items
        ]

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            parallel_map(_square, [1], backend="fiber")

    def test_empty_tasks(self):
        assert parallel_map(_square, [], backend="thread", n_jobs=2) == []


class TestSeeding:
    def test_deterministic_given_seed(self):
        assert spawn_seeds(123, 8) == spawn_seeds(123, 8)

    def test_shared_rng_advances(self):
        rng = np.random.RandomState(0)
        first = spawn_seeds(rng, 4)
        second = spawn_seeds(rng, 4)
        assert first != second

    def test_task_rng_reproducible(self):
        a = task_rng(99).randint(0, 1000, size=5)
        b = task_rng(99).randint(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestEnsemblePredictProba:
    def test_matches_manual_average(self, binary_blobs):
        X, y = binary_blobs
        trees = [
            DecisionTreeClassifier(max_depth=d, random_state=d).fit(X, y)
            for d in (1, 2, 3)
        ]
        manual = sum(t.predict_proba(X) for t in trees) / 3
        engine = ensemble_predict_proba(trees, X, np.array([0, 1]))
        assert np.allclose(engine, manual)

    def test_chunk_size_never_changes_result(self, binary_blobs):
        X, y = binary_blobs
        trees = [
            DecisionTreeClassifier(max_depth=3, random_state=s).fit(X, y)
            for s in range(10)
        ]
        reference = ensemble_predict_proba(trees, X, np.array([0, 1]))
        for chunk_size in (1, 7, 64, 10_000):
            out = ensemble_predict_proba(
                trees, X, np.array([0, 1]), chunk_size=chunk_size
            )
            assert np.array_equal(out, reference)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_never_changes_result(self, binary_blobs, backend):
        X, y = binary_blobs
        trees = [
            DecisionTreeClassifier(max_depth=3, random_state=s).fit(X, y)
            for s in range(10)
        ]
        reference = ensemble_predict_proba(trees, X, np.array([0, 1]))
        out = ensemble_predict_proba(
            trees, X, np.array([0, 1]), backend=backend, n_jobs=2, chunk_size=50
        )
        assert np.array_equal(out, reference)

    def test_aligns_partial_classes(self, binary_blobs):
        X, y = binary_blobs
        full = DecisionTreeClassifier(max_depth=2).fit(X, y)
        only_zero = DecisionTreeClassifier(max_depth=2).fit(
            X[:5], np.zeros(5, dtype=int)
        )
        proba = ensemble_predict_proba([full, only_zero], X[:4], np.array([0, 1]))
        assert proba.shape == (4, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_average_ensemble_proba_is_serial_alias(self, binary_blobs):
        X, y = binary_blobs
        trees = [DecisionTreeClassifier(max_depth=2, random_state=0).fit(X, y)]
        assert np.array_equal(
            average_ensemble_proba(trees, X, np.array([0, 1])),
            ensemble_predict_proba(trees, X, np.array([0, 1])),
        )

    def test_requires_estimators(self, binary_blobs):
        X, _ = binary_blobs
        with pytest.raises(ValueError):
            ensemble_predict_proba([], X, np.array([0, 1]))

    def test_invalid_chunk_size(self, binary_blobs):
        X, y = binary_blobs
        tree = DecisionTreeClassifier(max_depth=1).fit(X, y)
        with pytest.raises(ValueError):
            ensemble_predict_proba([tree], X, np.array([0, 1]), chunk_size=0)


class TestFitEnsembleParallel:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_equivalent_members(self, binary_blobs, backend):
        X, y = binary_blobs
        reference, n_ref = fit_ensemble_parallel(
            X,
            y,
            n_estimators=4,
            sample_fn=_balanced_pair_sample,
            make_model=_make_tree,
            random_state=5,
            backend="serial",
        )
        members, n_samples = fit_ensemble_parallel(
            X,
            y,
            n_estimators=4,
            sample_fn=_balanced_pair_sample,
            make_model=_make_tree,
            random_state=5,
            backend=backend,
            n_jobs=2,
        )
        assert n_samples == n_ref
        for ref, got in zip(reference, members):
            assert np.array_equal(ref.predict_proba(X), got.predict_proba(X))

    def test_rejects_zero_estimators(self, binary_blobs):
        X, y = binary_blobs
        with pytest.raises(ValueError):
            fit_ensemble_parallel(
                X,
                y,
                n_estimators=0,
                sample_fn=_balanced_pair_sample,
                make_model=_make_tree,
            )


class TestBaggingNJobs:
    def test_n_jobs_minus_one_runs(self, binary_blobs):
        X, y = binary_blobs
        bag = BaggingClassifier(n_estimators=3, n_jobs=-1, random_state=0).fit(X, y)
        assert len(bag.estimators_) == 3
