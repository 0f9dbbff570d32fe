"""Tests for splitting utilities and cross validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DataValidationError
from repro.model_selection import (
    KFold,
    StratifiedKFold,
    cross_val_score,
    train_test_split,
    train_valid_test_split,
)
from repro.tree import DecisionTreeClassifier


def _imbalanced(n_maj=200, n_min=20, seed=0):
    rng = np.random.RandomState(seed)
    X = rng.randn(n_maj + n_min, 3)
    y = np.concatenate([np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)])
    return X, y


class TestTrainTestSplit:
    def test_sizes(self):
        X, y = _imbalanced()
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, test_size=0.25, random_state=0)
        assert len(y_te) == 55 and len(y_tr) == 165

    def test_stratification_preserves_ratio(self):
        X, y = _imbalanced(1000, 100)
        _, _, y_tr, y_te = train_test_split(X, y, test_size=0.2, random_state=0)
        ratio_tr = y_tr.mean()
        ratio_te = y_te.mean()
        assert abs(ratio_tr - ratio_te) < 0.02

    def test_no_overlap_and_complete(self):
        X = np.arange(100, dtype=float).reshape(-1, 1)
        y = (np.arange(100) % 10 == 0).astype(int)
        X_tr, X_te, _, _ = train_test_split(X, y, test_size=0.3, random_state=1)
        merged = np.sort(np.concatenate([X_tr.ravel(), X_te.ravel()]))
        assert np.array_equal(merged, np.arange(100, dtype=float))

    def test_deterministic_with_seed(self):
        X, y = _imbalanced()
        a = train_test_split(X, y, test_size=0.3, random_state=5)
        b = train_test_split(X, y, test_size=0.3, random_state=5)
        assert np.array_equal(a[0], b[0])

    def test_invalid_test_size(self):
        X, y = _imbalanced()
        with pytest.raises(DataValidationError):
            train_test_split(X, y, test_size=1.5)

    def test_length_mismatch(self):
        with pytest.raises(DataValidationError):
            train_test_split(np.ones((5, 1)), np.ones(4))

    @pytest.mark.parametrize(
        "stratify",
        [np.array([0, 1] * 110), [0, 1] * 110, np.array([True])],
        ids=["array", "list", "length-1-array"],
    )
    def test_stratify_labels_rejected(self, stratify):
        """sklearn's ``stratify=y`` idiom fails typed, and a length-1 array
        does not silently pick a branch."""
        X, y = _imbalanced()
        with pytest.raises(DataValidationError, match="stratify must be a bool"):
            train_test_split(X, y, stratify=stratify, random_state=0)

    @pytest.mark.parametrize(
        "y",
        [
            np.array([0] * 40 + [1] * 7),
            np.array([2, 0, 1] * 9 + [1] * 5),
            np.array(["maj"] * 30 + ["min"] * 4 + ["mid"] * 9),
            # Sizes 2 and 6 put both classes at exactly 0.25 and 0.75.
            np.array([0] * 6 + [1] * 2),
        ],
        ids=["two-class", "three-class", "string-labels", "cross-class-ties"],
    )
    def test_stratified_order_matches_lexsort_reference(self, y):
        """The stable argsort in tie-key order reproduces the historical
        ``np.lexsort((tie, position))`` order from the same RNG draws."""
        from repro.model_selection.split import _stratified_permutation

        def reference(y, rng):
            position = np.empty(len(y))
            for label in np.unique(y):
                idx = rng.permutation(np.flatnonzero(y == label))
                position[idx] = (np.arange(len(idx)) + 0.5) / len(idx)
            return np.lexsort((rng.permutation(len(y)), position))

        for seed in range(20):
            rng_a, rng_b = np.random.RandomState(seed), np.random.RandomState(seed)
            assert np.array_equal(
                _stratified_permutation(y, rng_a), reference(y, rng_b)
            ), seed
            assert rng_a.randint(1 << 30) == rng_b.randint(1 << 30)

    @settings(max_examples=20)
    @given(st.floats(min_value=0.1, max_value=0.9))
    def test_sizes_property(self, test_size):
        X, y = _imbalanced(100, 20)
        X_tr, X_te, y_tr, y_te = train_test_split(
            X, y, test_size=test_size, random_state=0
        )
        assert len(y_tr) + len(y_te) == 120
        assert len(y_te) == max(1, int(round(120 * test_size)))


class TestTrainValidTestSplit:
    def test_paper_60_20_20(self):
        X, y = _imbalanced(600, 60)
        parts = train_valid_test_split(X, y, random_state=0)
        X_tr, X_va, X_te, y_tr, y_va, y_te = parts
        total = len(y_tr) + len(y_va) + len(y_te)
        assert total == 660
        assert abs(len(y_tr) / total - 0.6) < 0.02
        assert abs(len(y_va) / total - 0.2) < 0.02

    def test_each_part_has_minority(self):
        X, y = _imbalanced(600, 30)
        _, _, _, y_tr, y_va, y_te = train_valid_test_split(X, y, random_state=0)
        assert y_tr.sum() > 0 and y_va.sum() > 0 and y_te.sum() > 0

    def test_invalid_sizes(self):
        X, y = _imbalanced()
        with pytest.raises(DataValidationError):
            train_valid_test_split(X, y, valid_size=0.6, test_size=0.5)


class TestKFold:
    def test_covers_all_indices(self):
        X = np.zeros((20, 1))
        seen = np.concatenate([te for _, te in KFold(4, random_state=0).split(X)])
        assert sorted(seen.tolist()) == list(range(20))

    def test_train_test_disjoint(self):
        X = np.zeros((20, 1))
        for tr, te in KFold(5, random_state=0).split(X):
            assert set(tr).isdisjoint(te)

    def test_too_few_samples(self):
        with pytest.raises(DataValidationError):
            list(KFold(5).split(np.zeros((3, 1))))

    def test_invalid_n_splits(self):
        with pytest.raises(DataValidationError):
            KFold(1)


class TestStratifiedKFold:
    def test_each_fold_has_minority(self):
        X, y = _imbalanced(100, 10)
        for _, te in StratifiedKFold(5, random_state=0).split(X, y):
            assert y[te].sum() >= 1

    def test_class_too_small(self):
        X, y = _imbalanced(20, 2)
        with pytest.raises(DataValidationError):
            list(StratifiedKFold(5).split(X, y))

    def test_coverage(self):
        X, y = _imbalanced(50, 10)
        seen = np.concatenate(
            [te for _, te in StratifiedKFold(3, random_state=1).split(X, y)]
        )
        assert sorted(seen.tolist()) == list(range(60))


class TestCrossValScore:
    def test_returns_n_scores(self):
        X, y = _imbalanced(100, 20)
        scores = cross_val_score(
            DecisionTreeClassifier(max_depth=3, random_state=0),
            X,
            y,
            cv=StratifiedKFold(3, random_state=0),
        )
        assert scores.shape == (3,)
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_custom_scorer(self):
        X, y = _imbalanced(60, 12)
        scores = cross_val_score(
            DecisionTreeClassifier(max_depth=2, random_state=0),
            X,
            y,
            cv=StratifiedKFold(3, random_state=0),
            scorer=lambda est, X_t, y_t: 0.123,
        )
        assert np.allclose(scores, 0.123)
