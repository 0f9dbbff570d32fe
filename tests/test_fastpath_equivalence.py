"""Fastpath equivalence contract: packed inference and the SPE fit loop's
majority scoring are bit-identical to the chunked per-tree path
(``packed="never"``), for every tree-based ensemble and for the degenerate
shapes that break naive packing."""

import numpy as np
import pytest

from repro.core import SelfPacedEnsembleClassifier
from repro.core.self_paced import InMemoryMajorityAccess
from repro.datasets import make_checkerboard
from repro.ensemble import BaggingClassifier, RandomForestClassifier
from repro.fastpath import cached_packed_ensemble
from repro.imbalance_ensemble import (
    BalanceCascadeClassifier,
    EasyEnsembleClassifier,
    UnderBaggingClassifier,
)
from repro.parallel import ensemble_predict_proba
from repro.streaming import ArraySource, StreamingSelfPacedEnsembleClassifier
from repro.tree import DecisionTreeClassifier


@pytest.fixture(scope="module")
def data():
    return make_checkerboard(n_minority=80, n_majority=800, random_state=0)


@pytest.fixture(scope="module")
def test_rows():
    X, _ = make_checkerboard(n_minority=80, n_majority=800, random_state=99)
    return X


def _assert_packed_matches_legacy(model, X):
    proba_fast = ensemble_predict_proba(model.estimators_, X, model.classes_)
    proba_legacy = ensemble_predict_proba(
        model.estimators_, X, model.classes_, packed="never"
    )
    assert np.array_equal(proba_fast, proba_legacy)
    # and through the public API
    assert np.array_equal(model.predict_proba(X), proba_legacy)


class TestPackedEqualsPerTree:
    """PackedForest vs per-tree predict_proba, exact equality."""

    def test_self_paced_ensemble(self, data, test_rows):
        X, y = data
        model = SelfPacedEnsembleClassifier(n_estimators=6, random_state=0).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)

    def test_random_forest(self, data, test_rows):
        X, y = data
        model = RandomForestClassifier(n_estimators=7, random_state=1).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)

    def test_bagging(self, data, test_rows):
        X, y = data
        model = BaggingClassifier(n_estimators=5, random_state=2).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)

    def test_under_bagging(self, data, test_rows):
        X, y = data
        model = UnderBaggingClassifier(n_estimators=5, random_state=3).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)

    def test_balance_cascade(self, data, test_rows):
        X, y = data
        model = BalanceCascadeClassifier(n_estimators=4, random_state=4).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)

    def test_easy_ensemble_plain_members(self, data, test_rows):
        X, y = data
        model = EasyEnsembleClassifier(
            n_estimators=4, n_boost_rounds=1, random_state=5
        ).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)

    def test_easy_ensemble_boosted_members_fall_back(self, data, test_rows):
        """Boosted bags are not single trees: the packed path must refuse
        and the chunked fallback must serve identical probabilities."""
        X, y = data
        model = EasyEnsembleClassifier(
            n_estimators=3, n_boost_rounds=3, random_state=6
        ).fit(X, y)
        assert cached_packed_ensemble(model.estimators_, model.classes_) is None
        _assert_packed_matches_legacy(model, test_rows)

    def test_streaming_exact_mode(self, data, test_rows):
        X, y = data
        model = StreamingSelfPacedEnsembleClassifier(
            n_estimators=5, random_state=7
        ).fit(ArraySource(X, y, block_size=128))
        _assert_packed_matches_legacy(model, test_rows)

    def test_streaming_reservoir_mode(self, data, test_rows):
        X, y = data
        model = StreamingSelfPacedEnsembleClassifier(
            n_estimators=4, mode="reservoir", random_state=8
        ).fit(ArraySource(X, y, block_size=128))
        _assert_packed_matches_legacy(model, test_rows)


class TestDegenerateShapes:
    def test_single_node_trees(self, data, test_rows):
        """max_depth=0 would be invalid; a huge min_samples_split leaves
        every tree a single root leaf."""
        X, y = data
        base = DecisionTreeClassifier(min_samples_split=10_000)
        model = BaggingClassifier(estimator=base, n_estimators=4, random_state=0).fit(X, y)
        assert all(est.tree_.node_count == 1 for est in model.estimators_)
        _assert_packed_matches_legacy(model, test_rows)

    def test_single_class_members(self, data, test_rows):
        """A member fitted on one class contributes a single column that
        must be scattered into the right slot of the class space."""
        X, y = data
        full = DecisionTreeClassifier(max_depth=3).fit(X, y)
        only_zero = DecisionTreeClassifier(max_depth=3).fit(X[:10], np.zeros(10, dtype=int))
        only_one = DecisionTreeClassifier(max_depth=3).fit(X[:10], np.ones(10, dtype=int))
        classes = np.array([0, 1])
        for members in ([full, only_zero], [only_one, full], [only_zero, only_one]):
            fast = ensemble_predict_proba(members, test_rows, classes)
            legacy = ensemble_predict_proba(members, test_rows, classes, packed="never")
            assert np.array_equal(fast, legacy)

    def test_single_estimator(self, data, test_rows):
        X, y = data
        model = SelfPacedEnsembleClassifier(n_estimators=1, random_state=0).fit(X, y)
        assert len(model.estimators_) == 1
        _assert_packed_matches_legacy(model, test_rows)

    def test_many_estimators_cross_block_reduction(self, data, test_rows):
        """More members than ESTIMATOR_BLOCK exercises the block-partial
        reduction order on both paths."""
        X, y = data
        model = UnderBaggingClassifier(n_estimators=19, random_state=9).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)


class TestScoringFastpath:
    """The SPE fit loop's majority scoring (packed kernel) must equal the
    chunked per-tree path bit for bit, so it cannot change the fitted
    ensemble."""

    def test_fit_bit_identical_with_and_without_kernels(self, data):
        X, y = data
        model = SelfPacedEnsembleClassifier(n_estimators=6, random_state=0).fit(X, y)
        maj_idx = np.flatnonzero(y == model.majority_class_)
        majority = InMemoryMajorityAccess(X, maj_idx, model._proba_pos)
        for member in model.estimators_:
            reference = ensemble_predict_proba(
                [member], X[maj_idx], np.array([0, 1]), packed="never"
            )[:, 1]
            assert np.array_equal(majority.score(member), reference)


class TestPackCache:
    def test_cache_hit_and_refit_invalidation(self, data, test_rows):
        X, y = data
        model = BaggingClassifier(n_estimators=3, random_state=0).fit(X, y)
        first = cached_packed_ensemble(model.estimators_, model.classes_)
        again = cached_packed_ensemble(model.estimators_, model.classes_)
        assert first is again  # same PackedForest object: cache hit
        before = model.predict_proba(test_rows)
        model.fit(X, 1 - y)  # refit in place: trees replaced
        rebuilt = cached_packed_ensemble(model.estimators_, model.classes_)
        assert rebuilt is not first
        after = model.predict_proba(test_rows)
        assert not np.array_equal(before, after)
        _assert_packed_matches_legacy(model, test_rows)
