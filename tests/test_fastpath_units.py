"""Unit pins for the fastpath building blocks and the satellite
optimisations: vectorised bin gathering, keyed inference payloads, binner
caching, the level-synchronous tree builder, and the packed kernel."""

import numpy as np
import pytest

from repro.core.binning import cut_hardness_bins, allocate_bin_samples, self_paced_bin_weights
from repro.core.self_paced import self_paced_under_sample
from repro.fastpath import PackedForest
from repro.parallel import ensemble_predict_proba
from repro.parallel.executor import parallel_map
from repro.parallel.inference import _SHARED_PAYLOADS
from repro.tree import DecisionTreeClassifier, FeatureBinner
from repro.tree._tree import _grow_depth_first, build_tree


# --------------------------------------------------------------------- #
def _reference_under_sample(hardness, k_bins, alpha, n_samples, rng):
    """The historical per-bin np.flatnonzero formulation (pre-argsort)."""
    bins = cut_hardness_bins(hardness, k_bins)
    if bins.degenerate:
        n = min(n_samples, hardness.size)
        return rng.choice(hardness.size, size=n, replace=False), bins
    weights = self_paced_bin_weights(bins, alpha)
    counts = allocate_bin_samples(weights, bins.populations, n_samples)
    chosen = []
    for b in np.flatnonzero(counts > 0):
        members = np.flatnonzero(bins.assignments == b)
        chosen.append(rng.choice(members, size=int(counts[b]), replace=False))
    if not chosen:
        n = min(n_samples, hardness.size)
        return rng.choice(hardness.size, size=n, replace=False), bins
    return np.concatenate(chosen), bins


#: (seed, alpha, k_bins) cases; the 20-bin cases keep their short ids.
#: 255/256 and 300 bins straddle the uint8 / uint16 sort-key boundary.
_UNDER_SAMPLE_CASES = [
    pytest.param(seed, alpha, k_bins,
                 id=f"{seed}-{alpha}" + ("" if k_bins == 20 else f"-k{k_bins}"))
    for k_bins in (20, 1, 255, 256, 300)
    for alpha in (0.0, 0.3, 5.0, 1e16)
    for seed in (0, 7, 123)
]


class TestVectorisedUnderSample:
    @pytest.mark.parametrize("seed,alpha,k_bins", _UNDER_SAMPLE_CASES)
    def test_bit_identical_to_per_bin_scan(self, seed, alpha, k_bins):
        rng = np.random.RandomState(seed)
        hardness = rng.rand(5000)
        got, _ = self_paced_under_sample(
            hardness, k_bins, alpha, 400, np.random.RandomState(seed)
        )
        want, _ = _reference_under_sample(
            hardness, k_bins, alpha, 400, np.random.RandomState(seed)
        )
        assert np.array_equal(got, want)

    def test_degenerate_hardness(self):
        got, bins = self_paced_under_sample(
            np.full(100, 0.5), 10, 1.0, 30, np.random.RandomState(0)
        )
        assert bins.degenerate and len(got) == 30

    def test_sparse_bins(self):
        """Hardness concentrated in few bins: empty-bin slices must be
        skipped exactly like the flatnonzero scan skipped them."""
        rng = np.random.RandomState(1)
        hardness = np.concatenate([np.zeros(500), np.ones(5)])
        got, _ = self_paced_under_sample(hardness, 50, 0.0, 50, np.random.RandomState(2))
        want, _ = _reference_under_sample(hardness, 50, 0.0, 50, np.random.RandomState(2))
        assert np.array_equal(got, want)


# --------------------------------------------------------------------- #
class TestFeatureBinnerCaching:
    def test_edges_cached_as_tuple(self, rng):
        binner = FeatureBinner(max_bins=8).fit(rng.randn(100, 3))
        assert isinstance(binner.edges_, tuple)
        assert len(binner.edges_) == 3

    def test_transform_skips_validation_on_float_arrays(self, rng):
        X = rng.randn(50, 2)
        binner = FeatureBinner(max_bins=8).fit(X)
        codes = binner.transform(X)
        # list input still goes through check_array conversion
        assert np.array_equal(binner.transform(X.tolist()), codes)
        # feature-count validation is preserved on the fast path
        with pytest.raises(ValueError, match="features"):
            binner.transform(rng.randn(10, 5))

    def test_threshold_semantics_unchanged(self, rng):
        X = rng.randn(200, 1)
        binner = FeatureBinner(max_bins=6).fit(X)
        codes = binner.transform(X).ravel()
        for c in range(int(binner.n_bins_[0]) - 1):
            thr = binner.threshold_value(0, c)
            assert np.array_equal(codes <= c, X.ravel() < thr)


# --------------------------------------------------------------------- #
def _builder_inputs():
    """(name, X, y, n_classes, max_bins, tree kwargs, options) inputs on
    which the level builder must reproduce the depth-first builder.
    ``options`` may restrict the ``criteria`` an input runs under and name
    ``zero_weight`` rows for the weighted run."""
    rng = np.random.RandomState(0)
    base = dict(max_depth=6, min_samples_split=4, min_samples_leaf=2,
                min_impurity_decrease=0.0)
    X = rng.randn(300, 4)
    yield "gaussian", X, rng.randint(0, 3, 300), 3, 16, base, {}
    # Heavy ties: 64 bins per feature, but nearly every row on one of four
    # values, so most (node, feature, bin) cells are empty and most dense
    # candidates repeat a lower code's partition.
    p = np.full(64, 0.3 / 60)
    p[[5, 20, 40, 63]] = 0.7 / 4
    X = rng.choice(64, size=(600, 3), p=p).astype(float)
    y = ((X[:, 0] > 20) ^ (X[:, 1] > 30) ^ (rng.rand(600) < 0.1)).astype(int)
    yield "ties", X, y, 2, 64, dict(base, max_depth=None), {}
    # Impure rows sitting in the top bin of every feature: once split off,
    # their node has no candidate at all and must stay a leaf.
    X = rng.randint(0, 3, (300, 2)).astype(float)
    X[:60] = 2.0
    y = np.where(np.arange(300) < 60, np.arange(300) % 2, X[:, 0] > 0).astype(int)
    yield "top_bin", X, y, 2, 64, dict(base, max_depth=None, min_samples_leaf=1), {}
    # Unequal n_bins_: 64 bins beside 3 and 2, so the narrow features carry
    # phantom bins in the padded layout.
    X = np.column_stack([rng.randn(400), rng.randint(0, 3, 400),
                         rng.randint(0, 2, 400)]).astype(float)
    y = ((X[:, 0] > 0.3) ^ (X[:, 1] == 1)).astype(int)
    yield "unequal_bins", X, y, 2, 64, dict(base, max_depth=None), {}
    X = rng.randn(500, 3)
    y = (X[:, 0] + 0.5 * X[:, 2] + 0.5 * rng.randn(500) > 0).astype(int)
    yield "min_leaf_and_decrease", X, y, 2, 32, dict(
        max_depth=None, min_samples_split=2, min_samples_leaf=7,
        min_impurity_decrease=0.01,
    ), {}
    # A duplicated column: every split ties across features 0 and 1.
    x = rng.randn(300)
    X = np.column_stack([x, x, rng.randn(300)])
    y = (x + 0.5 * rng.randn(300) > 0).astype(int)
    yield "equal_gains", X, y, 2, 16, dict(base, max_depth=None), {}
    # A staircase: one row per code, classes alternating, so every split
    # peels one row off the end — a chain of 47 levels (the preorder ids
    # of a maximally unbalanced tree).
    X = np.arange(48, dtype=float)[:, None]
    yield "staircase", X, np.arange(48) % 2, 2, 64, dict(
        max_depth=None, min_samples_split=2, min_samples_leaf=1,
        min_impurity_decrease=0.0,
    ), {}
    # min_samples_split above most children's size: those children are
    # leaves whose rows leave the live set on the routing pass.
    X = rng.randn(400, 3)
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0.5) ^ (rng.rand(400) < 0.2)).astype(int)
    yield "large_min_split", X, y, 2, 32, dict(
        base, max_depth=None, min_samples_split=90, min_samples_leaf=1
    ), {}
    # Zero-weight rows (the weighted run): they count toward
    # n_node_samples and min_samples_* but add nothing to class sums, and
    # a split isolating them has no usable gain.
    X = rng.randn(400, 2)
    y = ((X[:, 0] + X[:, 1] > 0) ^ (rng.rand(400) < 0.15)).astype(int)
    zero = (X[:, 0] > 0.8) | (rng.rand(400) < 0.2)
    yield "zero_weights", X, y, 2, 32, dict(base, max_depth=None), {
        "zero_weight": zero
    }
    # Member scale: a 60k-row noisy checkerboard, deep trees with wide
    # levels (gini only, the SPE default, to bound the depth-first run).
    X = rng.rand(60_000, 2) * 4
    y = (((X[:, 0].astype(int) + X[:, 1].astype(int)) % 2 == 0)
         ^ (rng.rand(60_000) < 0.1)).astype(int)
    yield "large_gini", X, y, 2, 64, dict(base, max_depth=None), {
        "criteria": ("gini",)
    }


class TestLevelSynchronousBuilder:
    @pytest.mark.parametrize("criterion", ["gini", "entropy", "gain_ratio"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_to_depth_first(self, criterion, weighted):
        for name, X, y, n_classes, max_bins, kwargs, options in _builder_inputs():
            if criterion not in options.get("criteria", (criterion,)):
                continue
            w = (np.random.RandomState(1).rand(len(y)) if weighted
                 else np.ones(len(y)))
            if weighted and "zero_weight" in options:
                w[options["zero_weight"]] = 0.0
            binner = FeatureBinner(max_bins=max_bins).fit(X)
            Xb = binner.transform(X)
            level = build_tree(Xb, y, w, binner, n_classes=n_classes,
                               criterion=criterion, **kwargs)
            max_depth = kwargs["max_depth"]
            depth_first = _grow_depth_first(
                Xb, y, w, binner, n_classes, criterion,
                np.inf if max_depth is None else max_depth,
                kwargs["min_samples_split"], kwargs["min_samples_leaf"],
                kwargs["min_impurity_decrease"], bool(np.all(w == 1.0)),
                np.asarray(binner.n_bins_), max_features=None,
                random_state=None,
            )
            for attr in ("feature", "threshold", "children_left",
                         "children_right", "value", "n_node_samples",
                         "impurity"):
                assert np.array_equal(getattr(level, attr),
                                      getattr(depth_first, attr)), (name, attr)
            assert level.node_count > 1, name
            if name == "equal_gains":
                # Ties go to the earliest feature.
                assert not np.any(level.feature == 1)
            if name == "top_bin":
                # The all-top-bin rows end in an impure leaf.
                leaf = level.apply(X[:1])[0]
                assert level.feature[leaf] == -1 and level.impurity[leaf] > 0
            if name == "staircase" and not weighted:
                # Every internal node has a leaf child, 47 levels deep.
                internal = np.flatnonzero(level.feature != -1)
                assert level.max_depth == 47 and internal.size == 47
                assert np.all(
                    (level.feature[level.children_left[internal]] == -1)
                    | (level.feature[level.children_right[internal]] == -1)
                )
            if name == "large_min_split":
                # Most children are too small to split, yet still grow.
                parents = np.flatnonzero(level.feature != -1)
                small = level.n_node_samples < kwargs["min_samples_split"]
                assert small.sum() > parents.size // 2 and level.max_depth >= 3

    def test_zero_total_weight_root_is_a_uniform_leaf(self):
        """All-zero weights: the root has total weight 0, so both builders
        stop there with impurity 0 and the uniform distribution."""
        rng = np.random.RandomState(4)
        X = rng.randn(100, 2)
        y = (X[:, 0] > 0).astype(int)
        binner = FeatureBinner(max_bins=16).fit(X)
        Xb = binner.transform(X)
        w = np.zeros(100)
        level = build_tree(Xb, y, w, binner, n_classes=2)
        depth_first = _grow_depth_first(
            Xb, y, w, binner, 2, "gini", np.inf, 2, 1, 0.0, False,
            np.asarray(binner.n_bins_), max_features=None, random_state=None,
        )
        assert level.node_count == 1
        assert np.array_equal(level.value, [[0.5, 0.5]])
        for attr in ("feature", "threshold", "children_left",
                     "children_right", "value", "n_node_samples", "impurity"):
            assert np.array_equal(getattr(level, attr), getattr(depth_first, attr))

    def test_many_class_gini_still_levelwise_identical(self):
        """Gini impurity has no nonzero-compaction, so the level builder
        stays exact at any class count; entropy beyond 8 classes routes to
        the depth-first builder instead (pairwise-sum grouping)."""
        rng = np.random.RandomState(2)
        X = rng.randn(400, 3)
        y = rng.randint(0, 12, 400)
        w = np.ones(400)
        binner = FeatureBinner(max_bins=16).fit(X)
        Xb = binner.transform(X)
        level = build_tree(Xb, y, w, binner, n_classes=12, max_depth=5)
        depth_first = _grow_depth_first(
            Xb, y, w, binner, 12, "gini", 5, 2, 1, 0.0, True,
            np.asarray(binner.n_bins_), max_features=None, random_state=None,
        )
        assert np.array_equal(level.value, depth_first.value)
        assert np.array_equal(level.impurity, depth_first.impurity)

    def test_max_features_uses_depth_first_rng_order(self):
        """Feature-subsampled trees must keep the documented stack-order
        RNG consumption (regression pin for the forest path)."""
        rng = np.random.RandomState(0)
        X = rng.randn(200, 6)
        y = (X[:, 0] + X[:, 3] > 0).astype(int)
        a = DecisionTreeClassifier(max_features=2, random_state=5).fit(X, y)
        b = DecisionTreeClassifier(max_features=2, random_state=5).fit(X, y)
        assert np.array_equal(a.tree_.feature, b.tree_.feature)
        assert np.array_equal(a.tree_.threshold, b.tree_.threshold)


# --------------------------------------------------------------------- #
class TestPackedKernel:
    def test_apply_matches_tree_apply(self, rng):
        X = rng.randn(400, 3)
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        trees = [DecisionTreeClassifier(max_depth=d, random_state=d).fit(X, y)
                 for d in (1, 4, 8)]
        forest = PackedForest.from_estimators(trees, np.array([0, 1]))
        leaves = forest.apply(X)
        for t, est in enumerate(trees):
            # node ids are renumbered at pack time; the routed leaf values
            # must agree with the per-tree evaluation exactly
            assert np.array_equal(forest.value[leaves[t]], est.predict_proba(X))

    def test_fused_and_segmented_agree(self, rng, monkeypatch):
        """Small batches take the fused kernel, large the segmented one —
        force each shape over the same rows and check both against
        ``Tree.apply`` and the chunked per-tree probabilities."""
        import repro.fastpath.packed as packed_mod
        from repro.fastpath.packed import _level_order_adjacent

        X = rng.randint(-30, 30, (2000, 2)).astype(float)
        y = ((X[:, 0] > 0) ^ (rng.rand(2000) < 0.2)).astype(int)
        trees = [DecisionTreeClassifier(max_depth=6, random_state=s).fit(X, y)
                 for s in range(2)]
        # Deeper than the compaction interval, with ragged leaf depths.
        trees.append(DecisionTreeClassifier(random_state=0).fit(X, y))
        # Single-node tree (one class in its training labels).
        trees.append(DecisionTreeClassifier().fit(X[:50], np.zeros(50, int)))
        assert trees[3].tree_.node_count == 1
        leaf_depths = _node_depths(trees[2].tree_)[trees[2].tree_.feature == -1]
        assert leaf_depths.min() < packed_mod._COMPACT_LEVELS
        assert leaf_depths.max() > 2 * packed_mod._COMPACT_LEVELS
        forest = PackedForest.from_estimators(trees, np.array([0, 1]))

        X_nan = X[:300].copy()
        X_nan[::7, 0] = np.nan
        X_nan[::11, 1] = np.nan
        rows = np.vstack([X, X_nan])

        def expected(Z):
            out = []
            for t, est in enumerate(trees):
                _, new_id, _ = _level_order_adjacent(est.tree_)
                out.append(forest.roots[t] + new_id[est.tree_.apply(Z)])
            return np.array(out)

        want_rows = expected(rows)
        want_proba = ensemble_predict_proba(trees, X, np.array([0, 1]),
                                            packed="never")

        monkeypatch.setattr(packed_mod, "_SEGMENT_ROWS", 256)  # ragged chunks
        for fused_lanes in (1 << 30, 0):
            monkeypatch.setattr(packed_mod, "_FUSED_LANES", fused_lanes)
            assert np.array_equal(forest.apply(rows), want_rows), fused_lanes
            assert np.array_equal(forest.predict_proba(X), want_proba)


def _node_depths(tree):
    """Depth of every node of a :class:`Tree` (ids are preorder)."""
    depth = np.zeros(tree.node_count, dtype=int)
    for i in np.flatnonzero(tree.feature != -1):
        depth[tree.children_left[i]] = depth[tree.children_right[i]] = depth[i] + 1
    return depth


# --------------------------------------------------------------------- #
class TestInferencePayloads:
    def test_payload_registry_cleaned_up(self, rng):
        X = rng.randn(300, 2)
        y = (X[:, 0] > 0).astype(int)
        trees = [DecisionTreeClassifier(max_depth=2, random_state=s).fit(X, y)
                 for s in range(3)]
        for backend in ("serial", "thread", "process"):
            ensemble_predict_proba(
                trees, X, np.array([0, 1]), packed="never",
                backend=backend, n_jobs=2, chunk_size=64,
            )
            assert not _SHARED_PAYLOADS, backend

    def test_process_backend_tasks_carry_no_estimators(self, rng):
        """Task payloads carry only (key, block id, row chunk) — estimators
        travel once per worker through the pool initializer, and a worker
        never receives more than one chunk of the matrix per task."""
        import pickle

        from repro.parallel import inference

        X = rng.randn(500, 2)
        y = (X[:, 0] > 0).astype(int)
        trees = [DecisionTreeClassifier(max_depth=3, random_state=s).fit(X, y)
                 for s in range(9)]
        seen = []
        original = inference.parallel_map

        def spy(fn, tasks, **kwargs):
            seen.append((list(tasks), kwargs))
            return original(fn, tasks, **kwargs)

        inference.parallel_map = spy
        try:
            ensemble_predict_proba(
                trees, X, np.array([0, 1]), packed="never", chunk_size=100
            )
        finally:
            inference.parallel_map = original
        tasks, kwargs = seen[0]
        assert len(tasks) == 5 * 2  # 5 row spans x 2 estimator blocks
        chunk_bytes = 100 * 2 * 8
        for task in tasks:
            assert len(pickle.dumps(task)) < chunk_bytes + 500  # no estimators
        assert kwargs["initializer"] is not None

    def test_executor_initializer_runs_on_serial_path(self):
        state = {}
        parallel_map(
            lambda t: state["k"] + t, [1, 2], backend="serial",
            initializer=lambda v: state.__setitem__("k", v), initargs=(10,),
        )

    def test_packed_path_rejects_non_finite_like_chunked(self, rng):
        """The packed path must not silently accept rows the chunked path
        rejects — NaN input raises the same validation error on both."""
        from repro.exceptions import DataValidationError

        X = rng.randn(50, 2)
        y = (X[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        X_bad = X.copy()
        X_bad[3, 1] = np.nan
        for packed in ("auto", "never"):
            with pytest.raises(DataValidationError):
                ensemble_predict_proba(
                    [tree], X_bad, np.array([0, 1]), packed=packed
                )

    @pytest.mark.parametrize("shape", [(50,), (2, 50, 2)])
    def test_packed_path_rejects_non_matrix_like_chunked(self, rng, shape):
        """1-D and 3-D input raise the same typed error on both paths."""
        from repro.exceptions import DataValidationError

        X = rng.randn(50, 2)
        tree = DecisionTreeClassifier(max_depth=2).fit(X, X[:, 0] > 0)
        for packed in ("auto", "never"):
            with pytest.raises(DataValidationError):
                ensemble_predict_proba(
                    [tree], rng.randn(*shape), np.array([False, True]),
                    packed=packed,
                )

    def test_pack_cache_entries_die_with_the_ensemble(self, rng):
        """The weak-keyed pack cache must not keep estimators alive."""
        import gc
        import weakref

        X = rng.randn(60, 2)
        y = (X[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        ensemble_predict_proba([tree], X, np.array([0, 1]))
        ref = weakref.ref(tree)
        del tree
        gc.collect()
        assert ref() is None

