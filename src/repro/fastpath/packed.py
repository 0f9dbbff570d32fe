"""Packed-forest inference kernel.

``PackedForest`` flattens every fitted :class:`repro.tree.Tree` of an
ensemble into one set of contiguous node arrays

::

    feature   int64  (n_nodes,)   split feature, -1 for leaves
    threshold float64(n_nodes,)   raw-value split threshold (x < t goes left)
    left      int64  (n_nodes,)   left-child node id; right child is left+1
    value     float64(n_nodes, C) leaf class distribution, already scattered
                                  into the ensemble's full class space
    roots     int64  (n_trees,)   node id of each tree's root
    depth     int64  (n_trees,)   depth of each tree

Nodes are renumbered level-by-level at pack time so each internal node's
children sit at consecutive ids: one traversal step is a single child
gather plus a boolean add (``left[cur] + (x >= t)``) instead of two gathers
and a select. All index arrays are int64 — numpy silently *copies* narrower
index arrays to ``intp`` on every fancy-indexing call, which erases any
cache win from smaller dtypes.

Evaluation is level-synchronous and picks its shape by size. Small
batches fuse all trees into one ``(tree, row)`` lane vector and compact
finished lanes every level (python-call overhead is paid per *level*, the
serving-latency regime). Large batches walk one tree at a time over
cache-sized row chunks (the bulk-throughput regime). Each (tree, row chunk)
pair is an independent job writing its own slice of the output, so the
jobs run on every CPU through :func:`repro.utils.kernel_pool.kernel_map`;
rows are split evenly, and into at least as many jobs as the pool has
threads. The segmented walk lets leaves loop on themselves: at pack time
every leaf gets step feature 0, step left ``leaf - 1`` and threshold NaN,
which no comparison satisfies, so a finished lane goes "right" back to its
leaf. Lanes then step with no per-level bookkeeping;
finished lanes are dropped only every :data:`_COMPACT_LEVELS` levels, and
each step gathers the lane's value with a 1-D ``take`` on the row-major
chunk.

Bit-identity: routing uses the same ``x < threshold`` comparisons as
:meth:`repro.tree.Tree.apply` (NaN falls right in both, and a NaN row
reaching a leaf self-loops like any other), leaf lookup is
arithmetic-free, and :meth:`PackedForest.proba_from_leaves` replays the
chunked accumulation order of :func:`repro.parallel.ensemble_predict_proba`
exactly — trees summed sequentially inside fixed blocks of
:data:`ESTIMATOR_BLOCK`, block partials reduced in block order, one final
division — so the probabilities match the per-tree path bit for bit
(gated by ``tests/test_fastpath_equivalence.py``).

The same kernel serves every caller: ``predict_proba``, serving batches,
and the SPE fit loop's per-iteration majority scoring all reach it through
:func:`repro.parallel.ensemble_predict_proba`. :func:`cached_packed_ensemble`
keeps each ensemble's forest packed across those calls, and
:func:`warm_serving_pack` fills that cache before a model takes traffic.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence

import numpy as np

from ..tree._tree import Tree
from ..utils.kernel_pool import available_cpus, kernel_map

__all__ = [
    "ESTIMATOR_BLOCK",
    "PackedForest",
    "cached_packed_ensemble",
    "trees_of",
    "warm_serving_pack",
]

#: Estimators per accumulation block. Must match the chunked engine
#: (:mod:`repro.parallel.inference` imports it from here) so the two paths
#: share one floating-point reduction order.
ESTIMATOR_BLOCK = 8

#: Below this many (tree, row) lanes the fused all-trees kernel wins (lane
#: state cache-resident, python overhead paid once per level); above it the
#: tree-segmented kernel wins (sequential row gathers).
_FUSED_LANES = 1 << 15

#: Row chunk of the segmented kernel, sized so a chunk's lane state stays
#: cache-resident.
_SEGMENT_ROWS = 1 << 15

#: Levels the segmented kernel steps between compactions of its lanes.
_COMPACT_LEVELS = 6

_LEAF = -1


def _row_step(n: int, n_trees: int) -> int:
    """Rows per segmented job: at most :data:`_SEGMENT_ROWS`, split evenly,
    and with enough chunks per tree that a forest of fewer trees than
    kernel-pool threads still gives every thread an equal share."""
    per_tree = -(-available_cpus() // n_trees)
    chunks = -(-n // _SEGMENT_ROWS)
    chunks = min(n, -(-chunks // per_tree) * per_tree)
    return -(-n // chunks)


def trees_of(estimators: Sequence) -> Optional[List[Tree]]:
    """The fitted :class:`Tree` of every estimator, or ``None`` if any
    member is not a single-tree classifier (the packed fast path then
    falls back to the generic per-estimator loop)."""
    trees = []
    for est in estimators:
        tree = getattr(est, "tree_", None)
        if not isinstance(tree, Tree):
            return None
        trees.append(tree)
    return trees


def _level_order_adjacent(tree: Tree):
    """Breadth-first node order with sibling-adjacent children.

    Returns ``(order, new_id, depth)`` — new→old and old→new id maps and
    the tree's depth. Built one level at a time with vectorised
    interleaving, so the python cost is O(depth), not O(nodes).
    """
    n = tree.node_count
    order = np.empty(n, dtype=np.int64)
    new_id = np.empty(n, dtype=np.int64)
    level = np.zeros(1, dtype=np.int64)  # old ids of the current level
    filled = 0
    depth = -1
    while level.size:
        depth += 1
        order[filled : filled + level.size] = level
        new_id[level] = np.arange(filled, filled + level.size)
        filled += level.size
        internal = level[tree.feature[level] != _LEAF]
        nxt = np.empty(2 * internal.size, dtype=np.int64)
        nxt[0::2] = tree.children_left[internal]
        nxt[1::2] = tree.children_right[internal]
        level = nxt
    return order, new_id, depth


class PackedForest:
    """Contiguous node-array representation of a fitted tree ensemble."""

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        depth: np.ndarray,
        n_features: int,
    ):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.value = value
        self.roots = roots
        self.depth = depth
        self.n_features = n_features
        # Self-looping leaves for the segmented kernel (module docstring).
        self._is_leaf = feature == _LEAF
        self._step_feature = np.where(self._is_leaf, 0, feature)
        self._step_left = np.where(
            self._is_leaf, np.arange(len(feature), dtype=np.int64) - 1, left
        )
        self._leaf_keyed_threshold = np.where(self._is_leaf, np.nan, threshold)

    @property
    def n_trees(self) -> int:
        """Number of packed trees."""
        return len(self.roots)

    @property
    def n_classes(self) -> int:
        """Number of classes."""
        return self.value.shape[1]

    # ------------------------------------------------------------------ #
    @classmethod
    def from_trees(
        cls,
        trees: Sequence[Tree],
        column_maps: Sequence[Sequence[int]],
        n_classes: int,
        n_features: int,
    ) -> "PackedForest":
        """Pack fitted trees; ``column_maps[t]`` scatters tree ``t``'s local
        class columns into the ensemble's full class space (a tree fitted on
        a single-class subset contributes one column, the rest stay zero)."""
        if not trees:
            raise ValueError("PackedForest requires at least one tree")
        counts = [t.node_count for t in trees]
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
        total = int(sum(counts))
        feature = np.empty(total, dtype=np.int64)
        threshold = np.empty(total, dtype=np.float64)
        left = np.full(total, _LEAF, dtype=np.int64)
        value = np.zeros((total, n_classes), dtype=np.float64)
        depth = np.empty(len(trees), dtype=np.int64)
        for t, (tree, off) in enumerate(zip(trees, offsets)):
            order, new_id, depth[t] = _level_order_adjacent(tree)
            hi = off + tree.node_count
            feature[off:hi] = tree.feature[order]
            threshold[off:hi] = tree.threshold[order]
            internal = tree.feature[order] != _LEAF
            left[off:hi][internal] = new_id[tree.children_left[order][internal]] + off
            cols = np.asarray(column_maps[t], dtype=np.int64)
            value[off:hi, cols] = tree.value[order]
        return cls(feature, threshold, left, value, roots=offsets,
                   depth=depth, n_features=n_features)

    @classmethod
    def from_estimators(cls, estimators: Sequence, classes: np.ndarray):
        """Pack fitted tree classifiers, or return ``None`` when the
        ensemble is not packable (non-tree member, unknown class, or
        inconsistent feature counts — the caller then uses the chunked
        path, which also owns the error reporting for those cases)."""
        trees = trees_of(estimators)
        if trees is None:
            return None
        class_pos = {c: i for i, c in enumerate(np.asarray(classes).tolist())}
        column_maps = []
        n_features = getattr(estimators[0], "n_features_in_", None)
        for est in estimators:
            if getattr(est, "n_features_in_", None) != n_features:
                return None
            try:
                column_maps.append([class_pos[c] for c in est.classes_.tolist()])
            except (KeyError, AttributeError):
                return None
        if n_features is None:
            return None
        return cls.from_trees(trees, column_maps, len(class_pos), int(n_features))

    # ------------------------------------------------------------------ #
    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id (packed space) of every row in every tree,
        ``(n_trees, n)`` int64; routing decisions are the exact
        ``X[row, feature] < threshold`` comparisons of :meth:`Tree.apply`."""
        matrix = np.ascontiguousarray(X, dtype=np.float64)
        n = matrix.shape[0]
        feature, left, roots = self.feature, self.left, self.roots
        threshold = self.threshold
        if self.n_trees * n <= _FUSED_LANES:
            # Fused: one lane vector over all trees, python cost per level.
            node = np.repeat(roots, n)
            rows = np.tile(np.arange(n, dtype=np.int64), self.n_trees)
            active = np.flatnonzero(feature[node] != _LEAF)
            while active.size:
                cur = node[active]
                go_left = matrix[rows[active], feature[cur]] < threshold[cur]
                nxt = left[cur] + ~go_left
                node[active] = nxt
                active = active[feature[nxt] != _LEAF]
            return node.reshape(self.n_trees, n)
        # Segmented: one (tree, row chunk) job at a time, leaves looping on
        # themselves so lanes are compacted every few levels, not every one.
        # Jobs write disjoint slices of ``out`` and run on the kernel pool.
        out = np.empty((self.n_trees, n), dtype=np.int64)
        step = _row_step(n, self.n_trees)
        jobs = [
            (t, lo, min(lo + step, n))
            for t in range(self.n_trees)
            for lo in range(0, n, step)
        ]
        kernel_map(lambda job: self._walk(matrix, out, *job), jobs)
        return out

    def _walk(self, matrix, out, t: int, lo: int, hi: int) -> None:
        """Segmented kernel: route rows ``lo:hi`` through tree ``t`` into
        ``out[t, lo:hi]``."""
        step_feature, step_left = self._step_feature, self._step_left
        keys = self._leaf_keyed_threshold
        levels = min(_COMPACT_LEVELS, int(self.depth[t]))
        flat = matrix[lo:hi].ravel()
        lane = np.arange(hi - lo, dtype=np.int64)
        offset = lane * matrix.shape[1]
        node = np.full(hi - lo, self.roots[t], dtype=np.int64)
        dest = out[t, lo:hi]
        while node.size:
            for _ in range(levels):
                x = np.take(flat, offset + np.take(step_feature, node))
                node = np.take(step_left, node) + ~(x < np.take(keys, node))
            done = self._is_leaf[node]
            dest[lane[done]] = node[done]
            live = ~done
            node, lane, offset = node[live], lane[live], offset[live]

    # ------------------------------------------------------------------ #
    def proba_from_leaves(self, leaves: np.ndarray) -> np.ndarray:
        """Average class distribution, replaying the chunked reduction order:
        sequential in-block sums, then block partials in block order, then
        one division by the tree count."""
        n = leaves.shape[1]
        partials = []
        for blk_start in range(0, self.n_trees, ESTIMATOR_BLOCK):
            part = np.zeros((n, self.n_classes))
            for t in range(blk_start, min(blk_start + ESTIMATOR_BLOCK, self.n_trees)):
                part += np.take(self.value, leaves[t], axis=0)
            partials.append(part)
        total = partials[0]
        for extra in partials[1:]:
            total = total + extra
        return total / self.n_trees

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        return self.proba_from_leaves(self.apply(X))


#: first estimator -> (other members, trees, classes key, forest). The
#: entry must NOT hold a strong reference to the key itself (a
#: WeakKeyDictionary value that references its key is immortal), so the
#: first estimator is stored only implicitly as the key; the remaining
#: members and every fitted Tree are held strongly, which keeps the
#: identity checks valid for exactly as long as the entry is reachable.
_PACK_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def cached_packed_ensemble(
    estimators: Sequence, classes: np.ndarray
) -> Optional[PackedForest]:
    """The ensemble's :class:`PackedForest`, cached across calls, or
    ``None`` when the ensemble is not packable.

    Keyed weakly by the first estimator and revalidated by identity
    against every member and its fitted ``tree_``, so refitting any member
    rebuilds the pack."""
    est0 = estimators[0]
    classes_key = tuple(np.asarray(classes).tolist())
    trees = tuple(getattr(est, "tree_", None) for est in estimators)
    try:
        entry = _PACK_CACHE.get(est0)
    except TypeError:  # unhashable / non-weakrefable estimator type
        entry = None
    if entry is not None:
        others, cached_trees, cached_classes, forest = entry
        if (
            cached_classes == classes_key
            and len(others) == len(estimators) - 1
            and all(a is b for a, b in zip(others, estimators[1:]))
            and all(a is b for a, b in zip(cached_trees, trees))
        ):
            return forest
    forest = PackedForest.from_estimators(estimators, classes)
    if forest is None:
        return None
    try:
        _PACK_CACHE[est0] = (tuple(estimators[1:]), trees, classes_key, forest)
    except TypeError:
        pass
    return forest


def warm_serving_pack(model) -> bool:
    """Eagerly build (and cache) a model's packed forest; ``True`` when one
    now serves it.

    Uses the model's ``__serving_ensemble__`` hook — the exact
    ``(estimators, classes)`` pair ``predict_proba`` feeds to the pack
    cache — so the warmed entry is the one every later request hits.
    ``False`` when the model has no hook or its members are not packable;
    callers then serve through the model's normal path. This is the
    pre-build step of both :class:`~repro.serving.ModelServer`
    construction and :meth:`~repro.serving.ModelServer.swap_model` — the
    swap packs the challenger *before* flipping the active model, so no
    in-flight request ever waits on a re-pack.
    """
    hook = getattr(model, "__serving_ensemble__", None)
    if hook is None:
        return False
    estimators, classes = hook()
    return cached_packed_ensemble(list(estimators), classes) is not None
