"""Array-backed decision tree structure and its two builders."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .. import telemetry
from ..utils.validation import check_random_state
from ._binning import FeatureBinner
from ._criterion import _row_sum, node_impurity, split_gain

__all__ = ["Tree", "build_tree"]

_LEAF = -1


@dataclass
class Tree:
    """Flat-array decision tree.

    ``feature[i] == -1`` marks node ``i`` as a leaf. Internal nodes route a
    sample left when ``x[feature[i]] < threshold[i]``. ``value`` holds the
    (normalised) class-weight distribution of training samples per node.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children_left: np.ndarray
    children_right: np.ndarray
    value: np.ndarray
    n_node_samples: np.ndarray
    impurity: np.ndarray
    n_classes: int

    @property
    def node_count(self) -> int:
        return len(self.feature)

    @property
    def max_depth(self) -> int:
        depth = np.zeros(self.node_count, dtype=int)
        for i in range(self.node_count):
            for child in (self.children_left[i], self.children_right[i]):
                if child != _LEAF:
                    depth[child] = depth[i] + 1
        return int(depth.max()) if self.node_count else 0

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of raw (un-binned) ``X``."""
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int64)
        while True:
            active = np.flatnonzero(self.feature[node] != _LEAF)
            if active.size == 0:
                break
            cur = node[active]
            feat = self.feature[cur]
            go_left = X[active, feat] < self.threshold[cur]
            node[active] = np.where(
                go_left, self.children_left[cur], self.children_right[cur]
            )
        return node

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        leaves = self.apply(X)
        return self.value[leaves]


@dataclass
class _NodeRecord:
    indices: np.ndarray
    depth: int
    parent: int
    is_left: bool


@dataclass
class _Growing:
    feature: List[int] = field(default_factory=list)
    threshold: List[float] = field(default_factory=list)
    left: List[int] = field(default_factory=list)
    right: List[int] = field(default_factory=list)
    value: List[np.ndarray] = field(default_factory=list)
    n_samples: List[int] = field(default_factory=list)
    impurity: List[float] = field(default_factory=list)

    def add(self, value: np.ndarray, n_samples: int, impurity: float) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(value)
        self.n_samples.append(n_samples)
        self.impurity.append(impurity)
        return len(self.feature) - 1


def _stacked_class_histograms(
    codes: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    n_bins: int,
    n_classes: int,
    uniform_weight: bool,
):
    """Weighted and unweighted (features, bins, classes) histograms.

    One ``bincount`` covers every candidate feature at once: entry
    ``(k, b, c)`` accumulates the rows whose code on feature ``k`` is ``b``
    and whose class is ``c``. Rows are visited in ascending order per
    (feature, bin, class) cell — the same float accumulation order as a
    per-feature ``bincount`` — so the histograms are bit-identical to the
    historical per-feature pass. With uniform weights the weighted histogram
    *is* the integer count histogram (sums of 1.0 are exact), so only one
    ``bincount`` runs.
    """
    m, n_features = codes.shape
    stride = n_bins * n_classes
    idx = codes.astype(np.int64) * n_classes
    idx += y[:, None]
    idx += np.arange(n_features, dtype=np.int64) * stride
    idx = idx.ravel()
    total = n_features * stride
    counts = np.bincount(idx, minlength=total)
    if uniform_weight:
        weighted = counts.astype(np.float64)
    else:
        weighted = np.bincount(idx, weights=np.repeat(w, n_features), minlength=total)
    shape = (n_features, n_bins, n_classes)
    return weighted.reshape(shape), counts.reshape(shape)


def build_tree(
    X_binned: np.ndarray,
    y_encoded: np.ndarray,
    sample_weight: np.ndarray,
    binner: FeatureBinner,
    *,
    n_classes: int,
    criterion: str = "gini",
    max_depth: Optional[int] = None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    min_impurity_decrease: float = 0.0,
    max_features: Optional[int] = None,
    random_state=None,
) -> Tree:
    """Grow a tree on pre-binned data.

    ``max_features`` (when set below the feature count) samples that many
    candidate features per node without replacement — the randomisation
    Random Forest relies on — and grows depth-first, consuming the RNG in
    stack order. Without feature subsampling there is no per-node
    randomness, and the tree is grown level-synchronously instead: one
    histogram ``bincount``, one vectorised gain evaluation and one row
    routing pass per *level* covering every frontier node at once, then
    placed at the exact depth-first node ids the stack builder would have
    produced. Both builders emit bit-identical trees, weighted or not
    (pinned by ``tests/test_fastpath_units.py``): a child's class counts
    are taken from its parent's histogram, which is exact for integers
    and — with uniform weights — for the class weights too, while
    weighted trees sum class weights with a ``bincount`` over the routed
    rows in the stack builder's row order.

    One carve-out keeps that guarantee exact: entropy-family node impurity
    compacts to the nonzero class probabilities before summing, and
    numpy's pairwise reduction only matches that grouping bitwise for
    vectors of at most 8 entries — so entropy/gain-ratio trees with more
    than 8 classes stay on the depth-first builder.
    """
    n_features = X_binned.shape[1]
    max_depth = np.inf if max_depth is None else max_depth
    # Sums of unit weights are exact, so the weighted histogram equals the
    # count histogram bit for bit and one bincount per node can be skipped.
    uniform_weight = bool(np.all(sample_weight == 1.0))
    n_bins_all = np.asarray(binner.n_bins_, dtype=np.int64)
    args = (
        X_binned, y_encoded, sample_weight, binner, n_classes, criterion,
        max_depth, min_samples_split, min_samples_leaf,
        min_impurity_decrease, uniform_weight, n_bins_all,
    )
    subsampling = max_features is not None and max_features < n_features
    if subsampling or (criterion != "gini" and n_classes > 8):
        return _grow_depth_first(*args, max_features=max_features,
                                 random_state=random_state)
    return _grow_level_synchronous(*args)


def _grow_depth_first(
    X_binned: np.ndarray,
    y_encoded: np.ndarray,
    sample_weight: np.ndarray,
    binner: FeatureBinner,
    n_classes: int,
    criterion: str,
    max_depth,
    min_samples_split: int,
    min_samples_leaf: int,
    min_impurity_decrease: float,
    uniform_weight: bool,
    n_bins_all: np.ndarray,
    *,
    max_features: Optional[int],
    random_state,
) -> Tree:
    """Stack-based builder (the reference semantics; used when per-node
    feature subsampling needs the documented RNG consumption order)."""
    rng = check_random_state(random_state)
    n_features = X_binned.shape[1]
    grow = _Growing()
    stack: List[_NodeRecord] = [
        _NodeRecord(np.arange(X_binned.shape[0]), 0, _LEAF, False)
    ]

    while stack:
        rec = stack.pop()
        idx = rec.indices
        y_node = y_encoded[idx]
        if uniform_weight:
            w_node = None  # histograms come from integer counts alone
            class_w = np.bincount(y_node, minlength=n_classes).astype(np.float64)
        else:
            w_node = sample_weight[idx]
            class_w = np.bincount(y_node, weights=w_node, minlength=n_classes)
        total_w = np.add.reduce(class_w)
        imp = node_impurity(class_w, criterion)
        dist = class_w / total_w if total_w > 0 else np.full(n_classes, 1.0 / n_classes)
        node_id = grow.add(dist, len(idx), imp)
        if rec.parent != _LEAF:
            if rec.is_left:
                grow.left[rec.parent] = node_id
            else:
                grow.right[rec.parent] = node_id

        if (
            rec.depth >= max_depth
            or len(idx) < min_samples_split
            or imp <= 1e-12
        ):
            continue

        if max_features is not None and max_features < n_features:
            features = rng.choice(n_features, size=max_features, replace=False)
        else:
            features = np.arange(n_features)

        # Vectorised split search: one stacked histogram and one gain
        # evaluation cover every candidate feature. ``n_bins`` is padded to
        # the widest candidate feature; a feature's phantom bins hold no
        # samples, so their candidates put everything left (empty right
        # side) and split_gain masks them to -inf — exactly the candidates
        # the per-feature loop never generated. Flat row-major argmax over
        # (feature-in-draw-order, code) reproduces the loop's tie-breaking:
        # earliest drawn feature, then lowest code, strictly-greater gains.
        codes_node = X_binned[idx]
        n_bins = int(n_bins_all[features].max()) if len(features) else 0
        if n_bins < 2:
            continue
        weighted, counts = _stacked_class_histograms(
            codes_node[:, features], y_node, w_node, n_bins, n_classes,
            uniform_weight,
        )
        left_w = weighted.cumsum(axis=1)[:, :-1, :]
        right_w = class_w[None, None, :] - left_w
        gains = split_gain(
            left_w.reshape(-1, n_classes),
            right_w.reshape(-1, n_classes),
            imp,
            criterion,
        )
        n_left = np.add.reduce(counts, axis=2).cumsum(axis=1)[:, :-1].ravel()
        n_right = len(idx) - n_left
        gains[(n_left < min_samples_leaf) | (n_right < min_samples_leaf)] = -np.inf
        best_flat = int(gains.argmax())
        best_gain = gains[best_flat]
        if not (best_gain > -np.inf) or best_gain <= min_impurity_decrease + 1e-12:
            continue
        best_feature = int(features[best_flat // (n_bins - 1)])
        best_code = best_flat % (n_bins - 1)

        grow.feature[node_id] = best_feature
        grow.threshold[node_id] = binner.threshold_value(best_feature, best_code)
        go_left = codes_node[:, best_feature] <= best_code
        # Push right first so left is processed next (cosmetic: left-to-right ids).
        stack.append(_NodeRecord(idx[~go_left], rec.depth + 1, node_id, False))
        stack.append(_NodeRecord(idx[go_left], rec.depth + 1, node_id, True))

    return Tree(
        feature=np.asarray(grow.feature, dtype=np.int64),
        threshold=np.asarray(grow.threshold, dtype=np.float64),
        children_left=np.asarray(grow.left, dtype=np.int64),
        children_right=np.asarray(grow.right, dtype=np.int64),
        value=np.asarray(grow.value, dtype=np.float64),
        n_node_samples=np.asarray(grow.n_samples, dtype=np.int64),
        impurity=np.asarray(grow.impurity, dtype=np.float64),
        n_classes=n_classes,
    )


def _node_impurity_rows(
    class_w: np.ndarray, total_w: np.ndarray, criterion: str
) -> np.ndarray:
    """Row-wise :func:`node_impurity` — identical per-row float ops."""
    safe = np.where(total_w > 0, total_w, 1.0)
    p = class_w / safe[:, None]
    if criterion == "gini":
        imp = 1.0 - _row_sum(p * p)
    else:
        # log2 of the *actual* probability (node_impurity does not clamp);
        # zero entries contribute exact 0.0 terms, which cannot change any
        # pairwise partial sum.
        logp = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
        imp = -_row_sum(p * logp)
    imp[total_w <= 0] = 0.0
    return imp


def _level_node_stats(class_w: np.ndarray, criterion: str):
    """Impurity and leaf distribution of a level's nodes — the same
    per-row float ops the stack builder applies to one node."""
    total_w = _row_sum(class_w)
    imp = _node_impurity_rows(class_w, total_w, criterion)
    dist = class_w / np.where(total_w > 0, total_w, 1.0)[:, None]
    dist[total_w <= 0] = 1.0 / class_w.shape[1]
    return imp, dist


def _splittable(m_node, imp, depth, max_depth, min_samples_split) -> np.ndarray:
    """Level indices of the nodes the stack builder would try to split."""
    if depth >= max_depth:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero((m_node >= min_samples_split) & (imp > 1e-12))


def _grow_level_synchronous(
    X_binned: np.ndarray,
    y_encoded: np.ndarray,
    sample_weight: np.ndarray,
    binner: FeatureBinner,
    n_classes: int,
    criterion: str,
    max_depth,
    min_samples_split: int,
    min_samples_leaf: int,
    min_impurity_decrease: float,
    uniform_weight: bool,
    n_bins_all: np.ndarray,
) -> Tree:
    """Grow all frontier nodes of a level together, then renumber to the
    depth-first ids of the stack builder.

    Per level, one ``bincount`` over ``(node, feature, bin, class)`` builds
    every splittable node's histograms at once and one :func:`split_gain`
    call scores every candidate of every node, so python/numpy dispatch
    cost is paid per level instead of per node. Past the histogram, each
    level makes one routing pass over its live rows that sends each row
    to its child and drops the rows of children that cannot split. Live rows carry one histogram offset per feature,
    ``(f * B + code) * C + class``, so a level's cell index is that offset
    plus the row's slot term, and slots number only splittable nodes.

    The split search is sparse: a code is scored only where its bin holds
    rows of that node (on a 160k-row checkerboard tree, 32k of the 897k
    dense ``(node, feature, code)`` candidates), and each node takes
    the *first* maximum of a segmented argmax over its candidates in
    row-major ``(feature, code)`` order. This is exact: a code on an empty
    bin repeats the partition — hence every gain bit — of the last
    non-empty code below it, which comes first in that order, so the
    earliest-feature/lowest-code tie-break of the dense search is kept.

    A child's integer class counts come from its parent's histogram: left
    is the cumulative count up to the chosen cell, right is the parent
    minus left. Integers are exact, and with uniform weights the class
    weights *are* those counts as floats (sums of 1.0 are exact), so they
    equal the stack builder's per-node ``bincount``. Non-uniform weights
    keep a weighted ``bincount`` of the routed rows for the class sums,
    because a cumulative float sum groups additions differently.

    Node arrays are built per level and placed at their depth-first
    (preorder) ids at the end: subtree sizes are summed bottom-up level by
    level, then a left child's id is its parent's plus one and a right
    child's is that plus the left subtree's size.

    Bit-identity with the stack builder: live rows stay in ascending
    order (filtering never reorders), and histogram cells are filled
    feature by feature, so every cell and every weighted class sum
    accumulates the same float sequence the per-node ``bincount`` does;
    gains and impurities are evaluated row-wise (same elementwise ops);
    the tie-break above matches the stack builder's flat argmax; and the
    preorder ids are the ones the depth-first stack assigns.
    """
    n_rows, n_features = X_binned.shape
    C = n_classes
    F = n_features
    B = int(n_bins_all.max()) if F else 0
    FBC = F * B * C
    # Thresholds of every (feature, code) split, padded to the widest
    # feature; a chosen code is never a feature's top bin.
    edge_table = np.zeros((F, max(B - 1, 1)))
    for f in range(F):
        edges = binner.edges_[f]
        edge_table[f, : len(edges)] = edges

    # Live rows: histogram offsets (feature-major, so each feature's rows
    # stay contiguous and ascending) and, for weighted trees, the class
    # and weight each weighted bincount needs.
    off = np.ascontiguousarray(X_binned.T, dtype=np.int64)
    off *= C
    off += (np.arange(F, dtype=np.int64) * (B * C))[:, None]
    off += y_encoded
    if not uniform_weight:
        y_live = np.asarray(y_encoded, dtype=np.int64)
        w_live = sample_weight
    slots = np.zeros(n_rows, dtype=np.int64)
    row_ids = np.arange(n_rows)

    counts = np.bincount(y_encoded, minlength=C)[None, :]
    if uniform_weight:
        class_w = counts.astype(np.float64)
    else:
        class_w = np.bincount(y_encoded, weights=sample_weight, minlength=C)[None, :]
    m_node = _row_sum(counts)
    imp, dist = _level_node_stats(class_w, criterion)
    eligible = _splittable(m_node, imp, 0, max_depth, min_samples_split)
    if B < 2:  # no feature has a split point
        eligible = eligible[:0]

    # Per level: (distribution, rows, impurity) of its nodes; and for every
    # level but the last, (split nodes' level indices, feature, threshold).
    # Children of the k-th split node are nodes 2k and 2k + 1 of the next
    # level.
    levels = []
    splits = []

    # Per-level stage timing: the watch is observed at the top of the
    # next level (and once after the loop), so every exit path — normal
    # depletion or any of the early breaks — closes the last level.
    level_hist = telemetry.stage_histogram("tree_level")
    level_watch = None
    depth = 0
    while True:
        if level_watch is not None:
            level_watch.observe(level_hist)
        level_watch = telemetry.stopwatch()
        levels.append((dist, m_node, imp))
        if eligible.size == 0:
            break
        E = eligible.size
        n_live = off.shape[1]

        # One histogram over every (node, feature, bin, class) cell; cell
        # ``(e * F + f) * B + b`` holds node e's rows with code b on f.
        hist_idx = off + slots * FBC
        hist_idx = hist_idx.ravel()
        n_cells = E * F * B
        cell_counts = np.bincount(hist_idx, minlength=n_cells * C).reshape(n_cells, C)
        n_cell = _row_sum(cell_counts).reshape(E * F, B)
        # Sparse candidates: code b is scored only when bin b holds rows of
        # the node (and b is not the top bin, which puts every row left).
        occupied = n_cell > 0
        occupied[:, -1] = False
        cand = np.flatnonzero(occupied)
        if cand.size == 0:
            break
        cum_counts = cell_counts.reshape(E * F, B, C).cumsum(axis=1).reshape(n_cells, C)
        left_counts = cum_counts[cand]
        n_left = _row_sum(left_counts)
        if uniform_weight:
            left_w = left_counts.astype(np.float64)
        else:
            weighted = np.bincount(
                hist_idx, weights=np.tile(w_live, F), minlength=n_cells * C
            ).reshape(E * F, B, C)
            left_w = weighted.cumsum(axis=1).reshape(n_cells, C)[cand]
        e_of = cand // (F * B)
        gains = split_gain(
            left_w,
            class_w[eligible][e_of] - left_w,
            imp[eligible][e_of],
            criterion,
        )
        n_right = m_node[eligible][e_of] - n_left
        gains[(n_left < min_samples_leaf) | (n_right < min_samples_leaf)] = -np.inf
        # Segmented argmax taking each node's *first* maximum; candidates
        # are in (node, feature, code) row-major order.
        n_cand = np.bincount(e_of, minlength=E)
        has = n_cand > 0
        best_gain = np.full(E, -np.inf)
        best_gain[has] = np.maximum.reduceat(gains, (np.cumsum(n_cand) - n_cand)[has])
        hit = np.flatnonzero(gains == best_gain[e_of])
        hit_node = e_of[hit]
        first = hit[np.concatenate(([True], hit_node[1:] != hit_node[:-1]))]
        best_cell = np.zeros(E, dtype=np.int64)
        best_cell[e_of[first]] = cand[first]
        ok = best_gain > min_impurity_decrease + 1e-12
        split = eligible[ok]
        K = split.size
        if K == 0:
            break

        cell = best_cell[ok]
        best_feature = cell // B % F
        best_code = cell % B
        splits.append((split, best_feature, edge_table[best_feature, best_code]))

        # Children, interleaved left/right: counts from the histogram.
        child_counts = np.empty((2 * K, C), dtype=np.int64)
        child_counts[0::2] = cum_counts[cell]
        child_counts[1::2] = counts[split] - child_counts[0::2]
        counts = child_counts
        m_node = _row_sum(counts)
        depth += 1

        # Routing table over the chosen feature's cells of each split
        # node: cell (e, f*, b, c) -> left child when b <= code, else
        # right. Rows of eligible nodes that did not split read the
        # default entry.
        cell_base = np.flatnonzero(ok) * FBC + best_feature * (B * C)
        goes_right = (np.arange(B * C) // C)[None, :] > best_code[:, None]
        route_cells = (cell_base[:, None] + np.arange(B * C)).ravel()
        child_of = (2 * np.arange(K)[:, None] + goes_right).ravel()
        # The cell each live row occupies on its node's chosen feature.
        pick_feature = np.zeros(E, dtype=np.int64)
        pick_feature[ok] = best_feature * n_live
        pick = pick_feature[slots]
        pick += row_ids[:n_live]
        pick = np.take(hist_idx, pick)

        if uniform_weight:
            class_w = counts.astype(np.float64)
            imp, dist = _level_node_stats(class_w, criterion)
            eligible = _splittable(m_node, imp, depth, max_depth, min_samples_split)
            if eligible.size == 0:
                continue
            slot_of_child = np.full(2 * K, _LEAF, dtype=np.int64)
            slot_of_child[eligible] = np.arange(eligible.size)
            table = np.full(E * FBC, _LEAF, dtype=np.int64)
            table[route_cells] = slot_of_child[child_of]
            new_slots = np.take(table, pick)
        else:
            # Weighted class sums of the children, rows in ascending order
            # per (child, class) cell; rows of unsplit nodes go to a spare
            # child 2K that is cut off.
            table = np.full(E * FBC, 2 * K, dtype=np.int64)
            table[route_cells] = child_of
            child = np.take(table, pick)
            class_w = np.bincount(
                child * C + y_live, weights=w_live, minlength=(2 * K + 1) * C
            )[: 2 * K * C].reshape(2 * K, C)
            imp, dist = _level_node_stats(class_w, criterion)
            eligible = _splittable(m_node, imp, depth, max_depth, min_samples_split)
            if eligible.size == 0:
                continue
            slot_of_child = np.full(2 * K + 1, _LEAF, dtype=np.int64)
            slot_of_child[eligible] = np.arange(eligible.size)
            new_slots = np.take(slot_of_child, child)
        live = np.flatnonzero(new_slots >= 0)
        off = np.take(off, live, axis=1)
        slots = np.take(new_slots, live)
        if not uniform_weight:
            y_live = np.take(y_live, live)
            w_live = np.take(w_live, live)

    if level_watch is not None:
        level_watch.observe(level_hist)

    # Depth-first (preorder) ids: subtree sizes bottom-up, then ids
    # top-down — node, left subtree, right subtree.
    sizes = [np.ones(len(m), dtype=np.int64) for _, m, _ in levels]
    for lv in range(len(splits) - 1, -1, -1):
        below = sizes[lv + 1]
        sizes[lv][splits[lv][0]] += below[0::2] + below[1::2]
    n = int(sizes[0][0])
    feature = np.full(n, _LEAF, dtype=np.int64)
    threshold = np.zeros(n)
    children_left = np.full(n, _LEAF, dtype=np.int64)
    children_right = np.full(n, _LEAF, dtype=np.int64)
    value = np.empty((n, C))
    n_node_samples = np.empty(n, dtype=np.int64)
    impurity = np.empty(n)
    ids = np.zeros(1, dtype=np.int64)
    for lv, (dist, m, imp) in enumerate(levels):
        value[ids] = dist
        n_node_samples[ids] = m
        impurity[ids] = imp
        if lv == len(splits):
            break
        split, feat, thr = splits[lv]
        parent_ids = ids[split]
        feature[parent_ids] = feat
        threshold[parent_ids] = thr
        ids = np.empty(2 * split.size, dtype=np.int64)
        ids[0::2] = parent_ids + 1
        ids[1::2] = parent_ids + 1 + sizes[lv + 1][0::2]
        children_left[parent_ids] = ids[0::2]
        children_right[parent_ids] = ids[1::2]
    return Tree(
        feature=feature,
        threshold=threshold,
        children_left=children_left,
        children_right=children_right,
        value=value,
        n_node_samples=n_node_samples,
        impurity=impurity,
        n_classes=n_classes,
    )
