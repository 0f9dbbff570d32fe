"""Compiled decision tables + packed-ensemble caching.

When every member tree of an ensemble was fitted against the *same*
:class:`~repro.fastpath.SharedBinContext`, every split threshold is exactly
one of the shared binner's cut points. The ensemble is then a piecewise-
constant function on the binner's code grid: rows with equal code vectors
are routed identically by every tree. If the grid is small enough
(``prod(n_bins) <= max_cells``), :class:`CodeTable` evaluates the packed
forest once per *cell* and serves ``predict_proba`` as

    ``transform to codes → mixed-radix cell id → one table gather``

— O(d·log bins) per row, independent of tree count and depth. Cell values
are produced by the packed kernel itself (same accumulation order), and a
row's cell shares every node comparison with the row (thresholds are cell
boundaries), so table output is bit-identical to per-tree evaluation; the
builder additionally *verifies* every threshold sits on a shared edge and
refuses to compile otherwise, making the table safe even on mixed or
hand-built ensembles.

``cached_packed_ensemble`` keeps the packed forest (and its code table,
when compilable) alive per ensemble so repeated ``predict_proba`` calls —
the serving pattern — skip re-packing. The cache is keyed weakly by the
first estimator and revalidated by identity against every member and its
fitted ``tree_``, so refitting any member rebuilds the pack.

``SharedMemberScorer`` is the fit-time companion: it scores one member at
a time over a fixed row set of the shared context (the SPE majority) by
compiling the member's own small table over its requantized grid and
mapping the cached fine codes onto it — no tree traversal over rows.
"""

from __future__ import annotations

import math
import weakref
from typing import Optional, Sequence, Tuple

import numpy as np

from .packed import PackedForest, _LEAF

__all__ = [
    "CodeTable",
    "SharedMemberScorer",
    "cached_packed_ensemble",
    "warm_serving_pack",
]

#: Largest code grid a table is compiled for (cells × classes × 8 bytes).
MAX_CELLS = 1 << 16

#: binner -> (strides, grid) — the cell enumeration depends only on the
#: binner's bin counts, so per-model table compilation (SPE scores one new
#: member per iteration) reuses it.
_GRID_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _cell_grid(binner, n_bins: np.ndarray, cells: int):
    try:
        cached = _GRID_CACHE.get(binner)
    except TypeError:
        cached = None
    if cached is not None and cached[1].shape == (cells, len(n_bins)):
        return cached
    strides = np.ones(len(n_bins), dtype=np.int64)
    for j in range(len(n_bins) - 2, -1, -1):
        strides[j] = strides[j + 1] * n_bins[j + 1]
    cell_ids = np.arange(cells, dtype=np.int64)
    grid = np.empty((cells, len(n_bins)), dtype=np.int64)
    for j in range(len(n_bins)):
        grid[:, j] = (cell_ids // strides[j]) % n_bins[j]
    try:
        _GRID_CACHE[binner] = (strides, grid)
    except TypeError:
        pass
    return strides, grid


class CodeTable:
    """Per-cell probability table over a shared binner's code grid."""

    def __init__(self, forest: PackedForest, binner, table: np.ndarray,
                 strides: np.ndarray):
        self.binner = binner
        self.table = table
        self.strides = strides
        self.n_features = forest.n_features

    @classmethod
    def maybe_build(
        cls, forest: PackedForest, binner, max_cells: int = MAX_CELLS
    ) -> Optional["CodeTable"]:
        """Compile the forest into a table, or ``None`` when the grid is too
        large or any threshold is off the shared edges (not compilable)."""
        n_bins = np.asarray(binner.n_bins_, dtype=np.int64)
        if len(n_bins) != forest.n_features:
            return None
        # Exact python-int product: np.prod would wrap in int64 for wide
        # feature spaces and could land back inside the guard range.
        cells = math.prod(int(b) for b in n_bins)
        if cells > max_cells or cells < 1:
            return None
        # Map thresholds to code cuts; verify exact edge alignment.
        cuts = np.zeros(len(forest.feature), dtype=np.int64)
        internal = np.flatnonzero(forest.feature != _LEAF)
        for j in np.unique(forest.feature[internal]):
            sel = np.flatnonzero(forest.feature == j)
            edges = binner.edges_[j]
            pos = np.searchsorted(edges, forest.threshold[sel], side="left")
            if (pos >= len(edges)).any() or not np.array_equal(
                edges[np.minimum(pos, len(edges) - 1)], forest.threshold[sel]
            ):
                return None  # a threshold is not a shared edge
            # x < edges[c]  ⇔  code(x) <= c  ⇔  code(x) < c + 1
            cuts[sel] = pos + 1
        # Enumerate the grid and evaluate every cell through the packed
        # kernel (same accumulation order → bit-identical cell values).
        strides, grid = _cell_grid(binner, n_bins, cells)
        leaves = forest.apply_codes(grid, cuts)
        table = forest.proba_from_leaves(leaves)
        return cls(forest, binner, table, strides)

    def cell_ids(self, codes: np.ndarray) -> np.ndarray:
        """Flat cell ids for bin-code rows, via the stride vector."""
        return codes.astype(np.int64) @ self.strides

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        codes = self.binner.transform(X)
        return self.table[self.cell_ids(codes)]


class SharedMemberScorer:
    """Table scoring of single members over fixed rows of a shared context.

    A member fitted on views of ``context`` splits on its own requantized
    grid (``_member_binner``), reached from the shared fine codes through
    the per-feature LUT ``_member_remap`` (``None`` when the member kept the
    fine grid). That grid is small, so the member compiles into a
    :class:`CodeTable` and every row is scored with d LUT gathers over the
    fine codes of ``rows``, gathered once on first use. Bit-identical to
    traversal, like every code table.
    """

    def __init__(self, context, rows: np.ndarray):
        self._context = context
        self._rows = rows
        self._fine_codes: Optional[np.ndarray] = None

    def predict_proba(self, model, classes: np.ndarray) -> Optional[np.ndarray]:
        """Class probabilities of ``model`` on the rows, or ``None`` when the
        model was not fitted against this context or does not compile."""
        if getattr(model, "_shared_bin_context", None) is not self._context:
            return None
        member_binner = getattr(model, "_member_binner", None)
        if member_binner is None:
            return None
        forest = PackedForest.from_estimators([model], classes)
        if forest is None:
            return None
        table = CodeTable.maybe_build(forest, member_binner)
        if table is None:
            return None
        if self._fine_codes is None:
            self._fine_codes = self._context.codes[self._rows]
        fine = self._fine_codes
        remap = getattr(model, "_member_remap", None)
        cells = np.zeros(len(fine), dtype=np.int64)
        for j in range(fine.shape[1]):
            if remap is None:
                cells += table.strides[j] * fine[:, j].astype(np.int64)
            else:
                cells += (remap[j] * table.strides[j])[fine[:, j]]
        return table.table[cells]


def _shared_context(estimators: Sequence):
    """The one SharedBinContext every member tree was fitted against, or
    ``None`` (member without a context, or differing contexts)."""
    context = getattr(estimators[0], "_shared_bin_context", None)
    if context is None:
        return None
    for est in estimators[1:]:
        if getattr(est, "_shared_bin_context", None) is not context:
            return None
    return context


#: first estimator -> (other members, trees, classes key, forest, table).
#: The entry must NOT hold a strong reference to the key itself (a
#: WeakKeyDictionary value that references its key is immortal), so the
#: first estimator is stored only implicitly as the key; the remaining
#: members and every fitted Tree are held strongly, which keeps the
#: identity checks valid for exactly as long as the entry is reachable.
_PACK_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def cached_packed_ensemble(
    estimators: Sequence, classes: np.ndarray
) -> Optional[Tuple[PackedForest, Optional[CodeTable]]]:
    """Packed forest + optional code table for an ensemble, cached across
    calls; ``None`` when the ensemble is not packable."""
    est0 = estimators[0]
    classes_key = tuple(np.asarray(classes).tolist())
    trees = tuple(getattr(est, "tree_", None) for est in estimators)
    try:
        entry = _PACK_CACHE.get(est0)
    except TypeError:  # unhashable / non-weakrefable estimator type
        entry = None
    if entry is not None:
        others, cached_trees, cached_classes, forest, table = entry
        if (
            cached_classes == classes_key
            and len(others) == len(estimators) - 1
            and all(a is b for a, b in zip(others, estimators[1:]))
            and all(a is b for a, b in zip(cached_trees, trees))
        ):
            return forest, table
    forest = PackedForest.from_estimators(estimators, classes)
    if forest is None:
        return None
    table = None
    context = _shared_context(estimators)
    if context is not None:
        table = CodeTable.maybe_build(forest, context.binner)
    try:
        _PACK_CACHE[est0] = (tuple(estimators[1:]), trees, classes_key, forest, table)
    except TypeError:
        pass
    return forest, table


def warm_serving_pack(model) -> Tuple[bool, bool]:
    """Eagerly build (and cache) a model's serving kernel; returns
    ``(packed, code_table)`` flags.

    Uses the model's ``__serving_ensemble__`` hook — the exact
    ``(estimators, classes)`` pair ``predict_proba`` feeds to the pack
    cache — so the warmed entry is the one every later request hits.
    ``(False, False)`` when the model has no hook or its members are not
    packable; callers then serve through the model's normal path. This is
    the pre-build step of both :class:`~repro.serving.ModelServer`
    construction and :meth:`~repro.serving.ModelServer.swap_model` — the
    swap packs the challenger *before* flipping the active model, so no
    in-flight request ever waits on a re-pack.
    """
    hook = getattr(model, "__serving_ensemble__", None)
    if hook is None:
        return False, False
    estimators, classes = hook()
    entry = cached_packed_ensemble(list(estimators), classes)
    if entry is None:
        return False, False
    return True, entry[1] is not None
