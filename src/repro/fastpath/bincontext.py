"""Bin-once / fit-many training context.

Every bagging-style ensemble in this library draws its member training sets
from rows of one fixed matrix, yet the default path re-runs
``FeatureBinner.fit`` (per-feature ``np.unique`` + quantile cuts) inside
*every* member tree fit. :class:`SharedBinContext` amortises that work: the
matrix is binned exactly once per ensemble fit at *fine* resolution
(default 4× the member trees' ``max_bins``, capped at 255 so codes stay
``uint8`` — ~8× smaller than the float64 matrix), and every member trains
on a row-subset *view* of the cached codes.

Members keep their per-subset adaptivity through **code-space
requantization** (:func:`requantize_member`): each member derives its own
``max_bins`` quantile cuts from a histogram of its subset's fine codes —
O(subset + 256) per feature instead of a fresh sort — and remaps the fine
codes through a 256-entry LUT. Every member threshold is therefore one of
the shared fine edges, which is what lets inference compile shared-binner
ensembles into per-cell decision tables (:mod:`repro.fastpath.codetable`).
For imbalance-aware callers, the fine edges themselves are fitted on a
deterministic *balanced* row sample (all minority + evenly-strided
majority), matching the distribution the balanced bags actually train on.

A :class:`BinnedSubset` view is duck-typed to flow through the existing
ensemble plumbing unchanged: it supports ``len``/``shape``/row fancy
indexing (what every ``sample_fn`` does), and ``np.asarray(view)``
materialises the raw float rows so non-tree member models (e.g. the boosted
bags of EasyEnsemble) keep working transparently — they just don't get the
speedup. ``DecisionTreeClassifier.fit`` recognises the view and trains
directly on the requantized codes, skipping per-member ``check_X_y`` +
``fit_transform`` entirely.

Shared binning is **opt-in** (``shared_binning=True`` on the ensembles):
member cut points are constrained to the shared fine-edge grid, so the
fitted trees are statistically equivalent but not bit-identical to the
default per-member-binned trees (see ``DESIGN.md``; the inference fastpath,
by contrast, is always bit-identical).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..tree._binning import FeatureBinner

__all__ = [
    "SharedBinContext",
    "BinnedSubset",
    "shared_bin_context_for",
    "check_shared_binning_backend",
]


def check_shared_binning_backend(backend: str) -> None:
    """Reject member-fit backends that would pickle the shared context.

    Process workers receive each member's task payload by pickle; a
    :class:`BinnedSubset` would either drag the full code matrix along per
    member (defeating the point) or arrive detached. Ensembles that
    dispatch member fits call this up front; SPE does not need to (its
    cascade trains members in-process).
    """
    if backend == "process":
        raise ValueError(
            "shared_binning=True cannot fit with backend='process': member "
            "training sets are views into one shared code matrix, which "
            "process workers cannot share. Use backend='serial' or "
            "'thread' (or disable shared_binning)."
        )


def _smallest_uint(n_values: int):
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n_values <= np.iinfo(dtype).max + 1:
            return dtype
    return np.int64


class SharedBinContext:
    """One fine binner fit + one code matrix, shared by every member.

    ``max_bins`` is the *fine* resolution of the cached codes; members
    requantize down to their own ``max_bins`` in code space. ``fit_rows``
    (optional) restricts the rows the cut points are estimated from — the
    codes always cover the full matrix.
    """

    def __init__(
        self,
        X: np.ndarray,
        max_bins: int = 255,
        fit_rows: Optional[np.ndarray] = None,
    ):
        self.X = np.ascontiguousarray(X, dtype=np.float64)
        self.max_bins = max_bins
        fit_X = self.X if fit_rows is None else self.X[fit_rows]
        self.binner = FeatureBinner(max_bins=max_bins).fit(fit_X)
        codes = self.binner.transform(self.X)
        self.codes = codes.astype(_smallest_uint(int(self.binner.n_bins_.max())))

    @property
    def n_rows(self) -> int:
        """Number of training rows."""
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        """Number of features."""
        return self.X.shape[1]

    def view(self, rows: np.ndarray) -> "BinnedSubset":
        """A :class:`BinnedSubset` view of ``rows`` (fit-time only)."""
        if self.codes is None:
            raise ValueError(
                "This SharedBinContext was unpickled and carries only its "
                "binner (the training matrix and codes are fit-time state "
                "and are dropped on serialisation); re-create it from the "
                "training matrix to take views."
            )
        return BinnedSubset(self, np.asarray(rows, dtype=np.int64))

    def all_rows(self) -> "BinnedSubset":
        """A view covering every training row."""
        return self.view(np.arange(self.n_rows, dtype=np.int64))

    def __getstate__(self):
        # Fitted trees keep a reference to their context so inference can
        # recognise shared-binner ensembles (code-table compilation).
        # Serialising a fitted ensemble must not drag the training matrix
        # along: only the binner survives a pickle round-trip.
        state = self.__dict__.copy()
        state["X"] = None
        state["codes"] = None
        return state

    # ------------------------------------------------------------------ #
    def __getstate_arrays__(self):
        """Pickle-free export (see :mod:`repro.persistence`): like pickle,
        only the fine binner and its resolution survive — the training
        matrix and code cache are fit-time state. The restored context still
        lets inference compile code tables (that needs only the edges)."""
        return {"max_bins": int(self.max_bins)}, {}, {"binner": self.binner}

    @classmethod
    def __from_state_arrays__(cls, meta, arrays, children) -> "SharedBinContext":
        context = cls.__new__(cls)
        context.X = None
        context.codes = None
        context.max_bins = int(meta["max_bins"])
        context.binner = children["binner"]
        return context


class BinnedSubset:
    """Lazy row-subset of a :class:`SharedBinContext`.

    Only row indices are stored; codes/floats are gathered on demand. Fancy
    row indexing returns another view (no data copied), which is exactly the
    operation every ``sample_fn`` in the ensemble engine performs.
    """

    def __init__(self, context: SharedBinContext, rows: np.ndarray):
        self.bin_context = context
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def shape(self):
        """``(n_rows, n_features)`` of this view."""
        return (len(self.rows), self.bin_context.n_features)

    def __getitem__(self, index) -> "BinnedSubset":
        return BinnedSubset(self.bin_context, self.rows[index])

    def concat(self, other: "BinnedSubset") -> "BinnedSubset":
        """Concatenation with ``other`` (same shared context)."""
        if other.bin_context is not self.bin_context:
            raise ValueError("cannot concat views from different bin contexts")
        return BinnedSubset(
            self.bin_context, np.concatenate([self.rows, other.rows])
        )

    def binned_codes(self) -> np.ndarray:
        """Gathered integer codes for this subset (one memcpy, no re-bin)."""
        codes = self.bin_context.codes
        if codes is None:
            raise ValueError(
                "BinnedSubset crossed a pickle boundary and lost its code "
                "matrix; shared_binning ensembles must fit with the serial "
                "or thread backend (process workers would re-ship the full "
                "matrix per member)."
            )
        return codes[self.rows]

    def __array__(self, dtype=None, copy=None):
        """Raw float rows — lets any non-tree estimator (or ``np.vstack``)
        consume the view transparently via ``np.asarray``."""
        rows = self.bin_context.X[self.rows]
        return rows if dtype is None else rows.astype(dtype)


#: The fine code resolution is this many times the member trees' max_bins,
#: capped so codes stay uint8. Finer shared edges give the per-member
#: requantization more cut points to choose from.
FINE_FACTOR = 4
MAX_FINE_BINS = 255


def balanced_fit_rows(y: np.ndarray) -> Optional[np.ndarray]:
    """Deterministic balanced row sample for edge estimation: all minority
    rows plus an equal count of evenly-strided majority rows. Quantile cuts
    computed over the raw imbalanced matrix would spend nearly all their
    resolution on the majority mass; balanced bags then train on edges that
    barely resolve the minority region. No RNG is consumed (the fit loop's
    draw sequence must not depend on shared binning)."""
    maj = np.flatnonzero(y == 0)
    mino = np.flatnonzero(y == 1)
    if len(mino) == 0 or len(maj) <= len(mino):
        return None
    strided = maj[np.unique(np.linspace(0, len(maj) - 1, len(mino)).astype(np.int64))]
    return np.sort(np.concatenate([mino, strided]))


def requantize_member(
    context: SharedBinContext, fine_codes: np.ndarray, max_bins: int
) -> Tuple[FeatureBinner, np.ndarray, np.ndarray]:
    """Derive a member's own binner from its subset's fine-code histogram.

    Returns ``(member_binner, member_codes, remap)``: a fitted-compatible
    :class:`FeatureBinner` whose edges are a ``max_bins``-quantile subset of
    the shared fine edges, the subset's codes remapped into it, and the
    per-feature fine→member code LUT (``(n_features, fine_bins)``). Cost is
    O(subset + fine_bins) per feature — no sorting — and every member
    threshold remains exactly one shared fine edge.
    """
    m, d = fine_codes.shape
    fine_bins = int(context.binner.n_bins_.max())
    edges_list = []
    n_bins = np.empty(d, dtype=np.int64)
    remap = np.zeros((d, fine_bins), dtype=np.int64)
    for j in range(d):
        fine_edges = context.binner.edges_[j]
        n_fine = len(fine_edges) + 1
        hist = np.bincount(fine_codes[:, j], minlength=n_fine)
        present = np.flatnonzero(hist)
        if present.size <= max_bins:
            # Few distinct codes: cut between every adjacent present pair
            # (the fine edge nearest the midpoint of the gap).
            cut_codes = (present[:-1] + present[1:] - 1) // 2
        else:
            # Quantile cuts over the subset's code distribution.
            cum = np.cumsum(hist)
            ranks = (np.arange(1, max_bins) * (m - 1)) // max_bins
            cut_codes = np.unique(np.searchsorted(cum, ranks, side="right"))
            cut_codes = cut_codes[cut_codes < n_fine - 1]
        edges_list.append(fine_edges[cut_codes])
        n_bins[j] = cut_codes.size + 1
        remap[j, :n_fine] = np.searchsorted(cut_codes, np.arange(n_fine), side="left")
    member = FeatureBinner(max_bins=max_bins)
    member.edges_ = tuple(edges_list)
    member.n_bins_ = n_bins
    member.n_features_ = d
    member_codes = remap[np.arange(d)[None, :], fine_codes]
    return member, member_codes, remap


def shared_bin_context_for(
    estimator, X: np.ndarray, *, y: Optional[np.ndarray] = None,
    strict: bool = True,
) -> SharedBinContext:
    """Build the context an ensemble's member trees should share.

    The fine resolution derives from the member estimator's ``max_bins``
    (default tree: 64 → fine 255). With ``y`` given (imbalance-aware
    callers whose bags are balanced), cut points are estimated from a
    balanced row sample. With ``strict=True`` a non-tree member estimator
    is rejected — shared binning would silently buy nothing;
    ``strict=False`` (EasyEnsemble's boosted bags, where the tree sits
    *inside* AdaBoost) builds the context anyway and relies on the view's
    ``__array__`` fallback.
    """
    from ..tree import DecisionTreeClassifier

    if isinstance(estimator, str):
        # Registry name ("tree", "logistic", ...): resolve to an instance so
        # the tree check below sees the actual member class.
        from ..registry import make_classifier

        estimator = make_classifier(estimator)
    if estimator is None:
        max_bins = 64
    elif isinstance(estimator, DecisionTreeClassifier):
        max_bins = estimator.max_bins
    elif strict:
        raise ValueError(
            "shared_binning=True requires a tree base estimator "
            f"(got {type(estimator).__name__}); the shared code matrix can "
            "only be consumed by DecisionTreeClassifier and subclasses"
        )
    else:
        max_bins = getattr(estimator, "max_bins", 64)
    fine = min(MAX_FINE_BINS, FINE_FACTOR * max_bins)
    fit_rows = balanced_fit_rows(np.asarray(y)) if y is not None else None
    return SharedBinContext(X, max_bins=max(fine, max_bins), fit_rows=fit_rows)
