"""Quantile binning of features for fast histogram-based split search."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..utils.kernel_pool import kernel_map
from ..exceptions import DataValidationError
from ..utils.validation import check_array

__all__ = ["FeatureBinner"]

#: Rows from which ``fit`` and ``transform`` run one kernel-pool job per
#: feature (the packed kernel's row chunk); below it, thread dispatch costs
#: more than the columns take.
_THREADED_ROWS = 1 << 15


def _per_feature(X: np.ndarray, fn) -> list:
    """``[fn(j) for each feature j]``, one kernel-pool job per feature once
    ``X`` is tall enough to pay for the dispatch."""
    features = range(X.shape[1])
    if X.shape[0] < _THREADED_ROWS:
        return [fn(j) for j in features]
    return kernel_map(fn, features)


def _column_edges(col: np.ndarray, max_bins: int, quantiles: np.ndarray) -> np.ndarray:
    """Cut points of one feature, from one sort of the column.

    Equal to ``np.unique(col)`` midpoints when the column has at most
    ``max_bins`` distinct values, else ``np.unique(np.quantile(col,
    quantiles))``: the distinct values are read off the sorted copy with
    the adjacent-difference mask ``np.unique`` itself uses, and a quantile
    of the sorted copy is the same order statistic of the column.
    """
    ordered = np.sort(col)
    distinct = np.empty(ordered.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    unique = ordered[distinct]
    if unique.size <= max_bins:
        # Cut between consecutive distinct values: exact splits.
        return (unique[:-1] + unique[1:]) / 2.0
    return np.unique(np.quantile(ordered, quantiles))


class FeatureBinner:
    """Map each feature to small integer codes via quantile cut points.

    Split search then only has to consider one candidate threshold per bin
    boundary, turning the O(n log n) exact sort per node into an O(n) histogram
    pass — the same trick histogram GBDTs (LightGBM) use.

    The code of value ``x`` on feature ``j`` is the number of cut points
    ``<= x``; the raw-value threshold equivalent to splitting after code ``c``
    is ``edges[j][c]`` with the test ``x < edges[j][c]``.
    """

    def __init__(self, max_bins: int = 64):
        if max_bins < 2:
            raise ValueError("max_bins must be >= 2")
        self.max_bins = max_bins

    def fit(self, X) -> "FeatureBinner":
        X = check_array(X)
        quantiles = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
        edges_list = _per_feature(
            X, lambda j: _column_edges(X[:, j], self.max_bins, quantiles)
        )
        self.n_bins_ = np.array([e.size + 1 for e in edges_list], dtype=np.int64)
        # Immutable tuple: the fitted cut points can be shared without
        # defensive copies, and accidental mutation is impossible.
        self.edges_: Tuple[np.ndarray, ...] = tuple(edges_list)
        self.n_features_ = X.shape[1]
        return self

    def transform(self, X) -> np.ndarray:
        # Transform-only validation: a float64 2-D ndarray (the only thing
        # the library's fit paths ever pass after their own check_X_y) needs
        # no conversion or finiteness re-scan — repeated transform calls on
        # the same validated matrix skip the O(n·d) check_array pass.
        if not (
            isinstance(X, np.ndarray) and X.dtype == np.float64 and X.ndim == 2
        ):
            X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise DataValidationError(
                f"X has {X.shape[1]} features, binner was fitted with "
                f"{self.n_features_}."
            )
        codes = np.empty(X.shape, dtype=np.int32)

        def code_column(j):
            codes[:, j] = np.searchsorted(self.edges_[j], X[:, j], side="right")

        _per_feature(X, code_column)
        return codes

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    def threshold_value(self, feature: int, code: int) -> float:
        """Raw-value threshold for splitting after bin ``code`` (test x < t)."""
        return float(self.edges_[feature][code])

    # ------------------------------------------------------------------ #
    def __getstate_arrays__(self):
        """Pickle-free fitted-state export (see :mod:`repro.persistence`):
        one ragged edge array per feature plus the bin counts."""
        meta = {"max_bins": int(self.max_bins), "n_features": int(self.n_features_)}
        arrays = {"n_bins": self.n_bins_}
        for j, edges in enumerate(self.edges_):
            arrays[f"edges_{j}"] = edges
        return meta, arrays, {}

    @classmethod
    def __from_state_arrays__(cls, meta, arrays, children) -> "FeatureBinner":
        binner = cls(max_bins=meta["max_bins"])
        binner.n_features_ = int(meta["n_features"])
        binner.n_bins_ = np.asarray(arrays["n_bins"], dtype=np.int64)
        binner.edges_ = tuple(
            np.asarray(arrays[f"edges_{j}"], dtype=np.float64)
            for j in range(binner.n_features_)
        )
        return binner
