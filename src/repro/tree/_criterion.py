"""Split-quality criteria: Gini impurity, entropy, C4.5 gain ratio."""

from __future__ import annotations

import numpy as np

__all__ = ["node_impurity", "children_impurity", "split_gain", "CRITERIA"]

CRITERIA = ("gini", "entropy", "gain_ratio")

_EPS = 1e-12


def node_impurity(class_weights: np.ndarray, criterion: str) -> float:
    """Impurity of a node given its per-class weight vector."""
    total = class_weights.sum()
    if total <= 0:
        return 0.0
    p = class_weights / total
    if criterion == "gini":
        return float(1.0 - np.sum(p * p))
    # entropy and gain_ratio both use entropy as node impurity
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def _row_sum(W: np.ndarray) -> np.ndarray:
    """``np.add.reduce(W, axis=1)``, bit for bit, but column by column.

    numpy adds a row of fewer than 8 entries left to right, one entry at a
    time, so column-wise adds reproduce it exactly while paying one
    dispatch per column instead of one per row (the reduction over a short
    class axis is several times slower). Wider rows switch to numpy's
    pairwise grouping and keep ``add.reduce``. Pinned against
    ``np.add.reduce`` by ``tests/test_tree.py``.
    """
    n_cols = W.shape[1]
    if n_cols == 0 or n_cols >= 8:
        return np.add.reduce(W, axis=1)
    out = W[:, 0].copy()
    for c in range(1, n_cols):
        out += W[:, c]
    return out


def _impurity_rows(W: np.ndarray, totals: np.ndarray, criterion: str) -> np.ndarray:
    safe = np.where(totals > 0, totals, 1.0)
    p = W / safe[:, None]
    if criterion == "gini":
        return 1.0 - _row_sum(p * p)
    logp = np.where(p > 0, np.log2(np.maximum(p, _EPS)), 0.0)
    return -_row_sum(p * logp)


def children_impurity(W: np.ndarray, criterion: str) -> np.ndarray:
    """Row-wise impurity for a (n_candidates, n_classes) weight matrix."""
    return _impurity_rows(W, _row_sum(W), criterion)


def split_gain(
    left: np.ndarray,
    right: np.ndarray,
    parent_impurity: float,
    criterion: str,
) -> np.ndarray:
    """Impurity decrease for each candidate split.

    ``left`` / ``right`` are (n_candidates, n_classes) class-weight matrices.
    For ``gain_ratio`` the information gain is normalised by the split
    information, as in Quinlan's C4.5. Left and right children are stacked
    into one impurity evaluation (row-wise math — identical values, half
    the numpy dispatches), reusing the side totals as the row sums.
    """
    wl = _row_sum(left)
    wr = _row_sum(right)
    total = wl + wr
    safe_total = np.where(total > 0, total, 1.0)
    child_criterion = "entropy" if criterion == "gain_ratio" else criterion
    both = _impurity_rows(
        np.concatenate([left, right]), np.concatenate([wl, wr]), child_criterion
    )
    il = both[: len(left)]
    ir = both[len(left):]
    gain = parent_impurity - (wl * il + wr * ir) / safe_total
    if criterion == "gain_ratio":
        pl = np.clip(wl / safe_total, _EPS, 1.0)
        pr = np.clip(wr / safe_total, _EPS, 1.0)
        split_info = -(pl * np.log2(pl) + pr * np.log2(pr))
        gain = gain / np.maximum(split_info, _EPS)
    # Degenerate candidates (an empty side) carry no usable gain.
    gain[(wl <= 0) | (wr <= 0)] = -np.inf
    return gain
