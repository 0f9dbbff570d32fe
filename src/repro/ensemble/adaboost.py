"""Adaptive Boosting (Freund & Schapire, 1997) — SAMME and SAMME.R.

Base learners that accept ``sample_weight`` in ``fit`` are trained with the
boosting weights directly; others (KNN, MLP, ...) are trained on a weighted
bootstrap resample — the classical workaround that lets AdaBoost "boost any
canonical classifier", which the paper's experiments rely on.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..base import BaseEstimator, ClassifierMixin, clone, supports_sample_weight
from ..tree import DecisionTreeClassifier
from ..utils.validation import (
    check_is_fitted,
    check_n_features,
    check_random_state,
    check_X_y,
)

__all__ = ["AdaBoostClassifier", "fit_supports_sample_weight"]

#: Historical name — the capability check now lives in the estimator
#: contract (:func:`repro.base.supports_sample_weight`).
fit_supports_sample_weight = supports_sample_weight


class AdaBoostClassifier(BaseEstimator, ClassifierMixin):
    """Multi-class AdaBoost.

    ``algorithm='SAMME'`` (default) uses discrete class votes weighted by
    ``log((1-err)/err)``; ``'SAMME.R'`` uses real-valued class-probability
    votes, converging faster for well-calibrated learners.
    """

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 10,
        learning_rate: float = 1.0,
        algorithm: str = "SAMME",
        random_state=None,
    ):
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.algorithm = algorithm
        self.random_state = random_state

    def _make_base(self):
        if self.estimator is None:
            return DecisionTreeClassifier(max_depth=1)
        from ..registry import resolve_estimator

        return clone(resolve_estimator(self.estimator))

    def _fit_one(self, X, y, w, rng):
        model = self._make_base()
        if hasattr(model, "random_state"):
            model.random_state = rng.randint(np.iinfo(np.int32).max)
        if fit_supports_sample_weight(model):
            model.fit(X, y, sample_weight=w * len(y))
        else:
            idx = rng.choice(len(y), size=len(y), p=w)
            if len(np.unique(y[idx])) < len(np.unique(y)):
                # Degenerate resample: retry once, then fall back to all data.
                idx = rng.choice(len(y), size=len(y), p=w)
                if len(np.unique(y[idx])) < len(np.unique(y)):
                    idx = np.arange(len(y))
            model.fit(X[idx], y[idx])
        return model

    def fit(self, X, y) -> "AdaBoostClassifier":
        """Fit on ``X``, ``y``; returns ``self``."""
        if self.algorithm not in ("SAMME", "SAMME.R"):
            raise ValueError(f"Unknown algorithm {self.algorithm!r}")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        self.classes_ = np.unique(y)
        K = len(self.classes_)
        n = X.shape[0]
        w = np.full(n, 1.0 / n)
        self.estimators_: List = []
        self.estimator_weights_: List[float] = []
        y_codes = np.searchsorted(self.classes_, y)

        for _ in range(self.n_estimators):
            model = self._fit_one(X, y, w, rng)
            if self.algorithm == "SAMME.R":
                proba = np.clip(model.predict_proba(X), 1e-12, None)
                cols = np.searchsorted(self.classes_, model.classes_)
                full = np.full((n, K), 1e-12)
                full[:, cols] = proba
                log_proba = np.log(full)
                # Weight update from Zhu et al. (2009), eq. (4).
                coding = np.full((n, K), -1.0 / (K - 1)) if K > 1 else np.ones((n, K))
                coding[np.arange(n), y_codes] = 1.0
                estimator_weight = 1.0  # SAMME.R uses unit weights
                w *= np.exp(
                    -self.learning_rate
                    * ((K - 1.0) / K)
                    * np.einsum("ij,ij->i", coding, log_proba)
                )
            else:
                pred = model.predict(X)
                incorrect = pred != y
                err = float(np.sum(w * incorrect))
                if err <= 0:
                    # Perfect learner: give it a large but finite weight.
                    self.estimators_.append(model)
                    self.estimator_weights_.append(10.0 + np.log(max(K - 1, 1)))
                    break
                if err >= 1.0 - 1.0 / K:
                    # No better than chance — re-randomise the weights slightly
                    # and skip (standard SAMME early-out keeps prior models).
                    if not self.estimators_:
                        self.estimators_.append(model)
                        self.estimator_weights_.append(1.0)
                    break
                estimator_weight = self.learning_rate * (
                    np.log((1.0 - err) / err) + np.log(max(K - 1, 1))
                )
                w *= np.exp(estimator_weight * incorrect)
            self.estimators_.append(model)
            self.estimator_weights_.append(float(estimator_weight))
            total = w.sum()
            if not np.isfinite(total) or total <= 0:
                break
            w /= total
        self.n_features_in_ = X.shape[1]
        return self

    def decision_scores(self, X) -> np.ndarray:
        """Per-class aggregated votes (n_samples, n_classes)."""
        check_is_fitted(self, ["estimators_"])
        X = check_n_features(self, X)
        K = len(self.classes_)
        scores = np.zeros((X.shape[0], K))
        for model, alpha in zip(self.estimators_, self.estimator_weights_):
            if self.algorithm == "SAMME.R":
                proba = np.clip(model.predict_proba(X), 1e-12, None)
                cols = np.searchsorted(self.classes_, model.classes_)
                full = np.full((X.shape[0], K), 1e-12)
                full[:, cols] = proba
                log_proba = np.log(full)
                scores += (K - 1) * (log_proba - log_proba.mean(axis=1, keepdims=True))
            else:
                pred = model.predict(X)
                cols = np.searchsorted(self.classes_, pred)
                scores[np.arange(X.shape[0]), cols] += alpha
        return scores

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        scores = self.decision_scores(X)
        K = len(self.classes_)
        if K == 1:
            return np.ones((scores.shape[0], 1))
        if self.algorithm == "SAMME":
            # Weighted vote shares: sum of alpha over estimators voting for
            # each class, normalised — a graded score in [0, 1] per class.
            totals = scores.sum(axis=1, keepdims=True)
            uniform = np.full_like(scores, 1.0 / K)
            with np.errstate(invalid="ignore", divide="ignore"):
                proba = np.where(totals > 0, scores / np.where(totals > 0, totals, 1.0), uniform)
            return proba
        # SAMME.R: softmax of the mean real-valued decision (Zhu et al. 2009).
        scores = scores / (max(len(self.estimators_), 1) * max(K - 1, 1))
        scores = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        return e / e.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        """Predicted class labels for ``X``."""
        scores = self.decision_scores(X)
        return self.classes_[np.argmax(scores, axis=1)]

    # ------------------------------------------------------------------ #
    def __getstate_arrays__(self):
        """Pickle-free fitted-state export (see :mod:`repro.persistence`)."""
        check_is_fitted(self, ["estimators_"])
        meta = {"n_features_in": int(self.n_features_in_)}
        arrays = {
            "classes": np.asarray(self.classes_),
            "estimator_weights": np.asarray(self.estimator_weights_, dtype=np.float64),
        }
        return meta, arrays, {"estimators": list(self.estimators_)}

    def __setstate_arrays__(self, meta, arrays, children) -> None:
        self.classes_ = np.asarray(arrays["classes"])
        self.estimator_weights_ = [float(w) for w in arrays["estimator_weights"]]
        self.estimators_ = list(children["estimators"])
        self.n_features_in_ = int(meta["n_features_in"])
