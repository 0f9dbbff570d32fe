"""SMOTEBoost (Chawla et al., 2003): SMOTE inside each boosting round."""

from __future__ import annotations

from typing import List

import numpy as np

from ..ensemble.adaboost import fit_supports_sample_weight
from ..sampling.smote import smote_interpolate
from ..utils.validation import check_is_fitted, check_n_features
from .base import BaseImbalanceEnsemble

__all__ = ["SMOTEBoostClassifier"]


class SMOTEBoostClassifier(BaseImbalanceEnsemble):
    """SAMME boosting that augments every round with fresh SMOTE synthetics.

    Each round generates ``|P|``-proportional synthetic minority samples,
    trains the base model on original + synthetic data (synthetics share the
    minority's average boosting weight), then updates weights from the error
    on the original set only — synthetic points never accumulate weight.

    Note the sample cost: every base model sees the *full* majority plus
    synthetics, which is why the paper's Table VI reports two to three orders
    of magnitude more training samples than the under-sampling ensembles.
    """

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 10,
        k_neighbors: int = 5,
        n_synthetic: str = "minority",
        learning_rate: float = 1.0,
        random_state=None,
    ):
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.k_neighbors = k_neighbors
        self.n_synthetic = n_synthetic
        self.learning_rate = learning_rate
        self.random_state = random_state

    def fit(self, X, y) -> "SMOTEBoostClassifier":
        """Fit on ``X``, ``y``; returns ``self``."""
        X, y, rng = self._validate(X, y)
        n = len(y)
        min_idx = np.flatnonzero(y == 1)
        maj_idx = np.flatnonzero(y == 0)
        X_min = X[min_idx]
        if self.n_synthetic == "minority":
            n_new = len(min_idx)
        elif self.n_synthetic == "balance":
            n_new = max(0, len(maj_idx) - len(min_idx))
        else:
            n_new = int(self.n_synthetic)
        w = np.full(n, 1.0 / n)
        self.estimators_: List = []
        self.estimator_weights_: List[float] = []
        self.n_training_samples_ = 0

        for _ in range(self.n_estimators):
            synthetic = smote_interpolate(
                X_min, X_min, n_new, self.k_neighbors, rng
            )
            X_round = np.vstack([X, synthetic])
            y_round = np.concatenate([y, np.ones(len(synthetic), dtype=y.dtype)])
            w_min_avg = w[min_idx].mean() if len(min_idx) else 1.0 / n
            w_round = np.concatenate([w, np.full(len(synthetic), w_min_avg)])
            w_round = w_round / w_round.sum()
            model = self._make_base(rng)
            if fit_supports_sample_weight(model):
                model.fit(X_round, y_round, sample_weight=w_round * len(y_round))
            else:
                pick = rng.choice(len(y_round), size=len(y_round), p=w_round)
                if len(np.unique(y_round[pick])) < 2:
                    pick = np.arange(len(y_round))
                model.fit(X_round[pick], y_round[pick])
            self.n_training_samples_ += len(y_round)

            pred = model.predict(X)
            incorrect = pred != y
            err = float(np.sum(w * incorrect))
            if err <= 0:
                self.estimators_.append(model)
                self.estimator_weights_.append(10.0)
                break
            if err >= 0.5:
                if not self.estimators_:
                    self.estimators_.append(model)
                    self.estimator_weights_.append(1.0)
                break
            alpha = self.learning_rate * np.log((1.0 - err) / err)
            self.estimators_.append(model)
            self.estimator_weights_.append(float(alpha))
            w *= np.exp(alpha * incorrect)
            w /= w.sum()
        return self

    #: Serving warm-up opt-out: predict_proba is an alpha-weighted vote
    #: over member *predictions*, never the packed probability kernel, so
    #: pre-packing the member trees would build an unused forest.
    __serving_ensemble__ = None

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        check_is_fitted(self, ["estimators_"])
        X = check_n_features(self, X)
        votes = np.zeros((X.shape[0], 2))
        for model, alpha in zip(self.estimators_, self.estimator_weights_):
            pred = model.predict(X).astype(int)  # internal 0/1 codes
            votes[np.arange(X.shape[0]), pred] += alpha
        totals = votes.sum(axis=1, keepdims=True)
        totals[totals <= 0] = 1.0
        return self._decode_proba(votes / totals)

    def predict(self, X) -> np.ndarray:
        """Predicted class labels for ``X``."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    # ------------------------------------------------------------------ #
    def __getstate_arrays__(self):
        """Shared ensemble state plus the per-round boosting weights."""
        meta, arrays, children = super().__getstate_arrays__()
        arrays["estimator_weights"] = np.asarray(
            self.estimator_weights_, dtype=np.float64
        )
        return meta, arrays, children

    def __setstate_arrays__(self, meta, arrays, children) -> None:
        super().__setstate_arrays__(meta, arrays, children)
        self.estimator_weights_ = [float(w) for w in arrays["estimator_weights"]]
