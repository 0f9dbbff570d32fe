"""RUSBoost (Seiffert et al., 2010): random under-sampling inside AdaBoost."""

from __future__ import annotations

from typing import List

import numpy as np

from ..ensemble.adaboost import fit_supports_sample_weight
from ..utils.validation import check_is_fitted, check_n_features
from .base import BaseImbalanceEnsemble

__all__ = ["RUSBoostClassifier"]


class RUSBoostClassifier(BaseImbalanceEnsemble):
    """SAMME boosting where each round trains on a balanced random subset.

    Boosting weights live on the *full* training set; each round draws a
    balanced subset (all minority + equal majority), trains the base model
    with the subset's renormalised weights, then updates the full-set weights
    from the error on everything — Seiffert et al.'s Algorithm 1.
    """

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 10,
        learning_rate: float = 1.0,
        random_state=None,
    ):
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.random_state = random_state

    def fit(self, X, y) -> "RUSBoostClassifier":
        """Fit on ``X``, ``y``; returns ``self``."""
        X, y, rng = self._validate(X, y)
        n = len(y)
        maj_idx = np.flatnonzero(y == 0)
        min_idx = np.flatnonzero(y == 1)
        w = np.full(n, 1.0 / n)
        self.estimators_: List = []
        self.estimator_weights_: List[float] = []
        self.n_training_samples_ = 0

        for _ in range(self.n_estimators):
            n_bag = min(len(min_idx), len(maj_idx))
            chosen_maj = rng.choice(maj_idx, size=n_bag, replace=False)
            bag = np.concatenate([chosen_maj, min_idx])
            bag = rng.permutation(bag)
            w_bag = w[bag]
            w_bag = w_bag / w_bag.sum()
            model = self._make_base(rng)
            if fit_supports_sample_weight(model):
                model.fit(X[bag], y[bag], sample_weight=w_bag * len(bag))
            else:
                resample = rng.choice(bag, size=len(bag), p=w_bag)
                if len(np.unique(y[resample])) < 2:
                    resample = bag
                model.fit(X[resample], y[resample])
            self.n_training_samples_ += len(bag)

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
