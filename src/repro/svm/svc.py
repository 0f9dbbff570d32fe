"""Support vector classifiers trained with (kernelised) Pegasos.

Pegasos (Shalev-Shwartz et al., 2011) performs stochastic sub-gradient
descent on the SVM objective. The kernelised variant needs only kernel
evaluations against the training set, so an RBF SVM — required for the
checkerboard experiments where no linear separator exists — costs
O(iterations × n) with a precomputed kernel matrix.

Probability outputs come from Platt scaling: a sigmoid fitted on the decision
values, which SPE needs because its hardness function consumes probabilities.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from ..base import BaseEstimator, ClassifierMixin
from ..utils.validation import (
    check_is_fitted,
    check_n_features,
    check_random_state,
    check_X_y,
)
from .kernels import resolve_kernel

__all__ = ["SVC", "LinearSVC"]


def _fit_platt(decision: np.ndarray, y01: np.ndarray) -> tuple:
    """Fit Platt's sigmoid ``P(y=1|f) = 1 / (1 + exp(A*f + B))``.

    Uses the regularised targets from Platt (1999) to avoid overfitting the
    extremes, optimised with L-BFGS.
    """
    n_pos = max(int(y01.sum()), 1)
    n_neg = max(int((1 - y01).sum()), 1)
    t = np.where(y01 == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    def objective(params):
        # With z = A*f + B and P(y=1|f) = sigma(-z), the cross entropy is
        # sum_i log(1 + e^{z_i}) - (1 - t_i) * z_i, gradient sigma(z) - (1-t).
        A, B = params
        z = A * decision + B
        log1pez = np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z)))
        loss = np.sum(log1pez - (1 - t) * z)
        sig = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        grad_z = sig - (1 - t)
        return loss, np.array([np.sum(grad_z * decision), np.sum(grad_z)])

    result = optimize.minimize(
        objective, np.array([-1.0, 0.0]), jac=True, method="L-BFGS-B"
    )
    return float(result.x[0]), float(result.x[1])


def _platt_proba(decision: np.ndarray, A: float, B: float) -> np.ndarray:
    z = np.clip(A * decision + B, -500, 500)
    return 1.0 / (1.0 + np.exp(z))


class SVC(BaseEstimator, ClassifierMixin):
    """Kernel SVM via kernelised Pegasos with Platt-scaled probabilities.

    ``C`` follows the usual soft-margin convention and maps to the Pegasos
    regulariser ``lambda = 1 / (C * n)``.
    """

    def __init__(
        self,
        C: float = 1.0,
        kernel: str = "rbf",
        gamma="scale",
        max_iter: int = 20000,
        cache_max_samples: int = 4000,
        random_state=None,
    ):
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.max_iter = max_iter
        self.cache_max_samples = cache_max_samples
        self.random_state = random_state

    def fit(self, X, y, sample_weight=None) -> "SVC":
        """Fit on ``X``, ``y``, ``sample_weight``; returns ``self``."""
        if self.C <= 0:
            raise ValueError("C must be positive")
        X, y = check_X_y(X, y)
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        if len(self.classes_) != 2:
            raise ValueError("SVC supports binary problems only")
        rng = check_random_state(self.random_state)
        n = X.shape[0]
        y_signed = np.where(y_enc == 1, 1.0, -1.0)
        kernel_fn, self.gamma_ = resolve_kernel(
            self.kernel, self.gamma, X.shape[1], float(X.var())
        )
        # A precomputed n x n kernel matrix is O(n²) memory — only cache it
        # for moderate n; otherwise compute the needed row per iteration.
        cache = n <= self.cache_max_samples
        K = kernel_fn(X, X) if cache else None
        lam = 1.0 / (self.C * n)
        alpha = np.zeros(n)
        # sample_weight biases the example-selection distribution.
        if sample_weight is not None:
            probs = np.asarray(sample_weight, dtype=float)
            probs = probs / probs.sum()
        else:
            probs = None
        T = max(self.max_iter, n)
        picks = rng.choice(n, size=T, p=probs)
        for t, i in enumerate(picks, start=1):
            row = K[i] if cache else kernel_fn(X[i : i + 1], X)[0]
            margin = y_signed[i] * (row @ (alpha * y_signed)) / (lam * t)
            if margin < 1.0:
                alpha[i] += 1.0
        self._X_fit = X
        self._alpha_scaled = (alpha * y_signed) / (lam * T)
        self._kernel_fn = kernel_fn
        if cache:
            decision = K @ self._alpha_scaled
        else:
            decision = self.decision_function(X)
        self._platt = _fit_platt(decision, y_enc)
        self.support_ = np.flatnonzero(alpha > 0)
        self.n_features_in_ = X.shape[1]
        return self

    def decision_function(self, X) -> np.ndarray:
        """Real-valued scores for the positive class."""
        check_is_fitted(self, ["_alpha_scaled"])
        X = check_n_features(self, X)
        # Chunk the kernel evaluation so memory stays ~32 MB per block.
        n_ref = self._X_fit.shape[0]
        rows_per_chunk = max(1, int(4e6 / max(n_ref, 1)))
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], rows_per_chunk):
            stop = min(start + rows_per_chunk, X.shape[0])
            out[start:stop] = (
                self._kernel_fn(X[start:stop], self._X_fit) @ self._alpha_scaled
            )
        return out

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        decision = self.decision_function(X)
        p1 = _platt_proba(decision, *self._platt)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X) -> np.ndarray:
        """Predicted class labels for ``X``."""
        decision = self.decision_function(X)
        return self.classes_[(decision >= 0).astype(int)]

    # ------------------------------------------------------------------ #
    def __getstate_arrays__(self):
        """Pickle-free fitted-state export (see :mod:`repro.persistence`).

        The kernel closure is not serialised: the resolved numeric
        ``gamma_`` is stored and the function is re-resolved on restore,
        which reproduces the exact same evaluation (``resolve_kernel``
        accepts a numeric gamma verbatim).
        """
        check_is_fitted(self, ["_alpha_scaled"])
        meta = {
            "n_features_in": int(self.n_features_in_),
            "gamma_value": float(self.gamma_),
            "platt_a": float(self._platt[0]),
            "platt_b": float(self._platt[1]),
        }
        arrays = {
            "classes": np.asarray(self.classes_),
            "X_fit": np.asarray(self._X_fit, dtype=np.float64),
            "alpha_scaled": np.asarray(self._alpha_scaled, dtype=np.float64),
            "support": np.asarray(self.support_, dtype=np.int64),
        }
        return meta, arrays, {}

    def __setstate_arrays__(self, meta, arrays, children) -> None:
        self.classes_ = np.asarray(arrays["classes"])
        self._X_fit = np.asarray(arrays["X_fit"], dtype=np.float64)
        self._alpha_scaled = np.asarray(arrays["alpha_scaled"], dtype=np.float64)
        self.support_ = np.asarray(arrays["support"], dtype=np.int64)
        self.gamma_ = float(meta["gamma_value"])
        self._platt = (float(meta["platt_a"]), float(meta["platt_b"]))
        self.n_features_in_ = int(meta["n_features_in"])
        self._kernel_fn, _ = resolve_kernel(
            self.kernel, self.gamma_, self.n_features_in_, 1.0
        )


class LinearSVC(BaseEstimator, ClassifierMixin):
    """Linear SVM via primal Pegasos (mini-batch), with Platt probabilities."""

    def __init__(
        self,
        C: float = 1.0,
        max_iter: int = 2000,
        batch_size: int = 64,
        fit_intercept: bool = True,
        random_state=None,
    ):
        self.C = C
        self.max_iter = max_iter
        self.batch_size = batch_size
        self.fit_intercept = fit_intercept
        self.random_state = random_state

    def fit(self, X, y, sample_weight=None) -> "LinearSVC":
        """Fit on ``X``, ``y``, ``sample_weight``; returns ``self``."""
        if self.C <= 0:
            raise ValueError("C must be positive")
        X, y = check_X_y(X, y)
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        if len(self.classes_) != 2:
            raise ValueError("LinearSVC supports binary problems only")
        rng = check_random_state(self.random_state)
        n, d = X.shape
        y_signed = np.where(y_enc == 1, 1.0, -1.0)
        lam = 1.0 / (self.C * n)
        w = np.zeros(d)
        b = 0.0
        if sample_weight is not None:
            probs = np.asarray(sample_weight, dtype=float)
            probs = probs / probs.sum()
        else:
            probs = None
        batch = min(self.batch_size, n)
        for t in range(1, self.max_iter + 1):
            idx = rng.choice(n, size=batch, p=probs)
            eta = 1.0 / (lam * t)
            margins = y_signed[idx] * (X[idx] @ w + b)
            violators = idx[margins < 1.0]
            w *= 1.0 - eta * lam
            if violators.size:
                w += (eta / batch) * (y_signed[violators] @ X[violators])
                if self.fit_intercept:
                    b += (eta / batch) * y_signed[violators].sum()
        self.coef_ = w
        self.intercept_ = b
        decision = X @ w + b
        self._platt = _fit_platt(decision, y_enc)
        self.n_features_in_ = d
        return self

    def decision_function(self, X) -> np.ndarray:
        """Real-valued scores for the positive class."""
        check_is_fitted(self, ["coef_"])
        X = check_n_features(self, X)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        decision = self.decision_function(X)
        p1 = _platt_proba(decision, *self._platt)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X) -> np.ndarray:
        """Predicted class labels for ``X``."""
        decision = self.decision_function(X)
        return self.classes_[(decision >= 0).astype(int)]

    # ------------------------------------------------------------------ #
    def __getstate_arrays__(self):
        """Pickle-free fitted-state export (see :mod:`repro.persistence`)."""
        check_is_fitted(self, ["coef_"])
        meta = {
            "n_features_in": int(self.n_features_in_),
            "intercept": float(self.intercept_),
            "platt_a": float(self._platt[0]),
            "platt_b": float(self._platt[1]),
        }
        arrays = {
            "classes": np.asarray(self.classes_),
            "coef": np.asarray(self.coef_, dtype=np.float64),
        }
        return meta, arrays, {}

    def __setstate_arrays__(self, meta, arrays, children) -> None:
        self.classes_ = np.asarray(arrays["classes"])
        self.coef_ = np.asarray(arrays["coef"], dtype=np.float64)
        self.intercept_ = float(meta["intercept"])
        self._platt = (float(meta["platt_a"]), float(meta["platt_b"]))
        self.n_features_in_ = int(meta["n_features_in"])
