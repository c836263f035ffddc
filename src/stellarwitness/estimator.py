"""Scikit-learn style front end: fit boundary curves once, certify many pairs.

The certifier follows the estimator protocol (`get_params` / `set_params`,
parameters bound in ``__init__``, computation in ``fit``, fitted state in
trailing-underscore attributes) without importing scikit-learn, so it clones
and composes inside sklearn pipelines while the package stays lean.
"""

from __future__ import annotations

import inspect

import numpy as np

from .boundary import certify_pairs, separations, sweep_family_ranks
from .threshold import OptimizerConfig


def check_pair_array(X) -> np.ndarray:
    """Validate measured probability pairs: shape (n_samples, 2), finite, in [0, 1]."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1 and X.size == 2:
        X = X.reshape(1, 2)
    if X.ndim != 2 or X.shape[1] != 2:
        raise ValueError(f"expected an array of probability pairs with shape (n, 2), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("probability pairs must be finite")
    if np.any(X < -1e-9) or np.any(X > 1.0 + 1e-9):
        raise ValueError("probability pairs must lie in [0, 1]")
    return np.clip(X, 0.0, 1.0)


class StellarRankCertifier:
    """Certify stellar rank of probability/fidelity pairs against a witness family.

    Parameters
    ----------
    family : "fock_pair" or "cat_pair"
    j, k : Fock indices of the pair family (fock_pair only)
    beta : cat amplitude (cat_pair only); complex accepted
    max_rank : highest rank whose boundary curve is fitted
    n_omegas : size of the swept direction grid over [0, 2pi)
    margin : certification safety margin added to thresholds
    starts, max_iterations, seed : optimizer budget per swept direction
    threads : worker cap for the sweep (results do not depend on it)

    After `fit`, `predict(X)` maps each (p_first, p_second) row to the largest
    certified rank (0 when the pair is explainable at every fitted rank).
    """

    def __init__(
        self,
        family: str = "fock_pair",
        j: int = 0,
        k: int = 2,
        beta: complex = 2.0,
        max_rank: int = 3,
        n_omegas: int = 64,
        margin: float = 1e-4,
        starts: int = 24,
        max_iterations: int = 600,
        seed: int = 1905,
        threads: int | None = None,
    ):
        self.family = family
        self.j = j
        self.k = k
        self.beta = beta
        self.max_rank = max_rank
        self.n_omegas = n_omegas
        self.margin = margin
        self.starts = starts
        self.max_iterations = max_iterations
        self.seed = seed
        self.threads = threads

    # -- sklearn protocol ---------------------------------------------------

    @classmethod
    def _param_names(cls):
        signature = inspect.signature(cls.__init__)
        return [name for name in signature.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "StellarRankCertifier":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    # -- fitting and prediction ----------------------------------------------

    def _family_descriptor(self) -> dict:
        if self.family == "fock_pair":
            return {"type": "fock_pair", "j": int(self.j), "k": int(self.k)}
        if self.family == "cat_pair":
            beta = complex(self.beta)
            return {"type": "cat_pair", "beta": [beta.real, beta.imag]}
        raise ValueError(f"unknown family {self.family!r}")

    def fit(self, X=None, y=None) -> "StellarRankCertifier":
        """Sweep the family and build the per-rank certification curves."""
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        family = self._family_descriptor()
        omegas = [2.0 * np.pi * i / self.n_omegas for i in range(self.n_omegas)]
        config = OptimizerConfig(
            starts=self.starts,
            max_iterations=self.max_iterations,
            seed=self.seed,
        )
        self.family_ = family
        self.curves_ = sweep_family_ranks(
            family, list(range(1, self.max_rank + 1)), omegas, config, threads=self.threads
        )
        return self

    def _require_fitted(self):
        if not hasattr(self, "curves_"):
            raise ValueError("this StellarRankCertifier instance is not fitted yet; call fit first")

    def predict(self, X) -> np.ndarray:
        """Largest certified stellar rank for each probability pair."""
        self._require_fitted()
        ranks, _, _ = certify_pairs(check_pair_array(X), self.curves_, self.margin)
        return ranks

    def decision_function(self, X) -> np.ndarray:
        """Per-rank separations value - threshold (positive means certified
        before the margin); shape (n_samples, max_rank)."""
        self._require_fitted()
        sep, _, _ = separations(self.curves_, check_pair_array(X))
        return sep

    def separating_witness(self, pair) -> tuple:
        """(rank, omega, threshold) of the strongest certifying direction."""
        self._require_fitted()
        pair = tuple(check_pair_array(pair)[0])
        ranks, omegas, thresholds = certify_pairs([pair], self.curves_, self.margin)
        if ranks[0] == 0:
            raise ValueError(f"pair {pair} is not certified at any fitted rank")
        return int(ranks[0]), float(omegas[0]), float(thresholds[0])
