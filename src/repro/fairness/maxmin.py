"""Max-min fairness: the normalized allocation of the worst-off account.

.. math::

   f(t) = \\min_m \\frac{r_m(t)}{\\gamma_m R(t)}

The score is one when every account receives at least its target share
and zero when any account with positive target receives nothing.  It is
concave but non-smooth; :meth:`gradient` returns a subgradient
supported on the (first) minimizing account.
"""

from __future__ import annotations

import numpy as np

from repro.fairness.base import FairnessFunction

__all__ = ["MaxMinFairness"]

_EPS = 1e-12


class MaxMinFairness(FairnessFunction):
    """Concave max-min fairness score (subgradient-friendly)."""

    def _ratios(self, alloc: np.ndarray, total: float, shares: np.ndarray) -> np.ndarray:
        denom = np.where(shares > _EPS, shares * total, np.inf)
        return np.where(np.isfinite(denom), alloc / denom, np.inf)

    def _score(self, alloc: np.ndarray, total: float, sh: np.ndarray) -> float:
        ratios = self._ratios(alloc, total, sh)
        finite = ratios[np.isfinite(ratios)]
        if finite.size == 0:
            return 1.0  # no account has a positive target: vacuously fair
        return float(np.min(finite))

    def _gradient(self, alloc: np.ndarray, total: float, sh: np.ndarray) -> np.ndarray:
        ratios = self._ratios(alloc, total, sh)
        grad = np.zeros_like(alloc)
        finite_idx = np.flatnonzero(np.isfinite(ratios))
        if finite_idx.size == 0:
            return grad
        worst = finite_idx[int(np.argmin(ratios[finite_idx]))]
        grad[worst] = 1.0 / (sh[worst] * total)
        return grad
