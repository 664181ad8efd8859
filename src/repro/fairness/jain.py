"""Jain's fairness index, share-weighted.

.. math::

   f(t) = \\frac{\\left(\\sum_m x_m\\right)^2}{M \\sum_m x_m^2},
   \\qquad x_m = \\frac{r_m(t)}{\\gamma_m}

The index lies in ``(0, 1]`` and equals one exactly when allocations
are proportional to the target shares.  The all-zero allocation is
defined to score the worst case ``1/M`` (the limit along equal
allocations would be 1, but an idle system has earned no fairness).

Jain's index is quasi-concave rather than concave, so it is offered
for *measurement* and ablation benchmarks; optimizing through it uses
its (formal) gradient.
"""

from __future__ import annotations

import numpy as np

from repro.fairness.base import FairnessFunction

__all__ = ["JainFairness"]

_EPS = 1e-12


class JainFairness(FairnessFunction):
    """Share-weighted Jain index in ``(0, 1]``."""

    concave = False

    def _weighted(self, alloc: np.ndarray, shares: np.ndarray) -> np.ndarray:
        safe_shares = np.where(shares > _EPS, shares, _EPS)
        return alloc / safe_shares

    def _score(self, alloc: np.ndarray, total: float, sh: np.ndarray) -> float:
        x = self._weighted(alloc, sh)
        sum_sq = float(np.sum(x**2))
        if sum_sq <= _EPS:
            return 1.0 / len(x)
        return float(np.sum(x)) ** 2 / (len(x) * sum_sq)

    def _gradient(self, alloc: np.ndarray, total: float, sh: np.ndarray) -> np.ndarray:
        safe_shares = np.where(sh > _EPS, sh, _EPS)
        x = self._weighted(alloc, sh)
        m = len(x)
        s1 = float(np.sum(x))
        s2 = float(np.sum(x**2))
        if s2 <= _EPS:
            return np.zeros_like(alloc)
        # d/dx_m of s1^2 / (m s2) = (2 s1 s2 - 2 x_m s1^2) / (m s2^2)
        grad_x = (2.0 * s1 * s2 - 2.0 * x * s1**2) / (m * s2**2)
        return grad_x / safe_shares
