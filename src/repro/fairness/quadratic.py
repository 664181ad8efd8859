"""The paper's fairness function (eq. 3): negative squared deviation.

.. math::

   f(t) = - \\sum_{m=1}^{M} \\left( \\frac{r_m(t)}{R(t)} - \\gamma_m \\right)^2

The score is at most zero and is maximized (``= 0``) exactly when every
account receives its target share ``r_m(t) = gamma_m R(t)``.  Note the
side-effect discussed in Section VI-B2: an all-idle slot scores
``-sum_m gamma_m^2 < 0``, so with ``beta > 0`` GreFar is rewarded for
*using* resources, which reduces queueing delay.
"""

from __future__ import annotations

import numpy as np

from repro.fairness.base import FairnessFunction

__all__ = ["QuadraticFairness"]


class QuadraticFairness(FairnessFunction):
    """Negative squared deviation from target shares (paper eq. 3)."""

    def score(
        self,
        allocation: np.ndarray,
        total_resource: float,
        shares: np.ndarray,
    ) -> float:
        alloc, total, sh = self._check(allocation, total_resource, shares)
        dev = alloc / total - sh
        return float(-np.sum(dev**2))

    def gradient(
        self,
        allocation: np.ndarray,
        total_resource: float,
        shares: np.ndarray,
    ) -> np.ndarray:
        alloc, total, sh = self._check(allocation, total_resource, shares)
        dev = alloc / total - sh
        return -2.0 * dev / total
