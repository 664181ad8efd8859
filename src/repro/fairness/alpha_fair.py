"""Alpha-fair utility (the family the paper cites via [12]).

.. math::

   f(t) = \\sum_m \\gamma_m \\, U_\\alpha\\!\\left(\\frac{r_m(t)}{R(t)}\\right),
   \\qquad
   U_\\alpha(x) = \\begin{cases}
       \\log(x + \\epsilon) & \\alpha = 1 \\\\
       \\dfrac{(x + \\epsilon)^{1-\\alpha}}{1 - \\alpha} & \\alpha \\ne 1
   \\end{cases}

``alpha = 0`` reduces to (weighted) throughput, ``alpha = 1`` to
proportional fairness, and ``alpha -> inf`` approaches max-min
fairness.  A small ``epsilon`` keeps the utility finite at zero
allocation so the per-slot optimization stays well-posed.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_non_negative, require_positive
from repro.fairness.base import FairnessFunction

__all__ = ["AlphaFairness"]


class AlphaFairness(FairnessFunction):
    """The alpha-fair family of concave fairness utilities.

    Parameters
    ----------
    alpha:
        Fairness exponent ``>= 0``.  Larger values weight the worst-off
        account more heavily.
    epsilon:
        Smoothing constant ``> 0`` keeping the score finite at zero.
    """

    def __init__(self, alpha: float = 1.0, epsilon: float = 1e-3) -> None:
        self.alpha = require_non_negative(alpha, "alpha")
        self.epsilon = require_positive(epsilon, "epsilon")

    def _utility(self, x: np.ndarray) -> np.ndarray:
        shifted = x + self.epsilon
        if abs(self.alpha - 1.0) < 1e-12:
            return np.log(shifted)
        return shifted ** (1.0 - self.alpha) / (1.0 - self.alpha)

    def _utility_prime(self, x: np.ndarray) -> np.ndarray:
        shifted = x + self.epsilon
        return shifted ** (-self.alpha)

    def _score(self, alloc: np.ndarray, total: float, sh: np.ndarray) -> float:
        return float(np.sum(sh * self._utility(alloc / total)))

    def _gradient(self, alloc: np.ndarray, total: float, sh: np.ndarray) -> np.ndarray:
        return sh * self._utility_prime(alloc / total) / total
