"""Fairness function interface.

The paper scores fairness with the quadratic deviation function of
eq. (3), but footnote 5 notes the analysis applies to other fairness
functions as well.  This module defines the common interface; concrete
functions live in sibling modules.

A fairness function maps the per-account resource allocation vector
``r_m(t)`` (here called *allocation* to avoid clashing with routing
``r_ij``), the total available resource ``R(t)`` and the target shares
``gamma_m`` to a scalar score.  Larger is fairer.  The quadratic,
alpha-fair and max-min scores are **concave** in the allocation, which
keeps the per-slot GreFar problem (minimizing ``V*(e - beta*f) + queue
terms``) convex.  Jain's index is only quasi-concave, so a Frank-Wolfe
gap computed through it certifies nothing.

``score`` and ``gradient`` check their inputs, then call the unchecked
kernels ``_score`` and ``_gradient`` each function implements; code
that built the allocation itself calls the kernels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar

import numpy as np

__all__ = ["FairnessFunction"]


class FairnessFunction(ABC):
    """Interface for fairness scores over account allocations."""

    #: Whether the score is concave in the allocation.  Only then does a
    #: Frank-Wolfe gap through it bound the distance to the optimum, so
    #: solves through a non-concave score count as ``solve.qp.uncertified``.
    concave: ClassVar[bool] = True

    def score(
        self,
        allocation: np.ndarray,
        total_resource: float,
        shares: np.ndarray,
    ) -> float:
        """Fairness score ``f(t)`` — larger is fairer.

        Parameters
        ----------
        allocation:
            Length-``M`` vector of resource (work) given to each account
            this slot.
        total_resource:
            ``R(t) = sum_ik n_ik(t) s_k``, the total available resource.
        shares:
            Length-``M`` vector of target shares ``gamma_m``.

        Raises ``ValueError`` for mismatched shapes, an entry below
        ``-1e-9`` or ``total_resource <= 0``; entries above count as
        at least zero.
        """
        return self._score(*self._check(allocation, total_resource, shares))

    def gradient(
        self,
        allocation: np.ndarray,
        total_resource: float,
        shares: np.ndarray,
    ) -> np.ndarray:
        """(Sub)gradient of :meth:`score` in *allocation*; checked as :meth:`score` is."""
        return self._gradient(*self._check(allocation, total_resource, shares))

    @abstractmethod
    def _score(self, alloc: np.ndarray, total: float, shares: np.ndarray) -> float:
        """Unchecked :meth:`score`: float64 *alloc* >= 0 shaped as *shares*, *total* > 0."""

    @abstractmethod
    def _gradient(self, alloc: np.ndarray, total: float, shares: np.ndarray) -> np.ndarray:
        """Unchecked :meth:`gradient`, on inputs as for :meth:`_score`."""

    # ------------------------------------------------------------------
    def ideal_allocation(self, total_resource: float, shares: np.ndarray) -> np.ndarray:
        """The allocation that maximizes the score: ``gamma_m * R(t)``."""
        return np.asarray(shares, dtype=np.float64) * float(total_resource)

    def _check(self, allocation: np.ndarray, total_resource: float, shares: np.ndarray) -> tuple:
        alloc = np.asarray(allocation, dtype=np.float64)
        sh = np.asarray(shares, dtype=np.float64)
        if alloc.shape != sh.shape:
            raise ValueError(
                f"allocation shape {alloc.shape} must match shares shape {sh.shape}"
            )
        if total_resource <= 0:
            raise ValueError(f"total_resource must be positive, got {total_resource}")
        if np.any(alloc < -1e-9):
            raise ValueError("allocation must be non-negative")
        return np.clip(alloc, 0.0, None), float(total_resource), sh
