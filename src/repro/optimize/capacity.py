"""Per-site energy supply curves.

For a data center ``i`` with availability ``n_ik(t)`` the cheapest way
to provide ``c`` units of work capacity is to fill server classes in
increasing order of energy per unit work ``p_k / s_k`` — a classic
fractional-knapsack argument, exact because both power and capacity are
linear in the busy counts ``b_ik``.  The resulting minimum power
``P_i(c)`` is a piecewise-linear convex function; every per-slot solver
in :mod:`repro.optimize` is built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.model.cluster import Cluster
from repro.model.state import ClusterState

__all__ = ["SupplyCurve", "build_supply_curves"]

_EPS = 1e-12


@dataclass(frozen=True)
class SupplyCurve:
    """Minimum-power capacity supply for one data center in one slot.

    Attributes
    ----------
    class_order:
        Server class indices sorted by increasing ``p_k / s_k``.
    capacities:
        Work capacity contributed by each class in that order
        (``n_ik * s_k``).
    unit_powers:
        Power per unit work for each class in that order (``p_k / s_k``).
    """

    class_order: np.ndarray
    capacities: np.ndarray
    unit_powers: np.ndarray

    @property
    def total_capacity(self) -> float:
        """Maximum work this site can process this slot."""
        return float(self.capacities.sum())

    def min_power(self, capacity: float) -> float:
        """Minimum power to provide *capacity* units of work.

        Raises ``ValueError`` if *capacity* exceeds the site total
        (beyond a small tolerance).
        """
        if capacity < -_EPS:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        remaining = min(max(capacity, 0.0), self.total_capacity)
        if capacity > self.total_capacity * (1.0 + 1e-9) + 1e-9:
            raise ValueError(
                f"requested capacity {capacity} exceeds site total "
                f"{self.total_capacity}"
            )
        power = 0.0
        for cap, unit in zip(self.capacities, self.unit_powers):
            take = min(cap, remaining)
            power += take * unit
            remaining -= take
            if remaining <= _EPS:
                break
        return power

    def busy_counts(self, capacity: float, num_classes: int, speeds: np.ndarray) -> np.ndarray:
        """Busy-server vector ``b_i.`` achieving :meth:`min_power`.

        Returns a length-``K`` vector in the *original* class ordering.
        """
        if capacity > self.total_capacity * (1.0 + 1e-9) + 1e-9:
            raise ValueError(
                f"requested capacity {capacity} exceeds site total "
                f"{self.total_capacity}"
            )
        remaining = min(max(capacity, 0.0), self.total_capacity)
        busy = np.zeros(num_classes)
        for k, cap in zip(self.class_order, self.capacities):
            take = min(cap, remaining)
            if take > _EPS:
                busy[k] = take / speeds[k]
            remaining -= take
            if remaining <= _EPS:
                break
        return busy

    def marginal_segments(self) -> List[Tuple[float, float]]:
        """List of ``(capacity, power-per-unit-work)`` segments in cost order."""
        return [
            (float(c), float(u))
            for c, u in zip(self.capacities, self.unit_powers)
            if c > _EPS
        ]


def build_supply_curves(cluster: Cluster, state: ClusterState) -> List[SupplyCurve]:
    """Build one :class:`SupplyCurve` per data center for this slot."""
    speeds = cluster.speeds
    powers = cluster.active_powers
    unit = powers / speeds
    order = np.argsort(unit, kind="stable")
    curves = []
    for i in range(cluster.num_datacenters):
        caps = state.availability[i, order] * speeds[order]
        curves.append(
            SupplyCurve(
                class_order=order.copy(),
                capacities=caps,
                unit_powers=unit[order].copy(),
            )
        )
    return curves
