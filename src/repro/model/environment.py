"""The queue-independent slot inputs of a whole trace, computed once.

Site capacities, ``R(t)`` of eq. (3), the cheapest-first supply curve,
the fastest usable speed (Section III-B) and the merged marginal-cost
curve depend on ``x(t) = {n_i(t), phi_i(t)}`` alone, never on the
queues.  :class:`SlotEnvironment` holds them for every slot of a trace
as float arrays, built once; a state reads only its own row (see
:meth:`~repro.model.state.ClusterState.environment`).
"""

from __future__ import annotations

import numpy as np

from repro.model.cluster import Cluster
from repro.model.pricing import PricingModel

__all__ = ["SlotEnvironment", "supply_matrix"]

#: Supply below this work is no segment at all.
_WORK_EPS = 1e-12
#: Work and tier energy below this count as spent.
_EPS = 1e-9


def _sealed(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def supply_matrix(cluster: Cluster, availability: np.ndarray) -> np.ndarray:
    """Work capacity ``n_ik s_k`` by site and server class, over any leading axes.

    Classes (the last axis) follow ``cluster.class_order``, cheapest
    work first.
    """
    order = cluster.class_order
    return availability[..., order] * cluster.speeds[order]


class SlotEnvironment:
    """The queue-independent inputs of every slot of a trace; all read-only.

    *availability* ``(T, N, K)`` and *prices* ``(T, N)`` are kept by
    reference.  ``supply`` is :func:`supply_matrix`, ``capacities`` its
    ``(T, N)`` row sums, ``total_resource`` their ``(T,)`` sums ``R(t)``,
    ``fastest`` the ``(T, N)`` speed of the fastest class with a server
    up (0 if none); :meth:`segments` adds a pricing model's cost curves.
    """

    def __init__(self, cluster: Cluster, availability: np.ndarray, prices: np.ndarray) -> None:
        self.cluster = cluster
        self.prices = prices
        self.supply = _sealed(supply_matrix(cluster, availability))
        self.capacities = _sealed(self.supply.sum(axis=-1))
        self.total_resource = _sealed(self.capacities.sum(axis=-1))
        self.fastest = _sealed(np.where(availability > 0, cluster.speeds, 0.0).max(axis=-1))
        self._segments: list = []

    def segments(self, pricing: PricingModel) -> tuple:
        """``(work, cost, count)``: each site's merged marginal-cost curve.

        Segment ``s < count[t, i]`` of site ``i`` in slot ``t`` is
        ``work[t, i, s]`` units of work at ``cost[t, i, s]`` per unit,
        cheapest first; ``(T, N, S)`` rows are zero-padded.  The curve
        walks the supply segments (work at power-per-work ``w``) and the
        pricing tiers (energy at cost-per-energy ``u``) together: work is
        charged ``w * u`` until the segment or the tier runs out.  Both
        curves are non-decreasing, so the merged one is convex and greedy
        matching against it is exact.  Built once per pricing (by ``==``).
        """
        for key, table in self._segments:
            if key is pricing or key == pricing:
                return table
        unit_powers = self.cluster.ordered_unit_powers
        sites = zip(self.supply.reshape(-1, len(unit_powers)).tolist(), self.prices.ravel().tolist())
        curves = [_merged_curve(caps, unit_powers, list(pricing.tiers(price))) for caps, price in sites]
        depth = max(map(len, curves), default=0)
        padded = np.array([curve + [(0.0, 0.0)] * (depth - len(curve)) for curve in curves])
        padded = padded.reshape(*self.prices.shape, depth, 2)
        count = np.array([len(curve) for curve in curves]).reshape(self.prices.shape)
        table = (_sealed(padded[..., 0]), _sealed(padded[..., 1]), _sealed(count))
        self._segments.append((pricing, table))
        return table


def _merged_curve(supply: list, unit_powers: tuple, tiers: list) -> list:
    """One site's merged marginal-cost curve ``[(work, cost/work)]``, cheapest first."""
    segments = []
    tier_idx = 0
    tier_energy_left = tiers[0][0] if tiers else float("inf")
    for cap, unit_power in zip(supply, unit_powers):
        if cap <= _WORK_EPS:
            continue
        work_left = cap
        while work_left > _EPS and tier_idx < len(tiers):
            unit_cost = tiers[tier_idx][1]
            if unit_power <= _EPS:
                work_in_tier = work_left
            else:
                work_in_tier = min(work_left, tier_energy_left / unit_power)
            if work_in_tier > _EPS:
                segments.append((work_in_tier, unit_power * unit_cost))
            work_left -= work_in_tier
            tier_energy_left -= work_in_tier * unit_power
            if tier_energy_left <= _EPS:
                tier_idx += 1
                tier_energy_left = tiers[tier_idx][0] if tier_idx < len(tiers) else 0.0
    return segments
