"""The energy-fairness cost ``g(t)`` of eq. (6) and its pieces.

``g(t) = e(t) - beta * f(t)`` combines the electricity cost (eq. 2)
with the fairness score (eq. 3) through the energy-fairness parameter
``beta``: ``beta = 0`` ignores fairness entirely, ``beta -> inf``
ignores energy.  These evaluators are shared by the simulator metrics,
the offline lookahead policy and the Theorem 1 verification harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import require_non_negative
from repro.fairness.base import FairnessFunction
from repro.fairness.quadratic import QuadraticFairness
from repro.model.action import Action, energy_per_site
from repro.model.cluster import Cluster
from repro.model.state import ClusterState

__all__ = ["CostModel", "SlotCost"]


@dataclass(frozen=True)
class SlotCost:
    """The cost components of one slot."""

    energy: float
    fairness: float
    combined: float
    bandwidth: float = 0.0


@dataclass(frozen=True)
class CostModel:
    """Evaluator for the instantaneous energy-fairness cost.

    Parameters
    ----------
    beta:
        Energy-fairness parameter ``beta >= 0`` of eq. (6).
    fairness:
        The fairness function ``f``; defaults to the paper's quadratic
        deviation score.
    pricing:
        Electricity pricing model; ``None`` means the paper's linear
        cost.
    include_idle_power:
        The paper normalizes idle power to zero because scheduling only
        controls the busy/idle *difference*; set this to True to report
        absolute bills instead: every available server additionally
        draws its :attr:`~repro.model.server.ServerClass.idle_power`.
        This shifts every scheduler's cost by the same state-dependent
        amount, so comparisons are unchanged — it exists for absolute
        cost reporting.
    """

    beta: float = 0.0
    fairness: FairnessFunction = field(default_factory=QuadraticFairness)
    pricing: object = field(default=None)
    include_idle_power: bool = False

    def __post_init__(self) -> None:
        require_non_negative(self.beta, "beta")

    def idle_energy_cost(self, cluster: Cluster, state: ClusterState) -> float:
        """Cost of the idle draw of every available server this slot."""
        idle_powers = np.array([c.idle_power for c in cluster.server_classes])
        draws = state.availability @ idle_powers
        if self.pricing is None:
            return float(np.dot(state.prices, draws))
        return float(np.sum(energy_per_site(state.prices, draws, self.pricing)))

    def evaluate(self, cluster: Cluster, state: ClusterState, action: Action) -> SlotCost:
        """Compute ``e(t)``, ``f(t)`` and ``g(t)`` for one slot."""
        energy = action.energy_cost(cluster, state, self.pricing)
        if self.include_idle_power:
            energy += self.idle_energy_cost(cluster, state)
        # Bandwidth (ingress) cost of the routed work, when sites charge
        # for it — the [2] extension; zero in the base model.
        routed_work = action.route @ cluster.demands
        bandwidth = float(np.dot(cluster.ingress_costs, routed_work))
        total = state.total_resource(cluster)
        if total > 0:
            # The unchecked kernel: an Action's account work is non-negative
            # and has the shares' shape.
            score = self.fairness._score(
                action.account_work(cluster), total, cluster.fair_shares
            )
        else:
            score = 0.0
        return SlotCost(
            energy=energy,
            fairness=score,
            combined=energy + bandwidth - self.beta * score,
            bandwidth=bandwidth,
        )
