"""The per-slot service subproblem shared by all solver backends.

GreFar's slot objective (14) separates into a *routing* part (linear in
``r_ij``, solved in closed form by the scheduler) and a *service* part
in ``(h, b)``:

.. math::

   \\min_{h, b}\\; V\\, e(t) - V\\beta\\, f(t) - \\sum_{ij} q_{ij}(t)\\, h_{ij}(t)

subject to eq. (11) and the box bounds.  :class:`SlotServiceProblem`
captures one instance of this problem — the queue weights, price and
availability snapshot, upper bounds and fairness model — and offers the
objective/feasibility evaluations every backend and every cross-check
test needs, on the slot arithmetic of :mod:`repro.model.action`.

Only the queue-dependent parts are built per problem.  Supply,
capacities, ``R(t)`` and the merged marginal-cost curves are the
state's row of its :class:`~repro.model.environment.SlotEnvironment`,
computed once per scenario (or per hand-built state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro._validation import require_non_negative
from repro.fairness.base import FairnessFunction
from repro.fairness.quadratic import QuadraticFairness
from repro.model.action import account_work, energy_per_site, within
from repro.model.cluster import Cluster
from repro.model.environment import supply_matrix
from repro.model.pricing import LinearPricing, PricingModel
from repro.model.state import ClusterState

__all__ = ["BETA_ZERO_TOL", "SlotServiceProblem", "SolverFailure", "busy_counts", "supply_matrix"]

_EPS = 1e-9
#: Work below this is treated as none by the cheapest-first walk.
_WORK_EPS = 1e-12

#: Fairness pulls at or below this are indistinguishable from beta = 0 in
#: the float objective; solvers treat them as zero (see ``has_fairness``).
BETA_ZERO_TOL = 1e-12


class SolverFailure(RuntimeError):
    """A slot backend could not return a usable service matrix.

    Parameters
    ----------
    backend:
        The backend name (``"lp"``, ``"qp"``, ...).
    message:
        What went wrong (solver status message, "non-finite solution",
        ...).
    problem:
        The :class:`SlotServiceProblem` instance, when available; its
        ``v``/``beta`` and shapes are summarized into :attr:`context`.
    context:
        Extra key/value context merged into :attr:`context`.
    """

    def __init__(self, backend: str, message: str, problem=None, **context):
        self.backend = backend
        self.context = dict(context)
        if problem is not None:
            self.context.setdefault("v", float(problem.v))
            self.context.setdefault("beta", float(problem.beta))
            self.context.setdefault("shape", tuple(problem.h_upper.shape))
        super().__init__(f"{backend} backend failed: {message}")


@dataclass(eq=False)
class SlotServiceProblem:
    """One slot's service optimization instance.

    Parameters
    ----------
    cluster, state:
        System description and the slot snapshot ``x(t)``; the state's
        slot-table row supplies supply, capacities, ``R(t)`` and the
        cost curves (:meth:`~repro.model.state.ClusterState.environment`).
    queue_weights:
        ``(N, J)`` matrix of data center queue lengths ``q_ij(t)`` —
        the linear reward for serving.
    h_upper:
        ``(N, J)`` upper bounds on ``h_ij`` (the eq. (5) bound,
        intersected with queue contents when running physically).
    v:
        Cost-delay parameter ``V >= 0``.
    beta:
        Energy-fairness parameter ``beta >= 0``.
    fairness:
        Fairness function ``f``; defaults to the paper's quadratic.
    pricing:
        Electricity pricing model (Section III-A2); defaults to the
        paper's linear ``cost = price * energy``.  Any convex pricing
        keeps the slot problem convex; piecewise-linear pricing (linear
        or tiered) keeps the greedy backend exact.
    """

    cluster: Cluster
    state: ClusterState
    queue_weights: np.ndarray
    h_upper: np.ndarray
    v: float
    beta: float = 0.0
    fairness: FairnessFunction = field(default_factory=QuadraticFairness)
    pricing: PricingModel = field(default_factory=LinearPricing)

    def __post_init__(self) -> None:
        shape = (self.cluster.num_datacenters, self.cluster.num_job_types)
        for name in ("queue_weights", "h_upper"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            setattr(self, name, arr)
        require_non_negative(self.v, "v")
        require_non_negative(self.beta, "beta")
        elig = self.cluster.eligibility_matrix()
        self.h_upper = np.where(elig, np.maximum(self.h_upper, 0.0), 0.0)
        table, t = self.state.environment(self.cluster)
        self._slot = (table, t)
        self._supply = table.supply[t]
        self._capacities = table.capacities[t]
        self._total_resource = float(table.total_resource[t])

    # ------------------------------------------------------------------
    # Static views
    # ------------------------------------------------------------------
    @property
    def has_fairness(self) -> bool:
        """True when the fairness pull materially affects the objective.

        Betas below :data:`BETA_ZERO_TOL` are treated as zero so the
        exact greedy backend remains usable — at that magnitude the
        fairness term is below float noise in the objective (14).
        """
        return self.beta > BETA_ZERO_TOL

    @property
    def total_resource(self) -> float:
        """``R(t)`` for the fairness normalization."""
        return self._total_resource

    def site_capacities(self) -> np.ndarray:
        """All site work capacities this slot (length ``N``)."""
        return self._capacities

    # ------------------------------------------------------------------
    # Objective pieces
    # ------------------------------------------------------------------
    def loads(self, h: np.ndarray) -> np.ndarray:
        """Work each site must process for service matrix *h*."""
        return h @ self.cluster.demands

    def memory_used(self, h: np.ndarray) -> np.ndarray:
        """Memory held per site by the jobs *h* processes (footnote 3)."""
        return h @ self.cluster.memory_demands

    def energy_cost(self, h: np.ndarray) -> float:
        """Minimum electricity cost ``e(t)`` to serve *h*.

        Prices the cheapest-first busy counts ``busy_for(h)`` with the
        configured pricing model; cheapest-servers-first remains optimal
        for any increasing pricing because cost is increasing in energy.
        """
        draws = self.busy_for(h) @ self.cluster.active_powers
        return float(np.sum(energy_per_site(self.state.prices, draws, self.pricing)))

    def cost_segments(self) -> tuple:
        """This slot's merged marginal-cost curves: ``(work, cost, count)``.

        Row *t* of :meth:`~repro.model.environment.SlotEnvironment.segments`
        for the problem's pricing: ``(N, S)`` widths and costs per work,
        and the ``N`` segment counts; see there for how supply and
        pricing tiers merge.
        """
        table, t = self._slot
        work, cost, count = table.segments(self.pricing)
        return work[t], cost[t], count[t]

    def marginal_cost_segments(self, i: int) -> List[tuple]:
        """Merged marginal-cost curve of site *i*: ``[(work, cost/work)]``, cheapest first."""
        work, cost, count = self.cost_segments()
        used = count[i]
        return list(zip(work[i, :used].tolist(), cost[i, :used].tolist()))

    def account_work(self, h: np.ndarray) -> np.ndarray:
        """Per-account work ``r_m(t)`` implied by service matrix *h*."""
        return account_work(self.cluster, h)

    def fairness_score(self, h: np.ndarray) -> float:
        """Fairness ``f(t)`` of the allocation implied by *h*."""
        return self.fairness.score(
            self.account_work(h), self._total_resource, self.cluster.fair_shares
        )

    def objective(self, h: np.ndarray) -> float:
        """The slot objective ``V e - V beta f - sum q h`` at *h*.

        Uses the optimal (supply-curve) busy counts for the implied
        loads, which is always optimal because ``b`` only appears in the
        energy term.
        """
        value = self.v * self.energy_cost(h)
        if self.beta > 0:
            value -= self.v * self.beta * self.fairness_score(h)
        value -= float(np.sum(self.queue_weights * h))
        return value

    def busy_for(self, h: np.ndarray, loads: Optional[np.ndarray] = None) -> np.ndarray:
        """Optimal busy-server matrix ``b`` for service matrix *h*.

        *loads* is ``loads(h)``, if the caller has it already.
        """
        if loads is None:
            loads = self.loads(h)
        return busy_counts(self.cluster, self._supply, loads, self._capacities)

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def is_feasible(
        self, h: np.ndarray, tol: float = 1e-6, loads: Optional[np.ndarray] = None
    ) -> bool:
        """Check box, eligibility, capacity and memory constraints for *h*.

        *loads* is ``loads(h)``, if the caller has it already.
        """
        if h.shape != self.h_upper.shape:
            return False
        if (h < -tol).any() or (h > self.h_upper + tol).any():
            return False
        if loads is None:
            loads = self.loads(h)
        if not within(loads, self._capacities, tol):
            return False
        cluster = self.cluster
        return not cluster.has_memory_constraints or within(
            self.memory_used(h), cluster.memory_capacities, tol
        )

    def clip_feasible(self, h: np.ndarray) -> np.ndarray:
        """Project *h* to the box; rescale per-site to fit capacity/memory.

        Returns a fresh read-only array, so an
        :class:`~repro.model.action.Action` can keep it without a copy.
        """
        out = np.clip(h, 0.0, self.h_upper)
        # Python floats: at a few sites numpy's per-call cost dominates.
        scales = [
            min(1.0, cap / load) if load > cap + _EPS and load > 0 else 1.0
            for load, cap in zip(self.loads(out).tolist(), self._capacities.tolist())
        ]
        cluster = self.cluster
        if cluster.has_memory_constraints:
            memory = zip(self.memory_used(out).tolist(), cluster.memory_capacities.tolist())
            for i, (used, limit) in enumerate(memory):
                if used > limit + _EPS and used > 0:
                    scales[i] = min(scales[i], limit / used)
        for i, scale in enumerate(scales):
            if scale < 1.0:
                out[i] *= scale
        out.flags.writeable = False
        return out


def busy_counts(
    cluster: Cluster, supply: np.ndarray, loads: np.ndarray, totals: Optional[np.ndarray] = None
) -> np.ndarray:
    """Cheapest-first busy-server matrix ``b`` carrying *loads* work per site.

    For a site with availability ``n_ik`` the cheapest way to provide
    ``c`` units of work is to fill server classes in increasing order of
    energy per unit work ``p_k / s_k`` -- a fractional-knapsack argument,
    exact because power and capacity are both linear in ``b_ik``.  So
    the minimum power ``P_i(c) = b_i. @ p`` is piecewise linear and
    convex in ``c``.  *supply* is :func:`supply_matrix` for the slot and
    *totals* its row sums, if the caller has them already; the result is
    a fresh read-only ``(N, K)`` array in the original class order, which
    an :class:`~repro.model.action.Action` keeps without a copy.  Raises
    ``ValueError`` for a negative load or one beyond the site total.
    """
    if totals is None:
        totals = supply.sum(axis=1)
    if np.any(loads < -_WORK_EPS):
        raise ValueError(f"site loads must be non-negative, got {loads}")
    over = loads > totals * (1.0 + 1e-9) + 1e-9
    if np.any(over):
        i = int(np.argmax(over))
        raise ValueError(
            f"requested capacity {loads[i]} exceeds site total {totals[i]} at site {i}"
        )
    speeds = cluster.speeds.tolist()
    order = cluster.class_order.tolist()
    busy = [[0.0] * len(speeds) for _ in range(supply.shape[0])]
    for row, caps, load, total in zip(busy, supply.tolist(), loads.tolist(), totals.tolist()):
        remaining = min(load, total) if load > 0.0 else 0.0  # NaN serves nothing
        for cap, k in zip(caps, order):
            take = min(cap, remaining)
            if take > _WORK_EPS:
                row[k] = take / speeds[k]
            remaining -= take
    # Built directly, not reshaped: a reshape would be a view of a
    # writable array, which an Action copies.
    out = np.array(busy, dtype=np.float64) if busy else np.zeros((0, len(speeds)))
    out.flags.writeable = False
    return out
