"""The optimal T-step lookahead policy (Section V-A) — Theorem 1's comparator.

The horizon is divided into ``R`` frames of ``T`` slots.  Within each
frame the policy knows every arrival, availability and price in advance
and minimizes the frame-average cost (15) subject to the aggregate flow
constraints (16)-(17) and per-slot capacity (18).

**Variable elimination.**  Routing ``r_ij(t)`` appears only in the
constraints.  Choosing the witness ``r_ij(t) = h_ij(t)`` satisfies (17)
with equality and turns (16) into "aggregate service covers aggregate
arrivals": ``sum_t sum_{i in D_j} h_ij(t) >= sum_t a_j(t)``.  This is
lossless: any feasible ``(r, h)`` yields a feasible ``h`` for the
reduced problem with the same cost, and vice versa (taking ``h`` bounded
by ``min(h^max, r^max)`` so the witness respects eq. (4)).

**Integrality.**  The paper's ``r_ij(t)`` are integers; we solve the LP
relaxation, so the reported frame costs ``G*_r`` are lower bounds on
the true lookahead optimum.  Verifying the Theorem 1 cost bound against
a *lower* bound of the comparator is the conservative direction.

For ``beta = 0`` each frame is a linear program (HiGHS); for
``beta > 0`` a convex program solved with SLSQP and analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize

from repro._validation import ValueEquality, require_integer, require_non_negative
from repro.fairness.base import FairnessFunction
from repro.fairness.quadratic import QuadraticFairness
from repro.model.action import account_work
from repro.model.cluster import Cluster

__all__ = ["LookaheadPolicy", "LookaheadSolution", "frame_program"]


def frame_program(
    cluster: Cluster,
    prices: np.ndarray,
    availability: np.ndarray,
    demand: np.ndarray,
    h_bound: np.ndarray,
) -> tuple:
    """The frame LP ``min c.x  s.t.  A_ub x <= b_ub``, boxed by *bounds*.

    The frame has ``T = len(prices)`` slots; *prices* is ``(T, N)`` and
    *availability* ``(T, N, K)``.  The variables ``x = (h, b)`` are the
    service ``(T, N, J)`` then the busy servers ``(T, N, K)``, each
    flattened in C order.  ``c`` prices the busy servers at
    ``phi_i(t) p_k``.  The rows are per-slot capacity (18),
    ``sum_j d_j h_ijt - sum_k s_k b_ikt <= 0``, then coverage
    ``sum_{t, i in D_j} h_ijt >= demand_j``.  ``h`` is boxed by
    *h_bound* ``(N, J)`` and ``b`` by the availability.

    Returns ``(c, A_ub, b_ub, bounds)``, ready for ``scipy.optimize.linprog``.
    """
    t_len, n = prices.shape
    j_count, k_count = cluster.num_job_types, cluster.num_server_classes
    slots = t_len * n
    num_h = slots * j_count
    energy = (prices[:, :, np.newaxis] * cluster.active_powers).ravel()
    c = np.concatenate([np.zeros(num_h), energy])
    # Capacity: row t*N + i holds d in its h block and -s in its b block.
    rows = np.arange(slots)[:, np.newaxis]
    capacity = np.zeros((slots, num_h + slots * k_count))
    capacity[rows, rows * j_count + np.arange(j_count)] = cluster.demands
    capacity[rows, num_h + rows * k_count + np.arange(k_count)] = -cluster.speeds
    # Coverage: row j holds -1 at every (t, i in D_j, j); one slot's block, tiled.
    per_slot = np.eye(j_count, dtype=bool)[:, np.newaxis, :] & cluster.eligibility_matrix()
    coverage = np.zeros((j_count, capacity.shape[1]))
    coverage[:, :num_h] = np.tile(np.where(per_slot, -1.0, 0.0).reshape(j_count, -1), t_len)
    a_ub = np.vstack([capacity, coverage])
    b_ub = np.concatenate([np.zeros(slots), -demand])
    upper = np.concatenate([np.tile(h_bound.ravel(), t_len), availability.ravel()])
    return c, a_ub, b_ub, [(0.0, ub) for ub in upper.tolist()]


@dataclass(frozen=True, eq=False)
class LookaheadSolution(ValueEquality):
    """Result of solving every frame of the lookahead policy.

    Attributes
    ----------
    frame_costs:
        ``G*_r`` for each frame: the minimum frame-average cost (19).
    mean_cost:
        ``(1/R) sum_r G*_r`` — the benchmark of Theorem 1b.
    service:
        ``(T_total, N, J)`` optimal service decisions.
    busy:
        ``(T_total, N, K)`` optimal busy-server decisions.
    """

    frame_costs: np.ndarray
    mean_cost: float
    service: np.ndarray
    busy: np.ndarray


class LookaheadPolicy:
    """Offline frame-by-frame optimal policy with full future knowledge.

    Parameters
    ----------
    cluster:
        Static system description.
    arrivals, availability, prices:
        The full scenario: ``(T, J)``, ``(T, N, K)`` and ``(T, N)``.
    lookahead:
        Frame length ``T``.  The horizon must be a multiple of it.
    beta, fairness:
        Energy-fairness cost parameters (eq. 6).
    """

    def __init__(
        self,
        cluster: Cluster,
        arrivals: np.ndarray,
        availability: np.ndarray,
        prices: np.ndarray,
        lookahead: int,
        beta: float = 0.0,
        fairness: FairnessFunction | None = None,
    ) -> None:
        self.cluster = cluster
        self.arrivals = np.asarray(arrivals, dtype=np.float64)
        self.availability = np.asarray(availability, dtype=np.float64)
        self.prices = np.asarray(prices, dtype=np.float64)
        horizon = self.arrivals.shape[0]
        require_integer(lookahead, "lookahead", minimum=1)
        if horizon % lookahead != 0:
            raise ValueError(
                f"horizon {horizon} must be a multiple of the lookahead {lookahead}"
            )
        require_non_negative(beta, "beta")
        n, j_count = cluster.num_datacenters, cluster.num_job_types
        k_count = cluster.num_server_classes
        if self.arrivals.shape != (horizon, j_count):
            raise ValueError(f"arrivals must have shape (T, {j_count})")
        if self.availability.shape != (horizon, n, k_count):
            raise ValueError(f"availability must have shape (T, {n}, {k_count})")
        if self.prices.shape != (horizon, n):
            raise ValueError(f"prices must have shape (T, {n})")
        self.lookahead = int(lookahead)
        self.beta = float(beta)
        self.fairness = fairness if fairness is not None else QuadraticFairness()
        # h is bounded by min(h^max, r^max) so r = h is a legal witness.
        self._h_bound = np.minimum(
            cluster.max_service_matrix(), cluster.max_route_matrix()
        )

    # ------------------------------------------------------------------
    def solve(self) -> LookaheadSolution:
        """Solve every frame; return costs and the optimal decisions."""
        horizon = self.arrivals.shape[0]
        frames = horizon // self.lookahead
        n, j_count = self.cluster.num_datacenters, self.cluster.num_job_types
        k_count = self.cluster.num_server_classes
        service = np.zeros((horizon, n, j_count))
        busy = np.zeros((horizon, n, k_count))
        costs = np.zeros(frames)
        for r in range(frames):
            start = r * self.lookahead
            stop = start + self.lookahead
            h, b, cost = self._solve_frame(start, stop)
            service[start:stop] = h
            busy[start:stop] = b
            costs[r] = cost
        return LookaheadSolution(
            frame_costs=costs,
            mean_cost=float(costs.mean()),
            service=service,
            busy=busy,
        )

    # ------------------------------------------------------------------
    def _solve_frame(self, start: int, stop: int) -> tuple:
        """``(h, b, G*_r)`` of frame ``[start, stop)``: the LP, refined by SLSQP if beta > 0."""
        program = frame_program(
            self.cluster,
            self.prices[start:stop],
            self.availability[start:stop],
            self.arrivals[start:stop].sum(axis=0),
            self._h_bound,
        )
        c, a_ub, b_ub, bounds = program
        result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        if not result.success:
            raise RuntimeError(
                f"lookahead frame [{start}, {stop}) infeasible or failed: "
                f"{result.message} (check the slackness conditions)"
            )
        x, cost = result.x, float(result.fun)
        if not math.isclose(self.beta, 0.0, abs_tol=1e-12):
            x, cost = self._solve_frame_convex(program, x, start, stop)
        t_len = stop - start
        num_h = t_len * self._h_bound.size
        h = x[:num_h].reshape(t_len, *self._h_bound.shape)
        b = x[num_h:].reshape(t_len, *self.availability.shape[1:])
        return h, b, cost / t_len

    def _solve_frame_convex(self, program: tuple, x0: np.ndarray, start: int, stop: int) -> tuple:
        """Refine the frame's LP optimum *x0* under the fairness term (SLSQP)."""
        c, a_ub, b_ub, bounds = program
        cluster = self.cluster
        t_len = stop - start
        num_h = t_len * self._h_bound.size
        h_shape = (t_len, *self._h_bound.shape)
        energy_coeff = c[num_h:]
        demands = cluster.demands
        shares = cluster.fair_shares
        account_of_type = cluster.account_of_type
        speeds = cluster.speeds
        totals = np.array(
            [float(np.dot(self.availability[t].sum(axis=0), speeds)) for t in range(start, stop)]
        )

        def unfairness(x: np.ndarray) -> float:
            h = x[:num_h].reshape(h_shape)
            total = 0.0
            for t in range(t_len):
                total -= self.fairness.score(account_work(cluster, h[t]), totals[t], shares)
            return total

        # Gradient of the unfairness term with respect to h.
        def unfairness_grad(x: np.ndarray) -> np.ndarray:
            h = x[:num_h].reshape(h_shape)
            grad = np.zeros_like(x)
            gh = np.zeros(h_shape)
            for t in range(t_len):
                fg = self.fairness.gradient(account_work(cluster, h[t]), totals[t], shares)
                gh[t] = -(fg[account_of_type] * demands)
            grad[:num_h] = gh.ravel()
            return grad

        def objective(x: np.ndarray) -> float:
            return float(np.dot(energy_coeff, x[num_h:])) + self.beta * unfairness(x)

        def gradient(x: np.ndarray) -> np.ndarray:
            grad = self.beta * unfairness_grad(x)
            grad[num_h:] += energy_coeff
            return grad

        constraints = [
            {
                "type": "ineq",
                "fun": lambda x: b_ub - a_ub @ x,
                "jac": lambda x: -a_ub,
            }
        ]
        result = minimize(
            objective,
            x0,
            jac=gradient,
            bounds=bounds,
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": 200, "ftol": 1e-9},
        )
        x = result.x if result.success else x0
        if objective(x) > objective(x0):
            x = x0
        return x, objective(x)
