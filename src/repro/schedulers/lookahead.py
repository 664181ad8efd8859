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
``beta > 0`` a convex program, solved by GreFar's Frank-Wolfe loop from
that LP's optimum with the frame LP as oracle, to a certified gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._validation import ValueEquality, require_integer, require_non_negative
from repro.fairness.base import FairnessFunction
from repro.fairness.quadratic import QuadraticFairness
from repro.model.cluster import Cluster
from repro.obs.registry import stats_registry
from repro.optimize.lp import highs
from repro.optimize.qp import conditional_gradient

__all__ = ["LookaheadPolicy", "LookaheadSolution", "frame_program"]

#: Frank-Wolfe steps allowed per beta > 0 frame.  The small scenario's
#: frames need up to ~350 to close the gap; no pinned frame reaches this.
_FRAME_ITERATIONS = 2000


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

    Returns ``(c, A_ub, b_ub, bounds)``, ready for :func:`~repro.optimize.lp.highs`.
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
    frame_gaps:
        Certified bound on each ``G*_r`` minus the frame optimum (the
        Frank-Wolfe gap, per slot; 0.0 at beta = 0), so
        ``frame_costs - frame_gaps`` bounds the optimum from below.
    mean_cost:
        ``(1/R) sum_r G*_r`` — the benchmark of Theorem 1b.
    service:
        ``(T_total, N, J)`` optimal service decisions.
    busy:
        ``(T_total, N, K)`` optimal busy-server decisions.
    """

    frame_costs: np.ndarray
    frame_gaps: np.ndarray
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
        gaps = np.zeros(frames)
        for r in range(frames):
            start = r * self.lookahead
            stop = start + self.lookahead
            service[start:stop], busy[start:stop], costs[r], gaps[r] = self._solve_frame(
                start, stop
            )
        return LookaheadSolution(
            frame_costs=costs,
            frame_gaps=gaps,
            mean_cost=float(costs.mean()),
            service=service,
            busy=busy,
        )

    # ------------------------------------------------------------------
    def _solve_frame(self, start: int, stop: int) -> tuple:
        """``(h, b, G*_r, gap)`` of frame ``[start, stop)``: the LP, then Frank-Wolfe if beta > 0."""
        program = frame_program(
            self.cluster,
            self.prices[start:stop],
            self.availability[start:stop],
            self.arrivals[start:stop].sum(axis=0),
            self._h_bound,
        )
        result = _frame_lp(program[0], program, start, stop)
        x, cost, gap = result.x, float(result.fun), 0.0
        if not math.isclose(self.beta, 0.0, abs_tol=1e-12):
            x, cost, gap = self._solve_frame_convex(program, x, start, stop)
        t_len = stop - start
        num_h = t_len * self._h_bound.size
        h = x[:num_h].reshape(t_len, *self._h_bound.shape)
        b = x[num_h:].reshape(t_len, *self.availability.shape[1:])
        return h, b, cost / t_len, gap / t_len

    def _solve_frame_convex(self, program: tuple, x0: np.ndarray, start: int, stop: int) -> tuple:
        """``(x, cost, gap)`` of ``min c . x - beta sum_t f(r_t)`` by Frank-Wolfe from *x0*.

        ``c . x`` is linear, so the oracle is the frame LP with the
        fairness linearization ``g[t, rho_j] d_j`` added to ``h_ijt``'s cost.
        """
        c = program[0]
        cluster = self.cluster
        t_len = stop - start
        n, j_count, m = cluster.num_datacenters, cluster.num_job_types, cluster.num_accounts
        num_h = t_len * n * j_count
        shares, fairness, beta = cluster.fair_shares, self.fairness, self.beta
        totals = self.availability[start:stop].sum(axis=1) @ cluster.speeds
        # A slot without capacity serves nothing, and f is undefined there.
        live = np.flatnonzero(totals > 0)
        # Per-type work -> per-account totals: r_t = h_t.sum(0) @ to_account.
        to_account = cluster.type_to_account

        def vertex(x: np.ndarray) -> tuple:
            r = x[:num_h].reshape(t_len, n, j_count).sum(axis=1) @ to_account
            return x, float(c @ x), r.ravel()

        def oracle(g: np.ndarray) -> tuple:
            per_type = g.reshape(t_len, m) @ to_account.T
            cost = c.copy()
            cost[:num_h] += np.broadcast_to(per_type[:, np.newaxis], (t_len, n, j_count)).ravel()
            return vertex(_frame_lp(cost, program, start, stop).x)

        # The unchecked kernels, as in a GreFar slot: HiGHS keeps x inside
        # its bounds, so every r lies in the hull of non-negative totals.
        def grad(r: np.ndarray) -> np.ndarray:
            per_slot = r.reshape(t_len, m)
            g = np.zeros((t_len, m))
            for t in live:
                g[t] = -beta * fairness._gradient(per_slot[t], totals[t], shares)
            return g.ravel()

        def value(r: np.ndarray) -> float:
            per_slot = r.reshape(t_len, m)
            return -beta * sum(fairness._score(per_slot[t], totals[t], shares) for t in live)

        if not fairness.concave:
            stats_registry().counter_add("solve.qp.uncertified")
        lam, xs, gap, _ = conditional_gradient(
            oracle, vertex(x0), grad, value, _FRAME_ITERATIONS, 1e-9
        )
        x, psi, r = vertex(lam @ np.stack(xs))
        return x, psi + value(r), gap


def _frame_lp(c: np.ndarray, program: tuple, start: int, stop: int):
    """HiGHS on *program*'s constraints with the costs *c*; raises if it fails."""
    result = highs(c, *program[1:])
    if not result.success:
        raise RuntimeError(
            f"lookahead frame [{start}, {stop}) infeasible or failed: "
            f"{result.message} (check the slackness conditions)"
        )
    return result
