"""Closed-form greedy solver for the beta = 0 slot problem.

Without fairness the service subproblem decomposes per data center into
a fractional matching of *demand segments* (job types, valued at
``q_ij / d_j`` per unit work) against *supply segments* (server
classes, costing ``V phi_i p_k / s_k`` per unit work).  Pairing the
most valuable remaining demand with the cheapest remaining supply while
value strictly exceeds cost solves the LP exactly — this is the
threshold rule the paper describes below Algorithm 1 ("jobs are
processed only when ... electricity prices are sufficiently low",
with ``W = p_k / s_k``).

The supply side comes from
:meth:`SlotServiceProblem.marginal_cost_segments`, which merges the
server-efficiency curve with the electricity pricing tiers — so the
greedy stays exact under any piecewise-linear convex pricing
(Section III-A2), not just the flat per-slot price.

The solver runs in ``O(N (J log J + K log K))`` per slot and is the
default backend for GreFar with ``beta = 0``.  Its walk,
:func:`greedy_walk`, is also the linear-minimization oracle of the
beta > 0 solver (:mod:`repro.optimize.qp`).
"""

from __future__ import annotations

import numpy as np

from repro.obs.instruments import timed
from repro.optimize.slot_problem import SlotServiceProblem

__all__ = ["greedy_walk", "solve_greedy"]

_EPS = 1e-12


def greedy_walk(
    weights: np.ndarray,
    h_upper: np.ndarray,
    demands: np.ndarray,
    v: float,
    segments: list,
) -> tuple:
    """Exactly minimize ``V e(h) - weights . h`` per site; return ``(h, V e)``.

    *segments* holds one merged marginal-cost curve per site
    (:meth:`SlotServiceProblem.marginal_cost_segments`).  The returned
    cost is the ``V e(h)`` the walk accumulated while matching demand
    against supply, so callers get the energy term without re-evaluating
    it.  Negative weights are never served.
    """
    n, j_count = h_upper.shape
    h = np.zeros((n, j_count))
    cost = 0.0
    dem = demands.tolist()

    for i in range(n):
        # Demand side: value per unit work, most valuable first.
        values_arr = weights[i] / demands
        demand_order = np.argsort(-values_arr, kind="stable").tolist()
        values = values_arr.tolist()
        work_wanted = (h_upper[i] * demands).tolist()
        served = [0.0] * j_count
        # Supply side: merged (servers x pricing tiers) marginal-cost
        # curve, cheapest work first.
        site = segments[i]
        seg_idx = 0
        seg_remaining = site[0][0] if site else 0.0

        for j in demand_order:
            want = work_wanted[j]
            if want <= _EPS or values[j] <= _EPS:
                continue
            while want > _EPS and seg_idx < len(site):
                unit_cost = v * site[seg_idx][1]
                if values[j] <= unit_cost + _EPS:
                    # Cheapest remaining supply is already too expensive
                    # for this (and all less valuable) demand.
                    break
                take = min(want, seg_remaining)
                served[j] += take / dem[j]
                cost += take * unit_cost
                want -= take
                seg_remaining -= take
                if seg_remaining <= _EPS:
                    seg_idx += 1
                    seg_remaining = site[seg_idx][0] if seg_idx < len(site) else 0.0
            if seg_idx >= len(site):
                break
        h[i] = served
        np.minimum(h[i], h_upper[i], out=h[i])
    return h, cost


@timed("solve.greedy")
def solve_greedy(problem: SlotServiceProblem) -> np.ndarray:
    """Exactly minimize the beta = 0 slot objective; return ``h``.

    Raises ``ValueError`` if the problem carries a material fairness
    pull (``has_fairness``) — the greedy exchange argument needs a
    linear objective; use the QP backend for fairness-aware slots.
    """
    if problem.has_fairness:
        raise ValueError(
            "solve_greedy is exact only for beta = 0; use solve_qp for beta > 0"
        )
    segments = [problem.marginal_cost_segments(i) for i in range(problem.h_upper.shape[0])]
    h, _ = greedy_walk(
        problem.queue_weights, problem.h_upper, problem.cluster.demands, problem.v, segments
    )
    return h
