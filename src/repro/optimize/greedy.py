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
:meth:`SlotServiceProblem.cost_segments`, which merges the
server-efficiency curve with the electricity pricing tiers — so the
greedy stays exact under any piecewise-linear convex pricing
(Section III-A2), not just the flat per-slot price.

The solver runs in ``O(N (J log J + K log K))`` per slot and is the
default backend for GreFar with ``beta = 0``.  Its walk,
:func:`greedy_walk`, is also the linear-minimization oracle of the
beta > 0 solver (:mod:`repro.optimize.qp`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.optimize.slot_problem import SlotServiceProblem

__all__ = ["WalkInputs", "greedy_walk", "solve_greedy", "walk_inputs"]

_EPS = 1e-12


class WalkInputs(NamedTuple):
    """The slot-fixed inputs of :func:`greedy_walk`; see :func:`walk_inputs`."""

    h_upper: np.ndarray
    demands: np.ndarray
    #: ``demands`` as Python floats.
    dem: list
    #: Per site, the work ``h_upper * d`` each type wants, as Python floats.
    wanted: list
    #: Per site, the merged marginal-cost curve's widths, ``V * cost/work``
    #: and segment count, as Python floats (rows past the count are padding).
    widths: list
    costs: list
    counts: list


def walk_inputs(problem: SlotServiceProblem) -> WalkInputs:
    """Everything :func:`greedy_walk` needs from *problem* but the weights.

    A beta > 0 slot walks ~3 times with different weights; building
    these once keeps the per-walk work to the weights themselves.  The
    segments are the slot's row of the scenario's cost-curve table
    (:meth:`SlotServiceProblem.cost_segments`), each cost per work scaled
    by ``V`` here, once, instead of at every step of every walk.
    """
    demands = problem.cluster.demands
    work, cost, count = problem.cost_segments()
    return WalkInputs(
        problem.h_upper,
        demands,
        demands.tolist(),
        (problem.h_upper * demands).tolist(),
        work.tolist(),
        (problem.v * cost).tolist(),
        count.tolist(),
    )


def greedy_walk(weights: np.ndarray, walk: WalkInputs) -> tuple:
    """Exactly minimize ``V e(h) - weights . h`` per site; return ``(h, V e)``.

    *walk* holds the slot-fixed inputs (:func:`walk_inputs`), among them
    one merged marginal-cost curve per site
    (:meth:`SlotServiceProblem.cost_segments`).  The returned
    cost is the ``V e(h)`` the walk accumulated while matching demand
    against supply, so callers get the energy term without re-evaluating
    it.  Negative weights are never served.
    """
    h_upper, demands, dem, wanted, widths, costs, counts = walk
    # Demand side: value per unit work, most valuable first.
    values_all = weights / demands
    orders = (-values_all).argsort(axis=1, kind="stable").tolist()
    rows = []
    cost = 0.0

    for values, demand_order, work_wanted, site_work, site_cost, count in zip(
        values_all.tolist(), orders, wanted, widths, costs, counts
    ):
        served = [0.0] * len(dem)
        # Supply side: merged (servers x pricing tiers) marginal-cost
        # curve, cheapest work first.
        seg_idx = 0
        seg_remaining = site_work[0] if count else 0.0

        for j in demand_order:
            want = work_wanted[j]
            if want <= _EPS or values[j] <= _EPS:
                continue
            while want > _EPS and seg_idx < count:
                unit_cost = site_cost[seg_idx]
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
                    seg_remaining = site_work[seg_idx] if seg_idx < count else 0.0
            if seg_idx >= count:
                break
        rows.append(served)
    h = np.array(rows, dtype=np.float64).reshape(h_upper.shape)
    np.minimum(h, h_upper, out=h)
    return h, cost


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
    h, _ = greedy_walk(problem.queue_weights, walk_inputs(problem))
    return h
