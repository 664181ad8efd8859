"""Reference LP backend for the beta = 0 slot problem (scipy.linprog).

Solves the exact linear program

.. math::

   \\min_{h, w}\\; V \\sum_i \\sum_s c_{is} w_{is} - \\sum_{ij} q_{ij} h_{ij}

where ``w_is`` is the work site *i* runs on segment *s* of its merged
marginal-cost curve (:meth:`SlotServiceProblem.marginal_cost_segments`),
priced at ``c_is`` per work, so any convex pricing tariff is exact.
Per-site capacity coupling (eq. 11), memory limits (footnote 3) and box
bounds complete it.  Slower than
:func:`repro.optimize.greedy.solve_greedy` but makes no structural
assumptions; it is an independent cross-check (the property tests
assert both backends agree), the beta = 0 backend on memory-limited
clusters and the beta > 0 oracle there.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.obs.instruments import timed
from repro.optimize import SolverFailure
from repro.optimize.slot_problem import SlotServiceProblem

__all__ = ["solve_lp"]


@timed("solve.lp")
def solve_lp(problem: SlotServiceProblem) -> np.ndarray:
    """Solve the beta = 0 slot problem with scipy's HiGHS LP; return ``h``."""
    if problem.beta > 0:
        raise ValueError("solve_lp handles beta = 0 only; use solve_qp for beta > 0")
    cluster = problem.cluster
    n = cluster.num_datacenters
    j_count = cluster.num_job_types
    demands = cluster.demands
    segments = [problem.marginal_cost_segments(i) for i in range(n)]
    widths = [width for site in segments for width, _ in site]

    num_h = n * j_count
    num_vars = num_h + len(widths)

    # Variable layout: [h_00..h_0J, h_10.., ..., w_0s.., w_1s.., ...]
    c = np.concatenate(
        [
            -problem.queue_weights.ravel(),
            problem.v * np.array([cost for site in segments for _, cost in site]),
        ]
    )

    # Capacity coupling: sum_j d_j h_ij - sum_s w_is <= 0 per site.
    rows = []
    limits = []
    offset = num_h
    for i, site in enumerate(segments):
        row = np.zeros(num_vars)
        row[i * j_count : (i + 1) * j_count] = demands
        row[offset : offset + len(site)] = -1.0
        offset += len(site)
        rows.append(row)
        limits.append(0.0)
    # Memory constraint (footnote 3): sum_j mem_j h_ij <= memcap_i.
    mem_demands = cluster.memory_demands
    mem_caps = cluster.memory_capacities
    if np.any(mem_demands > 0):
        for i in range(n):
            if not np.isfinite(mem_caps[i]):
                continue
            row = np.zeros(num_vars)
            row[i * j_count : (i + 1) * j_count] = mem_demands
            rows.append(row)
            limits.append(float(mem_caps[i]))
    a_ub = np.array(rows)
    b_ub = np.array(limits)

    bounds = [(0.0, float(ub)) for ub in problem.h_upper.ravel()]
    bounds += [(0.0, float(width)) for width in widths]

    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise SolverFailure("lp", f"slot LP failed: {result.message}", problem)
    h = result.x[:num_h].reshape(n, j_count)
    if not np.all(np.isfinite(h)):
        raise SolverFailure("lp", "non-finite LP solution", problem)
    return h
