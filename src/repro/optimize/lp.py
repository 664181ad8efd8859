"""Reference LP backend for the beta = 0 slot problem, and the one HiGHS entry point.

Solves the exact linear program

.. math::

   \\min_{h, w}\\; V \\sum_i \\sum_s c_{is} w_{is} - \\sum_{ij} q_{ij} h_{ij}

where ``w_is`` is the work site *i* runs on segment *s* of its merged
marginal-cost curve (:meth:`SlotServiceProblem.cost_segments`),
priced at ``c_is`` per work, so any convex pricing tariff is exact.
Per-site capacity coupling (eq. 11), memory limits (footnote 3) and box
bounds complete it.  Slower than
:func:`repro.optimize.greedy.solve_greedy` but makes no structural
assumptions; it is an independent cross-check (the property tests
assert both backends agree), the beta = 0 backend on memory-limited
clusters and the beta > 0 oracle there.

:func:`highs` is the one place the package calls an LP solver: this
backend, the lookahead comparator's frames and the receding-horizon
planner all go through it.  It loads the solver on its first call, so
a process that never solves an LP never pays for that import.
"""

from __future__ import annotations

import math

import numpy as np

from repro.optimize.slot_problem import SlotServiceProblem, SolverFailure

__all__ = ["highs", "solve_lp"]

#: HiGHS reads a cost of 1e20 or more as infinite.  A slot LP whose
#: costs reach past this bound, far above any instance but a fairness
#: gradient at a near-empty site, has them divided by a power of two.
_COST_BOUND = 2.0**60


def highs(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, bounds: list):
    """``min c . x  s.t.  a_ub x <= b_ub``, *x* boxed by *bounds*, by HiGHS.

    Returns the ``OptimizeResult`` whatever the outcome: each caller
    decides what a failed solve means.  The import below runs the
    module loader on the first call only; later calls find the loaded
    module and look ``linprog`` up again, so a patched one is honoured.
    """
    from scipy.optimize import linprog

    return linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")


def solve_lp(problem: SlotServiceProblem) -> np.ndarray:
    """Solve the beta = 0 slot problem with the HiGHS LP; return ``h``."""
    if problem.beta > 0:
        raise ValueError("solve_lp handles beta = 0 only; use solve_qp for beta > 0")
    cluster = problem.cluster
    n = cluster.num_datacenters
    j_count = cluster.num_job_types
    demands = cluster.demands
    work, cost, count = problem.cost_segments()
    used = np.arange(work.shape[1]) < count[:, np.newaxis]
    widths = work[used].tolist()

    num_h = n * j_count
    num_vars = num_h + len(widths)

    # Variable layout: [h_00..h_0J, h_10.., ..., w_0s.., w_1s.., ...]
    c = np.concatenate([-problem.queue_weights.ravel(), problem.v * cost[used]])
    peak = float(np.abs(c).max(initial=0.0))
    if peak > _COST_BOUND:
        # Exact, and the minimizer is unchanged.
        c = np.ldexp(c, -math.ceil(math.log2(peak / _COST_BOUND)))

    # Capacity coupling: sum_j d_j h_ij - sum_s w_is <= 0 per site.
    rows = []
    limits = []
    offset = num_h
    for i, seg_count in enumerate(count.tolist()):
        row = np.zeros(num_vars)
        row[i * j_count : (i + 1) * j_count] = demands
        row[offset : offset + seg_count] = -1.0
        offset += seg_count
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
    bounds += [(0.0, width) for width in widths]

    result = highs(c, a_ub, b_ub, bounds)
    if not result.success:
        raise SolverFailure("lp", f"slot LP failed: {result.message}", problem)
    h = result.x[:num_h].reshape(n, j_count)
    if not np.all(np.isfinite(h)):
        raise SolverFailure("lp", "non-finite LP solution", problem)
    return h
