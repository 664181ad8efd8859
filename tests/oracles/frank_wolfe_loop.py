"""The beta > 0 slot solve as it was before its per-slot inputs were hoisted.

A verbatim copy of the blended pairwise Frank-Wolfe loop
(``frank_wolfe``, ``conditional_gradient``, ``_newton_direction``,
``_line_search``) and of the greedy threshold walk it calls as its
oracle, in the form that built every slot-fixed input on each call and
stepped along dense ``+-1`` pairwise directions.  The code in
``src/repro/optimize/`` must agree with it bit for bit (the same ``h``
with the same signs of zero, the same gap, the same iteration count and
the same ``solve.qp.capped`` increments); ``tests/test_slot_oracles.py``
checks that on hypothesis-generated slots.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.obs.registry import stats_registry
from repro.optimize.lp import solve_lp
from repro.optimize.slot_problem import SlotServiceProblem

__all__ = ["frank_wolfe", "greedy_walk"]

_EPS = 1e-12
_DROP = 1e-15
#: Root-finding steps allowed per line search.
_LINE_SEARCH_STEPS = 60
#: Curvature below this fraction of the largest counts as flat.
_FLAT = 1e-10


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
    dem = demands.tolist()
    # Demand side: value per unit work, most valuable first.
    values_all = weights / demands
    orders = np.argsort(-values_all, axis=1, kind="stable").tolist()
    wanted = (h_upper * demands).tolist()
    rows = []
    cost = 0.0

    for values, demand_order, work_wanted, site in zip(
        values_all.tolist(), orders, wanted, segments
    ):
        served = [0.0] * len(dem)
        # Supply side: merged (servers x pricing tiers) marginal-cost
        # curve, cheapest work first.
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
        rows.append(served)
    h = np.array(rows, dtype=np.float64).reshape(h_upper.shape)
    np.minimum(h, h_upper, out=h)
    return h, cost


def _oracle(problem: SlotServiceProblem):
    """``weights -> (h, V e(h))`` minimizing ``V e(h) - weights . h``."""
    cluster = problem.cluster
    if cluster.has_memory_constraints:

        def lp_oracle(weights: np.ndarray) -> tuple:
            relaxed = dataclasses.replace(problem, queue_weights=weights, beta=0.0)
            h = problem.clip_feasible(solve_lp(relaxed))
            return h, problem.v * problem.energy_cost(h)

        return lp_oracle
    segments = [problem.marginal_cost_segments(i) for i in range(cluster.num_datacenters)]

    def greedy_oracle(weights: np.ndarray) -> tuple:
        return greedy_walk(weights, problem.h_upper, cluster.demands, problem.v, segments)

    return greedy_oracle


def frank_wolfe(
    problem: SlotServiceProblem,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
) -> tuple:
    """Blended pairwise Frank-Wolfe on a ``has_fairness`` problem.

    Returns ``(h, gap, iterations)``: ``gap`` bounds
    ``problem.objective(h)`` minus the optimum (for a smooth concave
    ``f``; with max-min fairness it is only an estimate), and
    ``iterations`` counts steps after the warm start (see
    :func:`conditional_gradient`).
    """
    cluster = problem.cluster
    demands = cluster.demands
    account_of_type = cluster.account_of_type
    queue = problem.queue_weights
    total = problem.total_resource
    shares = cluster.fair_shares
    fairness = problem.fairness
    pull = problem.v * problem.beta
    # Per-type work -> per-account totals: r(h) = h.sum(0) @ to_account.
    to_account = np.zeros((cluster.num_job_types, cluster.num_accounts))
    to_account[np.arange(cluster.num_job_types), account_of_type] = demands
    oracle = _oracle(problem)

    def vertex(weights: np.ndarray) -> tuple:
        h, energy = oracle(weights)
        return h, energy - float(np.sum(queue * h)), h.sum(axis=0) @ to_account

    first = vertex(queue)
    if total <= 0:
        # Every site is out: the feasible set is {0} and f is undefined.
        return first[0], 0.0, 0

    # The unchecked kernels: every r the loop visits lies in the hull of
    # the vertices' non-negative account totals (up to rounding), and
    # total > 0 once past the outage check.
    lam, hs, gap, iterations = conditional_gradient(
        lambda g: vertex(queue - g[account_of_type] * demands),
        first,
        lambda r: -pull * fairness._gradient(r, total, shares),
        lambda r: -pull * fairness._score(r, total, shares),
        max_iterations,
        tolerance,
    )
    h = np.minimum(np.tensordot(lam, np.stack(hs), axes=1), problem.h_upper)
    return h, gap, iterations


def conditional_gradient(
    vertex, first: tuple, grad, value, max_iterations: int, tolerance: float
) -> tuple:
    """Blended pairwise Frank-Wolfe for ``min Psi(x) + F(r(x))`` over a polytope.

    *vertex* is the oracle ``g -> (x, Psi(x), r(x))`` minimizing
    ``Psi(x) + g . r(x)`` (``Psi`` convex, ``r`` linear), *first* the
    start in that form, and *grad*/*value* give ``F`` at ``r``.  Returns
    ``(weights, vertices, gap, iterations)``: ``gap`` bounds the
    objective at ``sum weights_v x_v`` minus the optimum.  Runs that stop
    at *max_iterations* are counted as ``solve.qp.capped``.
    """
    x0, psi0, r0 = first
    xs = [x0]
    psi = np.array([psi0])
    rs = r0[np.newaxis, :]
    lam = np.array([1.0])
    gap = np.inf
    iterations = 0
    stalled = False
    while True:
        r = lam @ rs
        g = grad(r)
        lin = psi + rs @ g
        worst = int(np.argmax(lin))
        if iterations == max_iterations:
            stats_registry().counter_add("solve.qp.capped")
            break
        iterations += 1
        direction = None
        if not stalled and lin[worst] - lin.min() > 0.5 * gap:
            # The active vertices are far from their own optimum: improve
            # inside their hull before asking the oracle for a new one.
            direction = _newton_direction(lam, lin, rs, r, g, grad)
        corrective = direction is not None
        if not corrective:
            x_s, psi_s, r_s = vertex(g)
            gap = float(lam @ lin) - (psi_s + float(r_s @ g))
            objective = float(lam @ psi) + value(r)
            if gap <= tolerance * max(1.0, abs(objective)):
                break
            target = next(
                (k for k, x_v in enumerate(xs) if np.array_equal(x_v, x_s)), len(xs)
            )
            if target == worst:
                break
            if target == len(xs):
                xs.append(x_s)
                psi = np.append(psi, psi_s)
                rs = np.vstack([rs, r_s])
                lam = np.append(lam, 0.0)
            # Pairwise step: move weight from the worst vertex to the new one.
            direction = np.zeros(len(lam))
            direction[worst], direction[target] = -1.0, 1.0
        shrinking = direction < 0
        ratios = lam[shrinking] / -direction[shrinking]
        limit = float(ratios.min())
        step = _line_search(float(psi @ direction), r, direction @ rs, limit, grad)
        if step <= 0.0:
            if not corrective:
                break
            stalled = True
            continue
        stalled = False
        lam = lam + step * direction
        if step == limit:
            lam[np.flatnonzero(shrinking)[int(np.argmin(ratios))]] = 0.0
        keep = lam > _DROP
        if not keep.all():
            xs = [x_v for x_v, kept in zip(xs, keep) if kept]
            psi, rs, lam = psi[keep], rs[keep], lam[keep]
        lam /= lam.sum()
    return lam, xs, max(gap, 0.0), iterations


def _newton_direction(lam, lin, rs, r, g, grad):
    """Newton direction for the lifted objective on the active face.

    Parametrizes the face by the edges from the heaviest vertex, takes
    the curvature of ``F`` along each edge by differencing its gradient
    toward the simplex interior, and solves the Newton system on the
    curved directions.  Where ``F`` is flat the objective is linear, so
    a descent component there is followed instead, out to the face
    boundary.  Returns None when no descent direction comes out.
    """
    base = int(np.argmax(lam))
    others = np.arange(len(lam)) != base
    edges = rs[others] - rs[base]
    slope = lin[others] - lin[base]
    eta = 1e-4 * lam[base]
    bent = np.array([(grad(r + eta * edge) - g) / eta for edge in edges])
    curvature = edges @ bent.T
    w, basis = np.linalg.eigh(0.5 * (curvature + curvature.T))
    proj = basis.T @ slope
    flat = w <= _FLAT * w.max()
    if flat.any() and np.abs(proj[flat]).max() > 1e-9 * np.abs(slope).max():
        y = -(basis[:, flat] @ proj[flat])
    else:
        y = -(basis[:, ~flat] @ (proj[~flat] / w[~flat]))
    if not slope @ y < 0.0:
        return None
    direction = np.zeros(len(lam))
    direction[others] = y
    direction[base] = -y.sum()
    return direction


def _line_search(d_psi: float, r: np.ndarray, d_r: np.ndarray, limit: float, grad) -> float:
    """Minimize ``d_psi * t + F(r + t d_r)`` over ``t`` in ``[0, limit]``.

    The derivative ``d_psi + grad(r + t d_r) . d_r`` is non-decreasing, so
    the minimizer is its root, bracketed and found by Illinois
    (safeguarded secant) steps.  For the quadratic fairness the
    derivative is affine and the first secant step is exact.
    """

    def slope(t: float) -> float:
        return d_psi + float(grad(r + t * d_r) @ d_r)

    lo, s_lo = 0.0, slope(0.0)
    if s_lo >= 0.0:
        return 0.0
    hi, s_hi = limit, slope(limit)
    if s_hi <= 0.0:
        return limit
    done = 1e-9 * -s_lo
    side = 0
    for _ in range(_LINE_SEARCH_STEPS):
        t = (lo * s_hi - hi * s_lo) / (s_hi - s_lo)
        if not lo < t < hi:
            break
        s = slope(t)
        if abs(s) <= done:
            return t
        if s < 0.0:
            lo, s_lo = t, s
            if side < 0:
                s_hi *= 0.5
            side = -1
        else:
            hi, s_hi = t, s
            if side > 0:
                s_lo *= 0.5
            side = 1
    # The slope is negative on [0, lo], so lo never does worse than 0.
    return lo
