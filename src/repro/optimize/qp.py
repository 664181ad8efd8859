"""Blended pairwise Frank-Wolfe solver for the fairness-aware (beta > 0) slot problem.

The slot objective (14) splits as ``Psi(h) + F(r(h))``.
``Psi(h) = V e(h) - q . h`` is convex and piecewise linear, and the
greedy threshold walk minimizes ``Psi(h) - w . h`` exactly over the
eq. (11) feasible set for any weights ``w``.  ``F(r) = -V beta f(r)``
is smooth and convex in the ``M`` per-account totals ``r(h)``.

Conditional gradient linearizes only ``F``: the oracle is the greedy
walk with weights ``q_ij + V beta d_j df/dr_{rho_j}``, returning a vertex
``h_v`` with its exact ``psi_v = Psi(h_v)`` and totals ``r_v``.  The
iterate is a convex combination of vertices scored by the lifted
objective ``sum lambda_v psi_v + F(sum lambda_v r_v)``, which bounds the
true objective at ``sum lambda_v h_v`` from above because ``Psi`` is
convex.  An oracle step moves weight from the worst active vertex
(highest linearized value) to the oracle's vertex.  The Frank-Wolfe gap,
the current linearized value minus the oracle's, certifies
``objective(h) - optimum <= gap``; the solve stops once it is below
``tolerance * max(1, |objective|)``.  While the active vertices' own
linearized values spread by more than half the last gap, a Newton step
over their hull replaces the oracle call (a blended conditional
gradient); it drops a vertex in one step where pairwise steps zig-zag.
On the paper scenario (V = 7.5, beta = 100, 2000 slots, seeds 3 and 4)
about 7% of slots take a Newton step; with pairwise steps alone 2-4
slots per run hit the iteration cap and the run is ~10% slower.
Every step ends in an exact line search.

Memory-constrained clusters use the LP as the oracle, because the greedy
walk cannot see the footnote-3 memory coupling.  The solve starts from
the beta = 0 optimum, so it never does worse than ignoring fairness.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.obs.instruments import timed
from repro.obs.registry import metrics_registry, stats_registry
from repro.optimize.greedy import greedy_walk, solve_greedy
from repro.optimize.lp import solve_lp
from repro.optimize.slot_problem import SlotServiceProblem

__all__ = ["frank_wolfe", "solve_qp"]

#: Weights below this are dropped from the active vertex set.
_DROP = 1e-15
#: Root-finding steps allowed per line search.
_LINE_SEARCH_STEPS = 60
#: Curvature below this fraction of the largest counts as flat.
_FLAT = 1e-10


@timed("solve.qp")
def solve_qp(
    problem: SlotServiceProblem,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Solve the slot problem for any ``beta >= 0``; return ``h``.

    Falls back to the exact greedy solution when ``beta == 0``.
    """
    if not problem.has_fairness:
        return solve_greedy(problem)
    h, gap, iterations = frank_wolfe(problem, max_iterations, tolerance)
    metrics_registry().note_solve(iterations=iterations, gap=gap)
    return h


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
    ``iterations`` counts steps after the warm start.  Runs that stop at
    *max_iterations* are counted as ``solve.qp.capped`` on the stats
    registry.
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

    def grad(r: np.ndarray) -> np.ndarray:
        return -pull * fairness.gradient(r, total, shares)

    h0, psi0, r0 = vertex(queue)
    if total <= 0:
        # Every site is out: the feasible set is {0} and f is undefined.
        return h0, 0.0, 0
    hs = [h0]
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
            h_s, psi_s, r_s = vertex(queue - g[account_of_type] * demands)
            gap = float(lam @ lin) - (psi_s + float(r_s @ g))
            objective = float(lam @ psi) - pull * fairness.score(r, total, shares)
            if gap <= tolerance * max(1.0, abs(objective)):
                break
            target = next(
                (k for k, h_v in enumerate(hs) if np.array_equal(h_v, h_s)), len(hs)
            )
            if target == worst:
                break
            if target == len(hs):
                hs.append(h_s)
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
            hs = [h_v for h_v, kept in zip(hs, keep) if kept]
            psi, rs, lam = psi[keep], rs[keep], lam[keep]
        lam /= lam.sum()
    h = np.minimum(np.tensordot(lam, np.stack(hs), axes=1), problem.h_upper)
    return h, max(gap, 0.0), iterations


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
