"""Blended pairwise Frank-Wolfe for the fairness-aware (beta > 0) problems.

The loop, :func:`conditional_gradient`, solves GreFar's slot problem
(14) as below and the lookahead's frames (15)-(18) over the frame LP.

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
Every step ends in an exact line search.  The certificate needs a
concave ``f``; solves through one that is not (Jain's index) count as
``solve.qp.uncertified``.

A slot is tiny (N = 3, J = 8, M = 4 on the paper scenario, ~2 steps and
~3 oracle calls), so its cost is numpy call overhead, not arithmetic.
What depends only on the slot is built once per slot: the walk's inputs
(:func:`~repro.optimize.greedy.walk_inputs`) and, once per cluster,
``Cluster.type_to_account``.  Each step reuses the loop's gradient for
the line search's slope at 0 and evaluates ``F`` only when the gap
exceeds the bare tolerance.  A pairwise step updates just its two
weights.  As a dense ``+-1`` direction ``d`` it would add only exact
zeros to ``psi . d`` and ``d . rs`` (``x + 0.0 == x``), so
``psi[t] - psi[w]`` and ``rs[t] - rs[w]`` have the same values (an
exact zero may change sign, which no comparison or fairness kernel
downstream can tell apart).  Newton steps keep their dense direction.

Memory-constrained clusters use the LP as the oracle, because the greedy
walk cannot see the footnote-3 memory coupling.  The solve starts from
the beta = 0 optimum, so it never does worse than ignoring fairness.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.obs.registry import metrics_registry, stats_registry
from repro.optimize.greedy import greedy_walk, solve_greedy, walk_inputs
from repro.optimize.lp import solve_lp
from repro.optimize.slot_problem import SlotServiceProblem

__all__ = ["conditional_gradient", "frank_wolfe", "solve_qp"]

#: Weights below this are dropped from the active vertex set.
_DROP = 1e-15
#: Root-finding steps allowed per line search.
_LINE_SEARCH_STEPS = 60
#: Curvature below this fraction of the largest counts as flat.
_FLAT = 1e-10


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
    walk = walk_inputs(problem)

    def greedy_oracle(weights: np.ndarray) -> tuple:
        return greedy_walk(weights, walk)

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
    # Per-type work -> per-account totals: r(h) = h.sum(0) . to_account.
    to_account = cluster.type_to_account
    oracle = _oracle(problem)

    def vertex(weights: np.ndarray) -> tuple:
        h, energy = oracle(weights)
        return h, energy - float((queue * h).sum()), h.sum(axis=0).dot(to_account)

    first = vertex(queue)
    if total <= 0:
        # Every site is out: the feasible set is {0} and f is undefined.
        return first[0], 0.0, 0
    if not fairness.concave:
        stats_registry().counter_add("solve.qp.uncertified")

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
    combined = lam.dot(np.array(hs).reshape(len(hs), -1)).reshape(problem.h_upper.shape)
    return np.minimum(combined, problem.h_upper), gap, iterations


def conditional_gradient(
    vertex, first: tuple, grad, value, max_iterations: int, tolerance: float
) -> tuple:
    """Blended pairwise Frank-Wolfe for ``min Psi(x) + F(r(x))`` over a polytope.

    *vertex* is the oracle ``g -> (x, Psi(x), r(x))`` minimizing
    ``Psi(x) + g . r(x)`` (``Psi`` convex, ``r`` linear), *first* the
    start in that form, and *grad*/*value* give ``F`` at ``r``.  Returns
    ``(weights, vertices, gap, iterations)``: ``gap`` bounds the
    objective at ``sum weights_v x_v`` minus the optimum, and the loop
    stops once it is at most ``tolerance * max(1, |objective|)``
    (*tolerance* >= 0).  Runs that stop at *max_iterations* are counted
    as ``solve.qp.capped``.
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
        r = lam.dot(rs)
        g = grad(r)
        lin = psi + rs.dot(g)
        worst = int(lin.argmax())
        if iterations == max_iterations:
            stats_registry().counter_add("solve.qp.capped")
            break
        iterations += 1
        direction = None
        if not stalled and lin[worst] - lin.min() > 0.5 * gap:
            # The active vertices are far from their own optimum: improve
            # inside their hull before asking the oracle for a new one.
            direction = _newton_direction(lam, lin, rs, r, g, grad)
        if direction is None:
            x_s, psi_s, r_s = vertex(g)
            gap = float(lam.dot(lin)) - (psi_s + float(r_s.dot(g)))
            # max(1, |objective|) >= 1, so a gap within the bare tolerance
            # stops without evaluating F.
            if gap <= tolerance:
                break
            objective = float(lam.dot(psi)) + value(r)
            if gap <= tolerance * max(1.0, abs(objective)):
                break
            target = next((k for k, x_v in enumerate(xs) if (x_v == x_s).all()), len(xs))
            if target == worst:
                break
            if target == len(xs):
                xs.append(x_s)
                psi = np.concatenate((psi, [psi_s]))
                rs = np.concatenate((rs, r_s[np.newaxis, :]))
                lam = np.concatenate((lam, [0.0]))
            # Pairwise step: move weight from the worst vertex to the new one.
            d_psi = float(psi[target] - psi[worst])
            limit = float(lam[worst])
            step = _line_search(d_psi, r, rs[target] - rs[worst], limit, g, grad)
            if step <= 0.0:
                break
            # At step == limit this leaves lam[worst] exactly 0.0.
            lam[worst] -= step
            lam[target] += step
        else:
            shrinking = direction < 0
            ratios = lam[shrinking] / -direction[shrinking]
            limit = float(ratios.min())
            step = _line_search(
                float(psi.dot(direction)), r, direction.dot(rs), limit, g, grad
            )
            if step <= 0.0:
                stalled = True
                continue
            lam = lam + step * direction
            if step == limit:
                lam[np.flatnonzero(shrinking)[int(ratios.argmin())]] = 0.0
        stalled = False
        if not lam.min() > _DROP:
            keep = lam > _DROP
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


def _line_search(
    d_psi: float, r: np.ndarray, d_r: np.ndarray, limit: float, g: np.ndarray, grad
) -> float:
    """Minimize ``d_psi * t + F(r + t d_r)`` over ``t`` in ``[0, limit]``.

    *g* is ``grad(r)``.  The derivative ``d_psi + grad(r + t d_r) . d_r``
    is non-decreasing, so the minimizer is its root, bracketed and found
    by Illinois (safeguarded secant) steps.  For the quadratic fairness
    the derivative is affine and the first secant step is exact.
    """

    def slope(t: float) -> float:
        return d_psi + float(grad(r + t * d_r).dot(d_r))

    lo, s_lo = 0.0, d_psi + float(g.dot(d_r))
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
