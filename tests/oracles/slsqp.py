"""Reference SLSQP solvers for the fairness-aware (beta > 0) problems.

:func:`solve_slsqp` solves GreFar's slot problem (14) and
:func:`solve_frame_slsqp` one frame of the T-step lookahead comparator
(15)-(18).  With the paper's quadratic fairness (eq. 3) the slot problem is a
convex QP in ``(h, b)``: the energy term is linear in ``b``, the queue
reward linear in ``h``, and ``-beta f`` a convex quadratic in the
per-account work (itself linear in ``h``).  This oracle hands the whole
problem to scipy's SLSQP with analytic gradients, warm-started from the
beta = 0 optimum (the greedy walk for a slot, the frame LP for a frame).
They are slow and give no optimality certificate; tests use them as
independently derived cross-checks on the Frank-Wolfe solves of
:func:`repro.optimize.qp.solve_qp` and
:class:`repro.schedulers.lookahead.LookaheadPolicy`.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog, minimize

from repro.model.action import account_work
from repro.optimize.greedy import solve_greedy
from repro.optimize.slot_problem import SlotServiceProblem
from repro.schedulers.lookahead import LookaheadPolicy, frame_program

__all__ = ["solve_frame_slsqp", "solve_slsqp"]


def solve_slsqp(
    problem: SlotServiceProblem,
    max_iterations: int = 200,
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Minimize the slot objective with SLSQP over ``(h, b)``; return ``h``."""
    cluster = problem.cluster
    state = problem.state
    n = cluster.num_datacenters
    j_count = cluster.num_job_types
    k_count = cluster.num_server_classes
    demands = cluster.demands
    speeds = cluster.speeds
    powers = cluster.active_powers
    num_h = n * j_count

    # Warm start: exact beta = 0 optimum plus its optimal busy counts.
    relaxed = SlotServiceProblem(
        cluster=cluster,
        state=state,
        queue_weights=problem.queue_weights,
        h_upper=problem.h_upper,
        v=problem.v,
        pricing=problem.pricing,
    )
    h0 = problem.clip_feasible(solve_greedy(relaxed))
    b0 = problem.busy_for(h0)
    x0 = np.concatenate([h0.ravel(), b0.ravel()])

    q_flat = problem.queue_weights.ravel()
    pricing = problem.pricing

    def split(x: np.ndarray) -> tuple:
        return x[:num_h].reshape(n, j_count), x[num_h:].reshape(n, k_count)

    def energy_cost(b: np.ndarray) -> float:
        draws = b @ powers
        return float(sum(pricing.total_cost(draws[i], state.prices[i]) for i in range(n)))

    def energy_grad(b: np.ndarray) -> np.ndarray:
        draws = b @ powers
        marginals = np.array(
            [pricing.marginal_price(draws[i], state.prices[i]) for i in range(n)]
        )
        return marginals[:, np.newaxis] * powers[np.newaxis, :]

    def objective(x: np.ndarray) -> float:
        h, b = split(x)
        value = problem.v * energy_cost(b) - float(np.dot(q_flat, x[:num_h]))
        return value - problem.v * problem.beta * problem.fairness_score(h)

    def gradient(x: np.ndarray) -> np.ndarray:
        h, b = split(x)
        grad = np.empty_like(x)
        grad[num_h:] = problem.v * energy_grad(b).ravel()
        fair_grad = problem.fairness.gradient(
            problem.account_work(h), problem.total_resource, cluster.fair_shares
        )
        # d(account_work_m)/d(h_ij) = d_j when rho_j = m.
        per_type = fair_grad[cluster.account_of_type] * demands
        grad_h = -problem.queue_weights - problem.v * problem.beta * per_type[np.newaxis, :]
        grad[:num_h] = grad_h.ravel()
        return grad

    # Per-site capacity coupling: sum_k s_k b_ik - sum_j d_j h_ij >= 0,
    # plus the memory constraint memcap_i - sum_j mem_j h_ij >= 0 where
    # finite (footnote 3).
    rows = []
    offsets = []
    for i in range(n):
        row = np.zeros(x0.size)
        row[i * j_count : (i + 1) * j_count] = -demands
        row[num_h + i * k_count : num_h + (i + 1) * k_count] = speeds
        rows.append(row)
        offsets.append(0.0)
    mem_caps = cluster.memory_capacities
    if np.any(cluster.memory_demands > 0):
        for i in range(n):
            if not np.isfinite(mem_caps[i]):
                continue
            row = np.zeros(x0.size)
            row[i * j_count : (i + 1) * j_count] = -cluster.memory_demands
            rows.append(row)
            offsets.append(float(mem_caps[i]))
    a = np.array(rows)
    c = np.array(offsets)
    constraints = [{"type": "ineq", "fun": lambda x: a @ x + c, "jac": lambda x: a}]

    bounds = [(0.0, float(ub)) for ub in problem.h_upper.ravel()]
    bounds += [(0.0, float(avail)) for avail in state.availability.ravel()]

    result = minimize(
        objective,
        x0,
        jac=gradient,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": max_iterations, "ftol": tolerance},
    )
    h_opt = problem.clip_feasible(split(result.x)[0])
    # SLSQP can stall on degenerate slots; never return something worse
    # than the warm start.
    if problem.objective(h_opt) > problem.objective(h0) + 1e-9:
        return h0
    return h_opt


def solve_frame_slsqp(policy: LookaheadPolicy, start: int, stop: int) -> tuple:
    """SLSQP on the frame ``[start, stop)`` of *policy*, from its beta = 0 LP optimum.

    Returns ``(start_cost, cost)``, the frame-average objective (19) of
    the LP optimum and of SLSQP's result (never worse than the start).
    """
    cluster = policy.cluster
    h_bound = np.minimum(cluster.max_service_matrix(), cluster.max_route_matrix())
    c, a_ub, b_ub, bounds = frame_program(
        cluster,
        policy.prices[start:stop],
        policy.availability[start:stop],
        policy.arrivals[start:stop].sum(axis=0),
        h_bound,
    )
    x0 = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs").x
    t_len = stop - start
    num_h = t_len * h_bound.size
    h_shape = (t_len, *h_bound.shape)
    energy_coeff = c[num_h:]
    demands = cluster.demands
    shares = cluster.fair_shares
    account_of_type = cluster.account_of_type
    totals = policy.availability[start:stop].sum(axis=1) @ cluster.speeds

    def objective(x: np.ndarray) -> float:
        h = x[:num_h].reshape(h_shape)
        unfairness = -sum(
            policy.fairness.score(account_work(cluster, h[t]), totals[t], shares)
            for t in range(t_len)
        )
        return float(np.dot(energy_coeff, x[num_h:])) + policy.beta * unfairness

    def gradient(x: np.ndarray) -> np.ndarray:
        h = x[:num_h].reshape(h_shape)
        gh = np.zeros(h_shape)
        for t in range(t_len):
            fg = policy.fairness.gradient(account_work(cluster, h[t]), totals[t], shares)
            gh[t] = -(fg[account_of_type] * demands)
        return np.concatenate([policy.beta * gh.ravel(), energy_coeff])

    constraints = [{"type": "ineq", "fun": lambda x: b_ub - a_ub @ x, "jac": lambda x: -a_ub}]
    result = minimize(
        objective,
        x0,
        jac=gradient,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-9},
    )
    start_cost = objective(x0)
    cost = min(objective(result.x), start_cost) if result.success else start_cost
    return start_cost / t_len, cost / t_len
