"""Ablation: per-slot solver backends (speed and agreement).

DESIGN.md calls out the solver choice: the closed-form greedy is the
default for beta = 0 because it is orders of magnitude faster than the
scipy LP at identical decisions; the QP backend pays for fairness.
These are true microbenchmarks (many rounds).
"""

import numpy as np
import pytest

from repro.model.state import ClusterState
from repro.optimize import SlotServiceProblem, solve_greedy, solve_lp, solve_qp
from repro.scenarios import paper_cluster


def _slot_problem(beta: float = 0.0, seed: int = 0) -> SlotServiceProblem:
    cluster = paper_cluster()
    rng = np.random.default_rng(seed)
    availability = np.stack(
        [np.floor(dc.max_servers * rng.uniform(0.8, 1.0)) for dc in cluster.datacenters]
    )
    state = ClusterState(availability, rng.uniform(0.2, 0.8, size=3))
    n, j = cluster.num_datacenters, cluster.num_job_types
    return SlotServiceProblem(
        cluster=cluster,
        state=state,
        queue_weights=rng.uniform(0, 30, size=(n, j)),
        h_upper=rng.uniform(0, 20, size=(n, j)),
        v=7.5,
        beta=beta,
    )


@pytest.fixture(scope="module")
def problem():
    return _slot_problem()


@pytest.fixture(scope="module")
def fair_problem():
    return _slot_problem(beta=100.0)


def test_greedy_slot_solver(benchmark, problem):
    h = benchmark(solve_greedy, problem)
    assert problem.is_feasible(h)


def test_lp_slot_solver(benchmark, problem):
    h = benchmark(solve_lp, problem)
    # Identical objective to greedy (exactness cross-check under timing).
    assert problem.objective(h) == pytest.approx(
        problem.objective(solve_greedy(problem)), abs=1e-6
    )


def test_qp_slot_solver_beta(benchmark, fair_problem):
    h = benchmark(solve_qp, fair_problem)
    assert fair_problem.is_feasible(h, tol=1e-5)


def test_greedy_faster_than_lp(problem, benchmark):
    """The ablation's headline: greedy beats the LP by a wide margin."""
    import time

    def time_of(fn, reps=20):
        start = time.perf_counter()
        for _ in range(reps):
            fn(problem)
        return time.perf_counter() - start

    t_greedy = time_of(solve_greedy)
    t_lp = time_of(solve_lp)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert t_greedy < t_lp
