"""Cross-checks between the per-slot solver backends.

The greedy backend is provably exact for beta = 0; the LP backend is an
independently-derived formulation of the same problem; the QP backend
must match them at beta = 0 and never do worse than greedy at beta > 0;
randomized instances exercise all of it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.state import ClusterState
from repro.optimize import SlotServiceProblem, solve_greedy, solve_lp, solve_qp
from repro.scenarios import small_cluster


def _random_problem(seed: int, v: float = 5.0, beta: float = 0.0):
    cluster = small_cluster()
    rng = np.random.default_rng(seed)
    n, j = cluster.num_datacenters, cluster.num_job_types
    availability = np.stack(
        [np.floor(dc.max_servers * rng.uniform(0.5, 1.0)) for dc in cluster.datacenters]
    )
    prices = rng.uniform(0.1, 1.0, size=n)
    state = ClusterState(availability, prices)
    q = rng.uniform(0.0, 20.0, size=(n, j))
    ub = rng.uniform(0.0, 15.0, size=(n, j))
    return SlotServiceProblem(
        cluster=cluster,
        state=state,
        queue_weights=q,
        h_upper=ub,
        v=v,
        beta=beta,
    )


class TestGreedy:
    def test_serves_nothing_when_prices_too_high(self, cluster, state):
        # Queue value 1 per job (demand 1): threshold is V*price*w = huge.
        q = np.full((2, 2), 1.0)
        problem = SlotServiceProblem(
            cluster=cluster,
            state=state,
            queue_weights=q,
            h_upper=np.full((2, 2), 10.0),
            v=1000.0,
        )
        h = solve_greedy(problem)
        np.testing.assert_allclose(h, 0.0)

    def test_serves_everything_at_v_zero(self, cluster, state):
        q = np.full((2, 2), 1.0)
        ub = np.full((2, 2), 3.0)
        problem = SlotServiceProblem(
            cluster=cluster,
            state=state,
            queue_weights=q,
            h_upper=ub,
            v=0.0,
        )
        h = solve_greedy(problem)
        np.testing.assert_allclose(h, problem.h_upper)

    def test_threshold_rule_single_site(self, tiny_cluster):
        """Serve iff q/d > V * price * p/s (the W constant of the paper)."""
        state = ClusterState(np.array([[4.0]]), [0.5])
        # w = p/s = 0.5; V=4 -> threshold = 4 * 0.5 * 0.5 = 1.0 per work.
        for q_val, expect_service in [(0.5, False), (2.0, True)]:
            problem = SlotServiceProblem(
                cluster=tiny_cluster,
                state=state,
                queue_weights=np.array([[q_val]]),
                h_upper=np.array([[5.0]]),
                v=4.0,
            )
            h = solve_greedy(problem)
            assert (h[0, 0] > 0) == expect_service

    def test_respects_capacity(self):
        problem = _random_problem(7)
        h = solve_greedy(problem)
        assert problem.is_feasible(h)

    def test_rejects_beta(self):
        problem = _random_problem(0, beta=1.0)
        with pytest.raises(ValueError):
            solve_greedy(problem)


class TestGreedyVsLp:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_objectives_match(self, seed):
        problem = _random_problem(seed, v=np.random.default_rng(seed).uniform(0, 20))
        h_greedy = solve_greedy(problem)
        h_lp = solve_lp(problem)
        obj_greedy = problem.objective(h_greedy)
        obj_lp = problem.objective(h_lp)
        assert obj_greedy == pytest.approx(obj_lp, abs=1e-6)

    def test_lp_rejects_beta(self):
        problem = _random_problem(0, beta=1.0)
        with pytest.raises(ValueError):
            solve_lp(problem)


class TestQp:
    def test_matches_greedy_at_beta_zero(self):
        for seed in range(5):
            problem = _random_problem(seed, beta=0.0)
            h_qp = solve_qp(problem)
            h_greedy = solve_greedy(problem)
            assert problem.objective(h_qp) == pytest.approx(
                problem.objective(h_greedy), abs=1e-6
            )

    def test_beta_positive_never_worse_than_greedy_relaxation(self):
        for seed in range(8):
            problem = _random_problem(seed, v=5.0, beta=20.0)
            h_qp = solve_qp(problem)
            assert problem.is_feasible(h_qp, tol=1e-5)
            relaxed = _random_problem(seed, v=5.0, beta=0.0)
            h_greedy = solve_greedy(relaxed)
            # QP optimizes the true objective: it must not be worse than
            # the greedy warm start evaluated on the same objective.
            assert problem.objective(h_qp) <= problem.objective(h_greedy) + 1e-6

    def test_fairness_pull_increases_underserved_service(self, cluster, state):
        """beta > 0 serves an underserved account even at break-even prices."""
        # Queue weight exactly at the V * price * w threshold: greedy idles.
        q = np.zeros((2, 2))
        q[1, 1] = 1.0  # account 1's type, below threshold
        v = 10.0
        problem = SlotServiceProblem(
            cluster=cluster,
            state=state,
            queue_weights=q,
            h_upper=np.full((2, 2), 5.0),
            v=v,
            beta=500.0,
        )
        h = solve_qp(problem)
        # With a strong fairness pull the allocation moves off zero.
        assert h.sum() > 0.01
