"""Unit tests for :class:`repro.optimize.slot_problem.SlotServiceProblem`."""

import numpy as np
import pytest

from repro.model.action import Action
from repro.optimize.slot_problem import SlotServiceProblem


def _problem(cluster, state, q=None, ub=None, v=1.0, beta=0.0):
    n, j = cluster.num_datacenters, cluster.num_job_types
    q = np.full((n, j), 5.0) if q is None else np.asarray(q, dtype=float)
    ub = np.full((n, j), 10.0) if ub is None else np.asarray(ub, dtype=float)
    return SlotServiceProblem(
        cluster=cluster,
        state=state,
        queue_weights=q,
        h_upper=ub,
        v=v,
        beta=beta,
    )


class TestConstruction:
    def test_valid(self, cluster, state):
        p = _problem(cluster, state)
        assert p.total_resource == pytest.approx(36.0)

    def test_ineligible_upper_bounds_zeroed(self, cluster, state):
        p = _problem(cluster, state)
        # Type 1 is only eligible at site 1.
        assert p.h_upper[0, 1] == 0.0
        assert p.h_upper[1, 1] > 0

    def test_rejects_bad_shapes(self, cluster, state):
        with pytest.raises(ValueError):
            _problem(cluster, state, q=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            _problem(cluster, state, ub=np.zeros((1, 2)))

    def test_rejects_negative_v_or_beta(self, cluster, state):
        with pytest.raises(ValueError):
            _problem(cluster, state, v=-1.0)
        with pytest.raises(ValueError):
            _problem(cluster, state, beta=-1.0)


class TestObjective:
    def test_zero_service_costs_nothing(self, cluster, state):
        p = _problem(cluster, state)
        h = np.zeros((2, 2))
        assert p.energy_cost(h) == pytest.approx(0.0)
        assert p.objective(h) == pytest.approx(
            -p.v * p.beta * p.fairness_score(h) if p.beta else 0.0
        )

    def test_energy_uses_min_power(self, cluster, state):
        p = _problem(cluster, state)
        h = np.zeros((2, 2))
        h[0, 0] = 4.0  # 4 units of work at site 0
        # Cheapest: efficient servers at 0.625 power per work, price 0.4.
        assert p.energy_cost(h) == pytest.approx(0.4 * 4.0 * 0.625)

    def test_objective_includes_queue_reward(self, cluster, state):
        q = np.zeros((2, 2))
        q[0, 0] = 7.0
        p = _problem(cluster, state, q=q, v=2.0)
        h = np.zeros((2, 2))
        h[0, 0] = 1.0
        expected = 2.0 * 0.4 * 1.0 * 0.625 - 7.0
        assert p.objective(h) == pytest.approx(expected)

    def test_fairness_enters_objective(self, cluster, state):
        p = _problem(cluster, state, v=1.0, beta=10.0)
        h = np.zeros((2, 2))
        base = p.objective(h)
        # Serving account-0 work moves the allocation toward its target.
        h[0, 0] = 2.0
        assert isinstance(base, float)
        assert p.fairness_score(h) > p.fairness_score(np.zeros((2, 2)))

    def test_account_work_mapping(self, cluster, state):
        p = _problem(cluster, state)
        h = np.array([[2.0, 0.0], [0.0, 1.5]])
        np.testing.assert_allclose(p.account_work(h), [2.0, 3.0])


class TestBusyFor:
    def test_busy_covers_load(self, cluster, state):
        p = _problem(cluster, state)
        h = np.array([[3.0, 0.0], [2.0, 2.0]])
        busy = p.busy_for(h)
        caps = busy @ cluster.speeds
        loads = p.loads(h)
        assert np.all(caps >= loads - 1e-9)

    def test_busy_within_availability(self, cluster, state):
        p = _problem(cluster, state)
        h = np.minimum(p.h_upper, 5.0)
        busy = p.busy_for(h)
        assert np.all(busy <= state.availability + 1e-9)

    def test_action_for_is_feasible(self, cluster, state):
        p = _problem(cluster, state)
        h = np.array([[3.0, 0.0], [2.0, 2.0]])
        route = np.zeros((2, 2))
        Action(route, h, p.busy_for(h)).validate(cluster, state)


class TestFeasibility:
    def test_is_feasible_accepts_zero(self, cluster, state):
        p = _problem(cluster, state)
        assert p.is_feasible(np.zeros((2, 2)))

    def test_is_feasible_rejects_bound_violation(self, cluster, state):
        p = _problem(cluster, state, ub=np.full((2, 2), 1.0))
        h = np.full((2, 2), 2.0)
        assert not p.is_feasible(h)

    def test_is_feasible_rejects_capacity_violation(self, cluster, state):
        p = _problem(cluster, state, ub=np.full((2, 2), 100.0))
        h = np.zeros((2, 2))
        h[0, 0] = 30.0  # site capacity is 18
        assert not p.is_feasible(h)

    def test_clip_feasible(self, cluster, state):
        p = _problem(cluster, state, ub=np.full((2, 2), 100.0))
        h = np.full((2, 2), 50.0)
        clipped = p.clip_feasible(h)
        assert p.is_feasible(clipped)
