"""Unit tests for the GreFar scheduler (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.grefar import GreFarScheduler
from repro.model.action import Action
from repro.model.queues import QueueNetwork
from repro.model.state import ClusterState
from repro.optimize import solve_greedy, solve_lp, solve_qp


def _seed_queues(cluster, front=None, dc=None):
    """Build a queue network holding the given contents."""
    q = QueueNetwork(cluster)
    n, j = cluster.num_datacenters, cluster.num_job_types
    zeros = Action.idle(cluster)
    if front is not None:
        q.step(zeros, np.asarray(front, dtype=float), t=0)
    if dc is not None:
        dc = np.asarray(dc, dtype=float)
        route = dc * cluster.eligibility_matrix()
        action = Action(route, np.zeros((n, j)), np.zeros((n, cluster.num_server_classes)))
        q.step(action, np.zeros(j), t=0)
        # Refill the front queue so routing drained it as intended.
    return q


class TestConstruction:
    def test_valid(self, cluster):
        s = GreFarScheduler(cluster, v=7.5, beta=100.0)
        assert "7.5" in s.name and "100" in s.name

    def test_rejects_negative_v(self, cluster):
        with pytest.raises(ValueError):
            GreFarScheduler(cluster, v=-1.0)

    def test_rejects_negative_beta(self, cluster):
        with pytest.raises(ValueError):
            GreFarScheduler(cluster, beta=-1.0)


class TestRouting:
    def test_routes_to_smaller_backlog_site(self, cluster, state):
        scheduler = GreFarScheduler(cluster, v=5.0)
        q = QueueNetwork(cluster)
        # 4 type-0 jobs at the central queue; site 1 already backlogged.
        q.step(Action.idle(cluster), np.array([4.0, 0.0]), t=0)
        route0 = np.zeros((2, 2))
        route0[1, 0] = 2.0
        q.step(
            Action(route0, np.zeros((2, 2)), np.zeros((2, 2))),
            np.array([4.0, 0.0]),
            t=1,
        )
        action = scheduler.decide(2, state, q)
        # Site 0 (empty) should receive jobs before site 1 (backlog 2).
        assert action.route[0, 0] >= action.route[1, 0]

    def test_no_routing_when_site_queues_exceed_central(self, cluster, state):
        scheduler = GreFarScheduler(cluster, v=5.0)
        q = QueueNetwork(cluster)
        # Load the site queues heavily, leave the central queue light.
        route = np.zeros((2, 2))
        route[0, 0] = 10.0
        route[1, 0] = 10.0
        q.step(Action(route, np.zeros((2, 2)), np.zeros((2, 2))), np.zeros(2), t=0)
        q.step(Action.idle(cluster), np.array([1.0, 0.0]), t=1)
        action = scheduler.decide(2, state, q)
        # q_ij = 10 > Q_j = 1 everywhere: backpressure blocks routing.
        assert action.route.sum() == pytest.approx(0.0)

    def test_physical_routing_never_overdraws(self, cluster, state):
        scheduler = GreFarScheduler(cluster, v=5.0)
        q = QueueNetwork(cluster)
        q.step(Action.idle(cluster), np.array([3.0, 2.0]), t=0)
        action = scheduler.decide(1, state, q)
        for j in range(2):
            assert action.route[:, j].sum() <= q.front[j] + 1e-9

    def test_literal_routing_uses_bounds(self, cluster, state):
        scheduler = GreFarScheduler(cluster, v=5.0, physical=False)
        q = QueueNetwork(cluster)
        q.step(Action.idle(cluster), np.array([3.0, 0.0]), t=0)
        action = scheduler.decide(1, state, q)
        # Literal minimizer routes r_max to every eligible site with
        # q_ij < Q_j.
        assert action.route[0, 0] == pytest.approx(50.0)
        assert action.route[1, 0] == pytest.approx(50.0)

    def test_routing_is_integral(self, cluster, state):
        scheduler = GreFarScheduler(cluster, v=5.0)
        q = QueueNetwork(cluster)
        q.step(Action.idle(cluster), np.array([5.0, 3.0]), t=0)
        action = scheduler.decide(1, state, q)
        np.testing.assert_allclose(action.route, np.round(action.route))


class TestService:
    def test_high_price_defers_service(self, cluster):
        scheduler = GreFarScheduler(cluster, v=50.0)
        q = QueueNetwork(cluster)
        route = np.zeros((2, 2))
        route[0, 0] = 3.0
        q.step(Action(route, np.zeros((2, 2)), np.zeros((2, 2))), np.zeros(2), t=0)
        expensive = ClusterState(
            np.stack([dc.max_servers for dc in cluster.datacenters]),
            [5.0, 5.0],
        )
        action = scheduler.decide(1, expensive, q)
        assert action.serve.sum() == pytest.approx(0.0)
        assert action.busy.sum() == pytest.approx(0.0)

    def test_cheap_price_triggers_service(self, cluster):
        scheduler = GreFarScheduler(cluster, v=50.0)
        q = QueueNetwork(cluster)
        route = np.zeros((2, 2))
        route[0, 0] = 3.0
        q.step(Action(route, np.zeros((2, 2)), np.zeros((2, 2))), np.zeros(2), t=0)
        cheap = ClusterState(
            np.stack([dc.max_servers for dc in cluster.datacenters]),
            [0.001, 0.001],
        )
        action = scheduler.decide(1, cheap, q)
        assert action.serve[0, 0] == pytest.approx(3.0)

    def test_physical_service_never_overdraws(self, cluster, state):
        scheduler = GreFarScheduler(cluster, v=0.1)
        q = QueueNetwork(cluster)
        route = np.zeros((2, 2))
        route[0, 0] = 2.0
        q.step(Action(route, np.zeros((2, 2)), np.zeros((2, 2))), np.zeros(2), t=0)
        action = scheduler.decide(1, state, q)
        assert np.all(action.serve <= q.dc + 1e-9)

    def test_actions_always_valid(self, cluster, state):
        scheduler = GreFarScheduler(cluster, v=3.0, beta=50.0)
        q = QueueNetwork(cluster)
        rng = np.random.default_rng(4)
        for t in range(15):
            action = scheduler.decide(t, state, q)
            action.validate(cluster, state)
            q.step(action, rng.integers(0, 5, size=2).astype(float), t)

    def test_solver_backends_agree_at_beta_zero(self, cluster, state):
        q = QueueNetwork(cluster)
        q.step(Action.idle(cluster), np.array([6.0, 4.0]), t=0)
        route = np.zeros((2, 2))
        route[0, 0] = 3.0
        route[1, 1] = 2.0
        q.step(Action(route, np.zeros((2, 2)), np.zeros((2, 2))), np.zeros(2), t=1)
        # Every backend, on the slot problem GreFar builds.
        problem = GreFarScheduler(cluster, v=4.0)._problem(state, q.dc)
        w_greedy = solve_greedy(problem) @ cluster.demands
        for solve in (solve_lp, solve_qp):
            np.testing.assert_allclose(solve(problem) @ cluster.demands, w_greedy, atol=1e-6)


class TestDecisionArrays:
    @pytest.mark.parametrize("beta, physical", [(0.0, True), (0.0, False), (100.0, True)])
    def test_action_keeps_the_slot_arrays(self, cluster, state, monkeypatch, beta, physical):
        handed = []
        sealed = Action._sealed

        def spy(cluster, route, serve, busy, loads):
            handed.append((route, serve, busy, loads))
            return sealed(cluster, route, serve, busy, loads)

        monkeypatch.setattr(Action, "_sealed", spy)
        q = _seed_queues(cluster, front=[4.0, 3.0], dc=[[1.0, 0.0], [0.0, 2.0]])
        scheduler = GreFarScheduler(cluster, v=5.0, beta=beta, physical=physical)
        action = scheduler.decide(3, state, q)
        route, serve, busy, loads = handed[-1]
        assert action.route is route
        assert action.serve is serve
        assert action.busy is busy
        assert action.work_served(cluster) is loads
        # Route, clip and busy walk hand over sealed arrays: the checked
        # constructor would keep every one as is, so skipping it is exact.
        checked = Action(route, serve, busy)
        assert checked.route is route
        assert checked.serve is serve
        assert checked.busy is busy
        np.testing.assert_array_equal(loads, serve @ cluster.demands)
