"""Unit tests for the baseline schedulers."""

import numpy as np
import pytest

from repro.model.action import Action
from repro.model.queues import QueueNetwork
from repro.model.state import ClusterState
from repro.schedulers import (
    AlwaysScheduler,
    PriceThresholdScheduler,
    RandomRoutingScheduler,
    RoundRobinScheduler,
)
from repro.schedulers.base import route_greedily
from repro.simulation.simulator import Simulator


def route_all(cluster, front, dc):
    """Route by backlog with every eligible site open."""
    return route_greedily(cluster, front, dc, cluster.eligibility_matrix())


class TestRouteGreedily:
    def test_routes_everything_when_bounds_allow(self, cluster):
        front = np.array([3.0, 2.0])
        dc = np.zeros((2, 2))
        route = route_all(cluster, front, dc)
        np.testing.assert_allclose(route.sum(axis=0), front)

    def test_prefers_smaller_backlog(self, cluster):
        front = np.array([2.0, 0.0])
        dc = np.array([[5.0, 0.0], [0.0, 0.0]])
        route = route_all(cluster, front, dc)
        assert route[1, 0] == pytest.approx(2.0)
        assert route[0, 0] == pytest.approx(0.0)

    def test_respects_eligibility(self, cluster):
        front = np.array([0.0, 4.0])
        route = route_all(cluster, front, np.zeros((2, 2)))
        assert route[0, 1] == 0.0  # type 1 only eligible at site 1
        assert route[1, 1] == pytest.approx(4.0)

    def test_respects_route_bound(self, cluster):
        front = np.array([0.0, 30.0])
        route = route_all(cluster, front, np.zeros((2, 2)))
        assert route[1, 1] <= 25.0  # max_route for type 1


class TestAlways:
    def test_delay_is_one_when_capacity_suffices(self, scenario):
        result = Simulator(scenario, AlwaysScheduler(scenario.cluster)).run()
        assert result.summary.avg_dc_delay[0] == pytest.approx(1.0, abs=0.2)
        assert result.summary.avg_front_delay == pytest.approx(1.0, abs=0.2)

    def test_serves_regardless_of_price(self, cluster):
        scheduler = AlwaysScheduler(cluster)
        q = QueueNetwork(cluster)
        route = np.zeros((2, 2))
        route[0, 0] = 3.0
        q.step(Action(route, np.zeros((2, 2)), np.zeros((2, 2))), np.zeros(2), t=0)
        expensive = ClusterState(
            np.stack([dc.max_servers for dc in cluster.datacenters]),
            [100.0, 100.0],
        )
        action = scheduler.decide(1, expensive, q)
        assert action.serve[0, 0] == pytest.approx(3.0)

    def test_actions_valid(self, cluster, state):
        scheduler = AlwaysScheduler(cluster)
        q = QueueNetwork(cluster)
        rng = np.random.default_rng(1)
        for t in range(10):
            action = scheduler.decide(t, state, q)
            action.validate(cluster, state)
            q.step(action, rng.integers(0, 4, size=2).astype(float), t)


class TestPriceThreshold:
    def test_serves_only_below_threshold(self, cluster):
        scheduler = PriceThresholdScheduler(cluster, threshold=0.45)
        q = QueueNetwork(cluster)
        route = np.zeros((2, 2))
        route[0, 0] = 2.0
        route[1, 0] = 2.0
        q.step(Action(route, np.zeros((2, 2)), np.zeros((2, 2))), np.zeros(2), t=0)
        state = ClusterState(
            np.stack([dc.max_servers for dc in cluster.datacenters]),
            [0.4, 0.5],  # site 0 below, site 1 above
        )
        action = scheduler.decide(1, state, q)
        assert action.serve[0, 0] > 0
        assert action.serve[1, 0] == pytest.approx(0.0)

    def test_rejects_negative_threshold(self, cluster):
        with pytest.raises(ValueError):
            PriceThresholdScheduler(cluster, threshold=-1.0)


class TestRandomRouting:
    def test_routes_within_eligibility(self, cluster, state):
        scheduler = RandomRoutingScheduler(cluster, seed=3)
        q = QueueNetwork(cluster)
        q.step(Action.idle(cluster), np.array([10.0, 10.0]), t=0)
        action = scheduler.decide(1, state, q)
        assert action.route[0, 1] == 0.0  # ineligible pair
        assert action.route.sum() > 0

    def test_reset_reproduces_decisions(self, cluster, state):
        scheduler = RandomRoutingScheduler(cluster, seed=3)
        q = QueueNetwork(cluster)
        q.step(Action.idle(cluster), np.array([10.0, 10.0]), t=0)
        first = scheduler.decide(1, state, q)
        scheduler.reset()
        second = scheduler.decide(1, state, q)
        np.testing.assert_allclose(first.route, second.route)

    def test_actions_valid(self, cluster, state, scenario):
        result = Simulator(
            scenario, RandomRoutingScheduler(scenario.cluster), validate=True
        ).run(20)
        assert result.summary.horizon == 20


class TestRoundRobin:
    def test_rotates_over_eligible_sites(self, cluster, state):
        scheduler = RoundRobinScheduler(cluster)
        q = QueueNetwork(cluster)
        q.step(Action.idle(cluster), np.array([1.0, 0.0]), t=0)
        first = scheduler.decide(1, state, q)
        q2 = QueueNetwork(cluster)
        q2.step(Action.idle(cluster), np.array([1.0, 0.0]), t=0)
        second = scheduler.decide(1, state, q2)
        # Consecutive single jobs go to different sites.
        assert first.route[0, 0] + second.route[0, 0] == pytest.approx(1.0)
        assert first.route[1, 0] + second.route[1, 0] == pytest.approx(1.0)

    def test_reset_restarts_rotation(self, cluster, state):
        scheduler = RoundRobinScheduler(cluster)
        q = QueueNetwork(cluster)
        q.step(Action.idle(cluster), np.array([1.0, 0.0]), t=0)
        first = scheduler.decide(1, state, q)
        scheduler.reset()
        q2 = QueueNetwork(cluster)
        q2.step(Action.idle(cluster), np.array([1.0, 0.0]), t=0)
        again = scheduler.decide(1, state, q2)
        np.testing.assert_allclose(first.route, again.route)

    def test_actions_valid(self, scenario):
        result = Simulator(
            scenario, RoundRobinScheduler(scenario.cluster), validate=True
        ).run(20)
        assert result.summary.horizon == 20
