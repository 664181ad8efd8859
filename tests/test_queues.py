"""Unit tests for the queue substrate (dynamics eqs. 12-13 and delays)."""

import numpy as np
import pytest

from repro.core.grefar import GreFarScheduler
from repro.model.action import Action
from repro.model.queues import DelayStats, QueueNetwork, whole_jobs
from repro.obs.registry import stats_registry
from repro.scenarios import paper_scenario, small_scenario
from repro.simulation.simulator import Simulator


def _action(cluster, route=None, serve=None):
    n, j = cluster.num_datacenters, cluster.num_job_types
    k = cluster.num_server_classes
    r = np.zeros((n, j)) if route is None else np.asarray(route, dtype=float)
    h = np.zeros((n, j)) if serve is None else np.asarray(serve, dtype=float)
    return Action(r, h, np.zeros((n, k)))


class TestArrivals:
    def test_arrivals_extend_front_queue(self, cluster):
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([3.0, 1.0]), t=0)
        np.testing.assert_allclose(q.front, [3.0, 1.0])
        np.testing.assert_allclose(q.dc, 0.0)

    def test_rejects_negative_arrivals(self, cluster):
        q = QueueNetwork(cluster)
        with pytest.raises(ValueError):
            q.step(_action(cluster), np.array([-1.0, 0.0]), t=0)

    def test_rejects_wrong_shape(self, cluster):
        q = QueueNetwork(cluster)
        with pytest.raises(ValueError):
            q.step(_action(cluster), np.array([1.0]), t=0)


class TestRouting:
    def test_routing_moves_jobs(self, cluster):
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([4.0, 0.0]), t=0)
        route = np.zeros((2, 2))
        route[0, 0] = 3.0
        q.step(_action(cluster, route=route), np.zeros(2), t=1)
        np.testing.assert_allclose(q.front, [1.0, 0.0])
        assert q.dc[0, 0] == pytest.approx(3.0)

    def test_literal_overdraw_truncates_front(self, cluster):
        """Eq. (12)'s max[., 0]: routing more than queued leaves zero."""
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([2.0, 0.0]), t=0)
        route = np.zeros((2, 2))
        route[0, 0] = 5.0  # overdraw
        outcome = q.step(_action(cluster, route=route), np.zeros(2), t=1)
        assert q.front[0] == pytest.approx(0.0)
        # Literal dynamics add the full r to the site queue (phantoms).
        assert q.dc[0, 0] == pytest.approx(5.0)
        # The ledger only moved real jobs.
        assert outcome["routed"][0, 0] == pytest.approx(2.0)

    def test_routing_splits_across_sites(self, cluster):
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([4.0, 0.0]), t=0)
        route = np.zeros((2, 2))
        route[0, 0] = 2.0
        route[1, 0] = 2.0
        q.step(_action(cluster, route=route), np.zeros(2), t=1)
        np.testing.assert_allclose(q.dc[:, 0], [2.0, 2.0])


class TestService:
    def test_service_drains_dc_queue(self, cluster):
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([4.0, 0.0]), t=0)
        route = np.zeros((2, 2))
        route[0, 0] = 4.0
        q.step(_action(cluster, route=route), np.zeros(2), t=1)
        serve = np.zeros((2, 2))
        serve[0, 0] = 3.0
        outcome = q.step(_action(cluster, serve=serve), np.zeros(2), t=2)
        assert q.dc[0, 0] == pytest.approx(1.0)
        assert outcome["served"][0, 0] == pytest.approx(3.0)

    def test_literal_overserve_truncates(self, cluster):
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([2.0, 0.0]), t=0)
        route = np.zeros((2, 2))
        route[0, 0] = 2.0
        q.step(_action(cluster, route=route), np.zeros(2), t=1)
        serve = np.zeros((2, 2))
        serve[0, 0] = 10.0
        outcome = q.step(_action(cluster, serve=serve), np.zeros(2), t=2)
        assert q.dc[0, 0] == pytest.approx(0.0)
        assert outcome["served"][0, 0] == pytest.approx(2.0)

    def test_serve_before_route_within_slot(self, cluster):
        """A job routed in slot t cannot be served in slot t (eq. 13)."""
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([2.0, 0.0]), t=0)
        route = np.zeros((2, 2))
        route[0, 0] = 2.0
        serve = np.zeros((2, 2))
        serve[0, 0] = 2.0
        outcome = q.step(_action(cluster, route=route, serve=serve), np.zeros(2), t=1)
        assert outcome["served"][0, 0] == pytest.approx(0.0)
        assert q.dc[0, 0] == pytest.approx(2.0)

    def test_fractional_service(self, cluster):
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([1.0, 0.0]), t=0)
        route = np.zeros((2, 2))
        route[0, 0] = 1.0
        q.step(_action(cluster, route=route), np.zeros(2), t=1)
        serve = np.zeros((2, 2))
        serve[0, 0] = 0.25
        q.step(_action(cluster, serve=serve), np.zeros(2), t=2)
        assert q.dc[0, 0] == pytest.approx(0.75)


class TestDelayAccounting:
    def test_always_pattern_gives_delay_one(self, cluster):
        """Route everything each slot, serve everything each slot -> DC delay 1."""
        q = QueueNetwork(cluster)
        rng = np.random.default_rng(0)
        for t in range(20):
            front = q.front
            dc = q.dc
            route = np.zeros((2, 2))
            route[0, 0] = front[0]
            route[1, 1] = front[1]
            serve = dc.copy()
            arrivals = rng.integers(0, 4, size=2).astype(float)
            q.step(_action(cluster, route=route, serve=serve), arrivals, t)
        assert q.stats.mean_dc_delay() == pytest.approx(1.0)
        assert q.stats.mean_front_delay() == pytest.approx(1.0)

    def test_deferred_service_increases_delay(self, cluster):
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([2.0, 0.0]), t=0)
        route = np.zeros((2, 2))
        route[0, 0] = 2.0
        q.step(_action(cluster, route=route), np.zeros(2), t=1)
        # Wait until slot 5 to serve: DC delay should be 4.
        for t in range(2, 5):
            q.step(_action(cluster), np.zeros(2), t=t)
        serve = np.zeros((2, 2))
        serve[0, 0] = 2.0
        q.step(_action(cluster, serve=serve), np.zeros(2), t=5)
        assert q.stats.mean_dc_delay(0) == pytest.approx(4.0)

    def test_fifo_order(self, cluster):
        """Older batches complete first."""
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([1.0, 0.0]), t=0)
        route = np.zeros((2, 2))
        route[0, 0] = 1.0
        q.step(_action(cluster, route=route), np.array([1.0, 0.0]), t=1)
        q.step(_action(cluster, route=route), np.zeros(2), t=2)
        serve = np.zeros((2, 2))
        serve[0, 0] = 1.0
        q.step(_action(cluster, serve=serve), np.zeros(2), t=3)
        # The batch served must be the one routed at t=1 (delay 2), not t=2.
        assert q.stats.mean_dc_delay(0) == pytest.approx(2.0)


class TestHelpers:
    def test_lyapunov(self, cluster):
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([3.0, 4.0]), t=0)
        assert q.lyapunov() == pytest.approx(0.5 * (9 + 16))

    def test_total_backlog_and_work(self, cluster):
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([3.0, 4.0]), t=0)
        assert q.total_backlog() == pytest.approx(7.0)
        # demands [1, 2]
        assert q.backlog_work() == pytest.approx(3.0 + 8.0)

    def test_max_queue_length(self, cluster):
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([3.0, 7.0]), t=0)
        assert q.max_queue_length() == pytest.approx(7.0)

    def test_clip_to_content_routing(self, cluster):
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([3.0, 0.0]), t=0)
        route = np.zeros((2, 2))
        route[0, 0] = 5.0
        route[1, 0] = 5.0
        clipped = q.clip_to_content(_action(cluster, route=route))
        assert clipped.route[:, 0].sum() <= 3.0 + 1e-9

    def test_clip_to_content_service(self, cluster):
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([2.0, 0.0]), t=0)
        route = np.zeros((2, 2))
        route[0, 0] = 2.0
        q.step(_action(cluster, route=route), np.zeros(2), t=1)
        serve = np.full((2, 2), 9.0)
        clipped = q.clip_to_content(_action(cluster, serve=serve))
        assert clipped.serve[0, 0] == pytest.approx(2.0)
        assert clipped.serve[1, 1] == pytest.approx(0.0)

    def test_clip_to_content_returns_physical_action_itself(self, cluster):
        q = QueueNetwork(cluster)
        q.step(_action(cluster), np.array([3.0, 0.0]), t=0)
        route = np.zeros((2, 2))
        route[0, 0] = 2.0
        action = _action(cluster, route=route)
        assert q.clip_to_content(action) is action

    def test_bookkeeping_holds_python_floats(self):
        # Numpy scalars in the ledgers or histograms pickle one by one;
        # Python floats carry the same values far more cheaply.
        scenario = paper_scenario(horizon=300, seed=0)
        queues = Simulator(scenario, GreFarScheduler(scenario.cluster, v=7.5)).run().queues
        stats = queues.stats
        values = list(stats.front_delay_histogram.values())
        for hist in stats.dc_delay_histogram:
            values.extend(hist.values())
        ledgers = [*queues._front_ledger, *queues._dc_ledger.values()]
        counts = [batch[1] for ledger in ledgers for batch in ledger]
        assert values and counts
        assert {type(v) for v in values} == {float}
        assert {type(c) for c in counts} == {float}


class TestWholeJobs:
    NUDGED = "sim.floor.nudged"

    def test_nudge_recovers_round_off_and_is_counted(self):
        stats = stats_registry()
        before = stats.counter(self.NUDGED)
        assert whole_jobs(2.9999999999) == 3.0
        assert stats.counter(self.NUDGED) == before + 1
        np.testing.assert_array_equal(
            whole_jobs(np.array([1.0, 2.9999999999, 0.5, 1.9999999999])), [1.0, 3.0, 0.0, 2.0]
        )
        assert stats.counter(self.NUDGED) == before + 3

    def test_exact_and_fractional_counts_are_not_nudged(self):
        stats = stats_registry()
        before = stats.counter(self.NUDGED)
        assert whole_jobs(3.0) == 3.0
        assert whole_jobs(2.5) == 2.0
        np.testing.assert_array_equal(whole_jobs(np.array([0.0, 4.0, 0.25])), [0.0, 4.0, 0.0])
        assert stats.counter(self.NUDGED) == before

    @pytest.mark.parametrize(
        "scenario_kind,beta",
        [("golden", 0.0), ("paper", 0.0), ("paper", 100.0)],
    )
    def test_healthy_runs_never_nudge(self, scenario_kind, beta):
        # GreFar's routing and the simulator's clip_to_content floor job
        # counts that stay integral on these runs, so the nudge never
        # changes a decision.
        if scenario_kind == "golden":  # tests/test_golden_trace.py's run
            scenario, v = small_scenario(horizon=40, seed=11), 5.0
        else:
            scenario, v = paper_scenario(horizon=300, seed=1), 7.5
        stats = stats_registry()
        before = stats.counter(self.NUDGED)
        Simulator(scenario, GreFarScheduler(scenario.cluster, v=v, beta=beta)).run()
        assert stats.counter(self.NUDGED) == before


class TestDelayStats:
    def test_empty_stats_are_zero(self):
        stats = DelayStats(2, 3)
        assert stats.mean_dc_delay() == 0.0
        assert stats.mean_front_delay() == 0.0
        assert stats.mean_total_delay() == 0.0

    def test_weighted_means(self):
        stats = DelayStats(1, 1)
        stats.record_served(0, 0, count=1.0, delay=2.0)
        stats.record_served(0, 0, count=3.0, delay=4.0)
        assert stats.mean_dc_delay(0) == pytest.approx((2.0 + 12.0) / 4.0)

    def test_per_type_front_delay(self):
        stats = DelayStats(1, 2)
        stats.record_routed(0, count=2.0, delay=1.0)
        stats.record_routed(1, count=2.0, delay=3.0)
        assert stats.mean_front_delay(0) == pytest.approx(1.0)
        assert stats.mean_front_delay(1) == pytest.approx(3.0)
        assert stats.mean_front_delay() == pytest.approx(2.0)
