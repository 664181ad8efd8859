"""Tests for the fault-injection & resilience subsystem (repro.faults)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.grefar import GreFarScheduler
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    RandomFaultProcess,
    RequeuePolicy,
    ResilienceObserver,
)
from repro.faults.events import FAULT_KINDS
from repro.model.action import Action
from repro.model.queues import QueueNetwork
from repro.model.state import ClusterState
from repro.resilient.guards import sanitize_state
from repro.scenarios import small_scenario
from repro.schedulers import AlwaysScheduler
from repro.simulation.simulator import Simulator
from repro.workloads import apply_capacity_faults, apply_price_faults
from tests.oracles.slot_checks import ScanningFill


def _restored(cls, state: dict):
    """An instance of *cls* unpickled from *state*."""
    obj = cls.__new__(cls)
    obj.__setstate__(state)
    return obj


def _zero_action(cluster) -> Action:
    n, j, k = (
        cluster.num_datacenters,
        cluster.num_job_types,
        cluster.num_server_classes,
    )
    return Action(np.zeros((n, j)), np.zeros((n, j)), np.zeros((n, k)))


class TestFaultEvent:
    def test_window_and_activity(self):
        event = FaultEvent("outage", dc=0, start=5, duration=3)
        assert event.end == 8
        assert not event.active_at(4)
        assert event.active_at(5)
        assert event.active_at(7)
        assert not event.active_at(8)

    def test_capacity_factor_by_kind(self):
        assert FaultEvent("outage", 0, 0, 1).capacity_factor == 0.0
        loss = FaultEvent("capacity_loss", 0, 0, 1, severity=0.4)
        assert loss.capacity_factor == pytest.approx(0.6)
        assert FaultEvent("stale_price", 0, 0, 1).capacity_factor == 1.0
        assert FaultEvent("partition", 0, 0, 1).capacity_factor == 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FaultEvent("meteor", dc=0, start=0, duration=1)
        with pytest.raises(ValueError):
            FaultEvent("outage", dc=-1, start=0, duration=1)
        with pytest.raises(ValueError):
            FaultEvent("outage", dc=0, start=-1, duration=1)
        with pytest.raises(ValueError):
            FaultEvent("outage", dc=0, start=0, duration=0)
        with pytest.raises(ValueError):
            FaultEvent("capacity_loss", dc=0, start=0, duration=1, severity=0.0)
        with pytest.raises(ValueError):
            FaultEvent("capacity_loss", dc=0, start=0, duration=1, severity=1.5)


class TestFaultSchedule:
    def test_sorts_events_by_start(self):
        late = FaultEvent("outage", dc=0, start=20, duration=2)
        early = FaultEvent("stale_price", dc=1, start=3, duration=2)
        schedule = FaultSchedule((late, early))
        assert schedule.events == (early, late)
        assert len(schedule) == 2
        assert list(schedule) == [early, late]

    def test_active_and_starting_queries(self):
        a = FaultEvent("outage", dc=0, start=2, duration=4)
        b = FaultEvent("partition", dc=1, start=4, duration=2)
        schedule = FaultSchedule((a, b))
        assert schedule.active(1) == ()
        assert schedule.active(3) == (a,)
        assert schedule.active(4) == (a, b)
        assert schedule.starting(4) == (b,)
        assert schedule.starting(3) == ()

    def test_empty_and_single_outage_constructors(self):
        assert FaultSchedule.empty().is_empty
        drill = FaultSchedule.single_outage(dc=1, start=10, duration=5)
        assert not drill.is_empty
        assert drill.events[0].kind == "outage"
        assert drill.events[0].end == 15

    def test_rejects_non_events(self):
        with pytest.raises(TypeError):
            FaultSchedule(("not-an-event",))

    def test_validate_for_checks_site_and_horizon(self, cluster):
        bad_dc = FaultSchedule((FaultEvent("outage", dc=9, start=0, duration=1),))
        with pytest.raises(ValueError):
            bad_dc.validate_for(cluster)
        late = FaultSchedule((FaultEvent("outage", dc=0, start=50, duration=1),))
        with pytest.raises(ValueError):
            late.validate_for(cluster, horizon=50)
        # In-range schedules validate and return themselves for chaining.
        ok = FaultSchedule.single_outage(dc=1, start=5, duration=5)
        assert ok.validate_for(cluster, horizon=20) is ok

    def test_bake_truth_applies_capacity_faults(self):
        scenario = small_scenario(horizon=30, seed=1)
        schedule = FaultSchedule.single_outage(dc=1, start=10, duration=5)
        baked = schedule.bake_truth(scenario)
        assert np.all(baked.availability[10:15, 1, :] == 0)
        np.testing.assert_array_equal(baked.availability[:10], scenario.availability[:10])
        np.testing.assert_array_equal(baked.prices, scenario.prices)


class TestRandomFaultProcess:
    def test_deterministic_for_fixed_seed(self):
        process = RandomFaultProcess(outage_rate=0.02, stale_price_rate=0.05)
        first = process.generate(horizon=300, num_datacenters=3, seed=7)
        second = process.generate(horizon=300, num_datacenters=3, seed=7)
        assert first.events == second.events
        different = process.generate(horizon=300, num_datacenters=3, seed=8)
        assert first.events != different.events

    def test_zero_rates_yield_empty_schedule(self):
        schedule = RandomFaultProcess().generate(horizon=100, num_datacenters=2)
        assert schedule.is_empty

    def test_events_within_bounds_and_non_overlapping(self):
        process = RandomFaultProcess(
            outage_rate=0.05, capacity_loss_rate=0.05, mean_duration=5.0
        )
        schedule = process.generate(horizon=200, num_datacenters=2, seed=11)
        assert not schedule.is_empty
        for event in schedule:
            assert 0 <= event.dc < 2
            assert 0 <= event.start and event.end <= 200
            if event.kind == "capacity_loss":
                assert 0.3 <= event.severity <= 0.9
        for dc in range(2):
            mine = sorted(
                (e for e in schedule if e.dc == dc), key=lambda e: e.start
            )
            for a, b in zip(mine, mine[1:]):
                assert a.end <= b.start

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RandomFaultProcess(outage_rate=1.5)
        with pytest.raises(ValueError):
            RandomFaultProcess(mean_duration=0.5)
        with pytest.raises(ValueError):
            RandomFaultProcess(severity_range=(0.9, 0.3))
        with pytest.raises(ValueError):
            RandomFaultProcess().generate(horizon=0, num_datacenters=1)


class TestTraceFaultHelpers:
    def test_capacity_faults_zero_outage_window(self):
        trace = np.full((10, 2, 2), 8.0)
        events = [FaultEvent("outage", dc=1, start=3, duration=4)]
        out = apply_capacity_faults(trace, events)
        assert np.all(out[3:7, 1, :] == 0)
        assert np.all(out[:3, 1, :] == 8.0)
        assert np.all(out[7:, 1, :] == 8.0)
        assert np.all(out[:, 0, :] == 8.0)
        assert np.all(trace == 8.0)  # input untouched

    def test_overlapping_faults_take_most_severe(self):
        trace = np.full((10, 1, 1), 10.0)
        events = [
            FaultEvent("capacity_loss", dc=0, start=0, duration=10, severity=0.5),
            FaultEvent("capacity_loss", dc=0, start=4, duration=2, severity=0.8),
        ]
        out = apply_capacity_faults(trace, events)
        assert np.all(out[:4] == 5.0)
        assert np.all(out[4:6] == pytest.approx(2.0))
        assert np.all(out[6:] == 5.0)

    def test_signal_kinds_do_not_touch_capacity(self):
        trace = np.full((5, 1, 1), 4.0)
        events = [FaultEvent("stale_price", dc=0, start=0, duration=5)]
        np.testing.assert_array_equal(apply_capacity_faults(trace, events), trace)

    def test_price_faults_freeze_last_pre_fault_value(self):
        prices = np.arange(10, dtype=np.float64).reshape(5, 2)
        events = [FaultEvent("stale_price", dc=1, start=2, duration=2)]
        out = apply_price_faults(prices, events)
        assert out[2, 1] == out[3, 1] == prices[1, 1]
        assert out[4, 1] == prices[4, 1]
        np.testing.assert_array_equal(out[:, 0], prices[:, 0])

    def test_price_fault_at_slot_zero_freezes_first_value(self):
        prices = np.arange(6, dtype=np.float64).reshape(3, 2)
        events = [FaultEvent("partition", dc=0, start=0, duration=2)]
        out = apply_price_faults(prices, events)
        assert out[0, 0] == out[1, 0] == prices[0, 0]

    def test_capacity_kinds_do_not_touch_prices(self):
        prices = np.arange(6, dtype=np.float64).reshape(3, 2)
        events = [FaultEvent("outage", dc=0, start=0, duration=3)]
        np.testing.assert_array_equal(apply_price_faults(prices, events), prices)

    def test_rejects_bad_shapes_and_sites(self):
        with pytest.raises(ValueError):
            apply_capacity_faults(np.zeros((5, 2)), [])
        with pytest.raises(ValueError):
            apply_price_faults(np.zeros((5, 2, 2)), [])
        with pytest.raises(ValueError):
            apply_capacity_faults(
                np.zeros((5, 1, 1)), [FaultEvent("outage", dc=3, start=0, duration=1)]
            )
        with pytest.raises(ValueError):
            apply_price_faults(
                np.zeros((5, 1)), [FaultEvent("partition", dc=3, start=0, duration=1)]
            )


class TestClusterStateMissing:
    def test_nan_rejected_without_missing_ok(self):
        with pytest.raises(ValueError):
            ClusterState(np.ones((2, 1)), [np.nan, 0.5])

    def test_nan_accepted_with_missing_ok(self):
        state = ClusterState(
            np.array([[np.nan], [3.0]]), [0.4, np.nan], missing_ok=True
        )
        assert state.has_missing
        np.testing.assert_array_equal(state.missing_prices, [False, True])
        np.testing.assert_array_equal(
            state.missing_availability, [[True], [False]]
        )

    def test_missing_ok_still_rejects_negatives_and_inf(self):
        with pytest.raises(ValueError):
            ClusterState(np.ones((2, 1)), [-0.1, 0.5], missing_ok=True)
        with pytest.raises(ValueError):
            ClusterState(np.ones((2, 1)), [np.inf, 0.5], missing_ok=True)

    def test_clean_state_reports_nothing_missing(self):
        state = ClusterState(np.ones((2, 1)), [0.4, 0.5])
        assert not state.has_missing
        assert not state.missing_prices.any()


class TestPrepareState:
    def test_clean_state_passes_through_unchanged(self, cluster, state):
        scheduler = GreFarScheduler(cluster, v=1.0)
        assert scheduler.prepare_state(state) is state

    def test_fills_from_last_known_good(self, cluster, state):
        scheduler = GreFarScheduler(cluster, v=1.0)
        scheduler.prepare_state(state)  # record the clean snapshot
        masked = ClusterState(
            state.availability, [np.nan, state.prices[1]], missing_ok=True
        )
        filled = scheduler.prepare_state(masked)
        assert not filled.has_missing
        assert filled.prices[0] == pytest.approx(state.prices[0])
        assert filled.prices[1] == pytest.approx(state.prices[1])

    def test_fail_safe_before_any_clean_observation(self, cluster, state):
        scheduler = GreFarScheduler(cluster, v=1.0)
        avail = np.array(state.availability)
        avail[0, :] = np.nan
        masked = ClusterState(avail, [np.nan, 0.5], missing_ok=True)
        filled = scheduler.prepare_state(masked)
        # Dark site: zero availability, priced at the max visible price.
        assert np.all(filled.availability[0] == 0)
        assert filled.prices[0] == pytest.approx(0.5)

    def test_substitution_persists_through_a_long_blackout(self, cluster, state):
        scheduler = GreFarScheduler(cluster, v=1.0)
        scheduler.prepare_state(state)
        masked = ClusterState(
            state.availability, [np.nan, state.prices[1]], missing_ok=True
        )
        for _ in range(5):
            filled = scheduler.prepare_state(masked)
        assert filled.prices[0] == pytest.approx(state.prices[0])

    def test_reset_clears_degraded_memory(self, cluster, state):
        scheduler = GreFarScheduler(cluster, v=1.0)
        scheduler.prepare_state(state)
        scheduler.reset()
        masked = ClusterState(
            state.availability, [np.nan, 0.5], missing_ok=True
        )
        filled = scheduler.prepare_state(masked)
        # After reset the fail-safe applies, not the pre-reset snapshot.
        assert filled.prices[0] == pytest.approx(0.5)


    def test_fills_as_a_scan_of_every_state_would(self):
        # Trace and ground-truth states, observed states from the injector
        # and the guards (missing_ok), and unpickled copies of them.
        scenario = small_scenario(horizon=40, seed=3)
        schedule = FaultSchedule(
            (
                FaultEvent("stale_price", dc=0, start=3, duration=6),
                FaultEvent("partition", dc=1, start=12, duration=5),
                FaultEvent("outage", dc=1, start=20, duration=4),
                FaultEvent("capacity_loss", dc=0, start=26, duration=4, severity=0.5),
            )
        )
        injector = FaultInjector(scenario.cluster, schedule)
        states = []
        for t in range(40):
            trace = scenario.state_at(t)
            truth = injector.true_state(t, trace)
            observed = injector.observed_state(t, truth)
            states += [trace, truth, observed, pickle.loads(pickle.dumps(observed))]
            if t % 5 == 0:
                bad = np.array(truth.availability)
                bad[t % 2, 0] = np.inf
                held, _ = sanitize_state(bad, truth.prices, policy="hold")
                clean, _ = sanitize_state(truth.availability, truth.prices)
                states += [held, pickle.loads(pickle.dumps(held)), clean]
        fast = GreFarScheduler(scenario.cluster, v=1.0)
        scan = ScanningFill()
        for state in states:
            missing = bool(np.isnan(state.availability).any() or np.isnan(state.prices).any())
            assert state.has_missing == missing
            filled = fast.prepare_state(state)
            expected = scan.prepare_state(state)
            assert (filled is state) == (expected is state) == (not missing)
            for name in ("availability", "prices"):
                got, want = getattr(filled, name), getattr(expected, name)
                assert got.tobytes() == want.tobytes()
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
            assert not filled.has_missing
        assert any(state.has_missing for state in states)


class TestRequeuePolicy:
    def test_default_offsets_are_exponential(self):
        assert RequeuePolicy().offsets() == (1, 2, 4, 8)
        assert RequeuePolicy(base_delay=2, factor=3.0, tranches=3).offsets() == (
            2,
            6,
            18,
        )

    def test_split_conserves_and_front_loads(self):
        parts = RequeuePolicy().split(np.array([7.0, 3.0]))
        assert len(parts) == 4
        total = sum(parts)
        np.testing.assert_allclose(total, [7.0, 3.0])
        # Largest-remainder: earlier tranches get the extra whole jobs.
        assert [p[0] for p in parts] == [2.0, 2.0, 2.0, 1.0]
        assert [p[1] for p in parts] == [1.0, 1.0, 1.0, 0.0]

    def test_split_keeps_fractional_remainder_in_first_tranche(self):
        parts = RequeuePolicy().split(np.array([0.8]))
        assert parts[0][0] == pytest.approx(0.8)
        assert all(p[0] == 0.0 for p in parts[1:])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RequeuePolicy(base_delay=0)
        with pytest.raises(ValueError):
            RequeuePolicy(factor=0.5)
        with pytest.raises(ValueError):
            RequeuePolicy(tranches=0)


class TestEvictDc:
    def test_evicts_counts_and_clears_queues(self, cluster):
        queues = QueueNetwork(cluster)
        queues.step(_zero_action(cluster), np.array([4.0, 3.0]), 0)
        route = np.zeros((2, 2))
        route[1, 0] = 4.0
        route[1, 1] = 3.0
        queues.step(
            Action(route, np.zeros((2, 2)), np.zeros((2, 2))), np.zeros(2), 1
        )
        counts = queues.evict_dc(1)
        np.testing.assert_allclose(counts, [4.0, 3.0])
        assert np.all(queues.dc == 0)
        # Re-evicting an empty site is a harmless no-op.
        np.testing.assert_allclose(queues.evict_dc(1), [0.0, 0.0])

    def test_rejects_out_of_range_site(self, cluster):
        queues = QueueNetwork(cluster)
        with pytest.raises(IndexError):
            queues.evict_dc(2)
        with pytest.raises(IndexError):
            queues.evict_dc(-1)


class TestInjectorNoop:
    def test_hooks_pass_inputs_through_unchanged(self, cluster, state):
        injector = FaultInjector(cluster, FaultSchedule.empty())
        queues = QueueNetwork(cluster)
        action = _zero_action(cluster)
        assert injector.begin_slot(0, queues) is None
        assert injector.true_state(0, state) is state
        assert injector.observed_state(0, state) is state
        assert injector.filter_action(0, action, state) is action

    def test_empty_schedule_run_is_bit_identical(self, scenario):
        scheduler = GreFarScheduler(scenario.cluster, v=5.0)
        plain = Simulator(scenario, scheduler).run()
        injected = Simulator(
            scenario,
            scheduler,
            injector=FaultInjector(scenario.cluster, FaultSchedule.empty()),
        ).run()
        assert plain.summary == injected.summary

    def test_injector_accepts_raw_event_iterables(self, cluster):
        events = [FaultEvent("outage", dc=0, start=0, duration=1)]
        injector = FaultInjector(cluster, events)
        assert isinstance(injector.schedule, FaultSchedule)

    def test_injector_validates_schedule_against_cluster(self, cluster):
        bad = FaultSchedule((FaultEvent("outage", dc=5, start=0, duration=1),))
        with pytest.raises(ValueError):
            FaultInjector(cluster, bad)


class TestInjectorOutage:
    def test_eviction_and_backoff_timing(self, cluster):
        queues = QueueNetwork(cluster)
        queues.step(_zero_action(cluster), np.array([4.0, 3.0]), 0)
        route = np.zeros((2, 2))
        route[1, 0] = 4.0
        route[1, 1] = 3.0
        queues.step(
            Action(route, np.zeros((2, 2)), np.zeros((2, 2))), np.zeros(2), 1
        )
        schedule = FaultSchedule.single_outage(dc=1, start=2, duration=5)
        injector = FaultInjector(cluster, schedule)

        assert injector.begin_slot(2, queues) is None  # first release is t+1
        assert injector.evicted_jobs == pytest.approx(7.0)
        assert injector.pending_jobs == pytest.approx(7.0)
        assert np.all(queues.dc == 0)

        released = {}
        for t in range(3, 11):
            due = injector.begin_slot(t, queues)
            if due is not None:
                released[t] = due
        # Default policy: tranches at offsets 1, 2, 4, 8 after the onset.
        assert sorted(released) == [3, 4, 6, 10]
        # 4 jobs split [1,1,1,1]; 3 jobs front-load as [1,1,1,0].
        np.testing.assert_allclose(released[3], [1.0, 1.0])
        np.testing.assert_allclose(released[10], [1.0, 0.0])
        total = sum(released.values())
        np.testing.assert_allclose(total, [4.0, 3.0])
        assert injector.requeued_jobs == pytest.approx(7.0)
        assert injector.pending_jobs == 0.0

    def test_pickles_hold_counts_as_lists(self, cluster):
        queues = QueueNetwork(cluster)
        queues.step(_zero_action(cluster), np.array([4.0, 3.0]), 0)
        route = np.zeros((2, 2))
        route[1] = [4.0, 3.0]
        queues.step(Action(route, np.zeros((2, 2)), np.zeros((2, 2))), np.zeros(2), 1)
        injector = FaultInjector(cluster, FaultSchedule.single_outage(dc=1, start=2, duration=5))
        injector.begin_slot(2, queues)
        assert injector.eviction_log and injector._pending

        state = injector.__getstate__()
        assert all(type(counts) is list for _, counts in state["eviction_log"])
        assert all(type(counts) is list for counts in state["_pending"].values())
        # Today's pickles and older ones, which hold the arrays, load alike.
        for restored in (
            pickle.loads(pickle.dumps(injector)),
            _restored(FaultInjector, dict(injector.__dict__)),
        ):
            assert [event for event, _ in restored.eviction_log] == [
                event for event, _ in injector.eviction_log
            ]
            for (_, counts), (_, original) in zip(restored.eviction_log, injector.eviction_log):
                assert counts.dtype == np.float64
                np.testing.assert_array_equal(counts, original)
            assert list(restored._pending) == list(injector._pending)
            for slot, counts in restored._pending.items():
                assert counts.dtype == np.float64
                np.testing.assert_array_equal(counts, injector._pending[slot])
            assert restored.pending_jobs == injector.pending_jobs

    def test_outage_drill_end_to_end(self):
        scenario = small_scenario(horizon=120, seed=3)
        cluster = scenario.cluster
        schedule = FaultSchedule.single_outage(dc=1, start=40, duration=20)
        injector = FaultInjector(cluster, schedule)
        observer = ResilienceObserver(cluster, schedule)
        result = Simulator(
            scenario,
            GreFarScheduler(cluster, v=5.0),
            validate=True,
            injector=injector,
            observers=[observer],
        ).run()

        # No work is served at the dark site while it is down.
        work = result.metrics.work_per_dc_series()
        assert np.all(work[40:60, 1] == 0)
        assert work[:40, 1].sum() > 0  # it was busy before

        # Everything evicted was re-admitted well before the run ended.
        summary = result.summary
        assert summary.total_evicted_jobs == injector.evicted_jobs
        assert summary.total_requeued_jobs == pytest.approx(
            summary.total_evicted_jobs
        )
        assert injector.pending_jobs == 0.0

        # Job conservation: re-queued jobs are not double-counted.
        assert summary.total_served_jobs + result.queues.total_backlog() == (
            pytest.approx(summary.total_arrived_jobs)
        )

        # The observer sees the disruption and the recovery.
        impact = observer.report("grefar").impacts[0]
        assert impact.recovered
        assert impact.peak_backlog >= impact.pre_backlog

    def test_evicted_jobs_delay_clock_restarts(self, cluster):
        # A job evicted at slot 2 and re-admitted later must re-enter the
        # front ledger with the re-admission slot, not its original one.
        queues = QueueNetwork(cluster)
        queues.step(_zero_action(cluster), np.array([1.0, 0.0]), 0)
        route = np.zeros((2, 2))
        route[0, 0] = 1.0
        queues.step(
            Action(route, np.zeros((2, 2)), np.zeros((2, 2))), np.zeros(2), 1
        )
        schedule = FaultSchedule.single_outage(dc=0, start=2, duration=2)
        injector = FaultInjector(cluster, schedule)
        injector.begin_slot(2, queues)
        due = injector.begin_slot(3, queues)
        before = float(queues.stats.front_delay_sum[0])
        queues.step(_zero_action(cluster), due, 3)
        # Route it again at slot 4; the re-routed job contributes a front
        # delay of 4-3=1 slot, measured from re-admission, not slot 0.
        route2 = np.zeros((2, 2))
        route2[1, 0] = 1.0
        queues.step(
            Action(route2, np.zeros((2, 2)), np.zeros((2, 2))), np.zeros(2), 4
        )
        assert queues.stats.front_delay_sum[0] - before == pytest.approx(1.0)


class TestInjectorSignalFaults:
    def test_stale_price_masks_observation_only(self, cluster, state):
        schedule = FaultSchedule(
            (FaultEvent("stale_price", dc=0, start=5, duration=3),)
        )
        injector = FaultInjector(cluster, schedule)
        truth = injector.true_state(6, state)
        assert truth is state  # signal faults leave the truth alone
        observed = injector.observed_state(6, state)
        assert np.isnan(observed.prices[0])
        assert observed.prices[1] == pytest.approx(state.prices[1])
        np.testing.assert_array_equal(observed.availability, state.availability)
        # Outside the window the observation is the truth itself.
        assert injector.observed_state(9, state) is state

    def test_partition_masks_both_signals(self, cluster, state):
        schedule = FaultSchedule(
            (FaultEvent("partition", dc=1, start=0, duration=4),)
        )
        injector = FaultInjector(cluster, schedule)
        observed = injector.observed_state(1, state)
        assert np.isnan(observed.prices[1])
        assert np.all(np.isnan(observed.availability[1]))
        assert not np.isnan(observed.prices[0])

    def test_partition_blocks_commands_to_the_site(self):
        scenario = small_scenario(horizon=60, seed=3)
        cluster = scenario.cluster
        schedule = FaultSchedule(
            (FaultEvent("partition", dc=1, start=20, duration=10),)
        )
        result = Simulator(
            scenario,
            GreFarScheduler(cluster, v=5.0),
            validate=True,
            injector=FaultInjector(cluster, schedule),
        ).run()
        work = result.metrics.work_per_dc_series()
        assert np.all(work[20:30, 1] == 0)
        # Nothing is evicted by a partition: the site's queue freezes.
        assert result.summary.total_evicted_jobs == 0.0

    def test_capacity_loss_shrinks_true_availability(self, cluster, state):
        schedule = FaultSchedule(
            (FaultEvent("capacity_loss", dc=0, start=0, duration=2, severity=0.5),)
        )
        injector = FaultInjector(cluster, schedule)
        truth = injector.true_state(0, state)
        np.testing.assert_allclose(
            truth.availability[0], state.availability[0] * 0.5
        )
        np.testing.assert_allclose(truth.availability[1], state.availability[1])
        # Capacity faults are observable: no masking on top.
        assert injector.observed_state(0, truth) is truth

    def test_all_kinds_run_clean_under_validation(self):
        scenario = small_scenario(horizon=50, seed=3)
        cluster = scenario.cluster
        for kind in FAULT_KINDS:
            schedule = FaultSchedule(
                (FaultEvent(kind, dc=1, start=15, duration=10, severity=0.7),)
            )
            for scheduler in (
                GreFarScheduler(cluster, v=5.0),
                AlwaysScheduler(cluster),
            ):
                Simulator(
                    scenario,
                    scheduler,
                    validate=True,
                    injector=FaultInjector(cluster, schedule),
                ).run()


class _FakeQueues:
    def __init__(self, backlog: float, front: float) -> None:
        self._backlog = float(backlog)
        self.front = np.array([front])

    def total_backlog(self) -> float:
        return self._backlog


class _FakeAction:
    def __init__(self, energy: float) -> None:
        self._energy = float(energy)

    def energy_cost(self, cluster, state) -> float:
        return self._energy


class TestResilienceObserver:
    def _drive(self, cluster, backlogs, energies, schedule):
        observer = ResilienceObserver(cluster, schedule)
        for t, (b, e) in enumerate(zip(backlogs, energies)):
            observer(t, None, _FakeAction(e), _FakeQueues(b, b))
        return observer

    def test_recovery_overshoot_and_inflation(self, cluster):
        schedule = FaultSchedule.single_outage(dc=0, start=3, duration=2)
        backlogs = [1, 1, 1, 5, 9, 7, 3, 1, 1, 1]
        energies = [1, 1, 1, 2, 2, 2, 2, 2, 1, 1]
        observer = self._drive(cluster, backlogs, energies, schedule)
        impact = observer.report("test").impacts[0]
        assert impact.pre_backlog == pytest.approx(1.0)
        assert impact.peak_backlog == pytest.approx(9.0)
        assert impact.overshoot == pytest.approx(8.0)
        assert impact.recovery_slots == 2  # cleared at 5, recovered at 7
        assert impact.recovered
        assert impact.cost_inflation == pytest.approx(2.0)

    def test_never_recovering_run(self, cluster):
        schedule = FaultSchedule.single_outage(dc=0, start=2, duration=2)
        backlogs = [1, 1, 5, 9, 9, 9]
        energies = [1.0] * 6
        observer = self._drive(cluster, backlogs, energies, schedule)
        report = observer.report("test")
        impact = report.impacts[0]
        assert impact.recovery_slots is None
        assert not impact.recovered
        assert not report.all_recovered
        assert report.max_recovery_slots is None

    def test_report_aggregates_and_bound_utilization(self, cluster):
        schedule = FaultSchedule.single_outage(dc=0, start=3, duration=2)
        backlogs = [1, 1, 1, 5, 9, 7, 3, 1, 1, 1]
        energies = [1.0] * 10
        observer = ResilienceObserver(cluster, schedule, queue_bound=18.0)
        for t, (b, e) in enumerate(zip(backlogs, energies)):
            observer(t, None, _FakeAction(e), _FakeQueues(b, b))
        report = observer.report("test")
        assert report.all_recovered
        assert report.max_recovery_slots == 2
        assert report.max_overshoot == pytest.approx(8.0)
        assert report.peak_front_queue == pytest.approx(9.0)
        assert report.bound_utilization() == pytest.approx(0.5)
        as_dict = report.as_dict()
        assert as_dict["scheduler"] == "test"
        assert as_dict["events"] == 1
        assert as_dict["bound_utilization"] == pytest.approx(0.5)

    def test_empty_schedule_gives_empty_report(self, cluster):
        observer = ResilienceObserver(cluster, FaultSchedule.empty())
        report = observer.report("idle")
        assert report.impacts == ()
        assert report.all_recovered
        assert report.max_recovery_slots == 0
        assert report.max_overshoot == 0.0
        assert report.bound_utilization() is None


class TestCliResilience:
    def test_resilience_drill_prints_table(self, capsys):
        from repro.cli import main

        code = main(
            [
                "resilience",
                "--horizon",
                "80",
                "--start",
                "30",
                "--duration",
                "10",
                "--v",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "outage at dc2" in out
        assert "Recovery slots" in out

    def test_rejects_window_beyond_horizon(self, capsys):
        from repro.cli import main

        code = main(
            ["resilience", "--horizon", "50", "--start", "45", "--duration", "10"]
        )
        assert code == 2

    def test_rejects_bad_site_and_severity_cleanly(self, capsys):
        from repro.cli import main

        args = ["resilience", "--horizon", "50", "--start", "10", "--duration", "5"]
        assert main(args + ["--dc", "7"]) == 2
        assert "data center 7" in capsys.readouterr().err
        assert main(args + ["--severity", "0"]) == 2
        assert "severity" in capsys.readouterr().err
