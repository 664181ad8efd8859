"""Tests for the observability layer (repro.obs).

Covers the registry's disabled-is-a-no-op contract, timer semantics,
the trace-event sinks and their JSONL round-trip, the profile harness
and its timer table, and — most load-bearing — that turning telemetry
on changes *nothing* about scheduler decisions.
"""

from __future__ import annotations

import pytest

import repro.cli
from repro.core.grefar import GreFarScheduler
from repro.obs.events import (
    InMemorySink,
    JsonlSink,
    SlotTraceEvent,
    read_trace_jsonl,
)
from repro.obs.profile import profile_run, render_hot_path_table
from repro.obs.registry import (
    Registry,
    metrics_registry,
    stats_registry,
)
from repro.scenarios import small_scenario
from repro.simulation.simulator import Simulator


@pytest.fixture(autouse=True)
def clean_metrics():
    """Leave the process-local metrics registry as this test found it."""
    registry = metrics_registry()
    was_enabled = registry.enabled
    registry.reset()
    yield
    registry.enabled = was_enabled
    registry.reset()
    registry.clear_sinks()


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
def test_disabled_registry_records_nothing():
    registry = Registry("test", enabled=False)
    registry.counter_add("c")
    registry.timer_add("t", 1.0)
    registry.gauge_set("g", 3.0)
    registry.note_solve(solver="greedy")
    sink = InMemorySink()
    registry.add_sink(sink)
    registry.emit(SlotTraceEvent(slot=0, scheduler="x", front_backlog=0, dc_backlog=0))
    assert registry.counters() == {}
    assert registry.timers() == []
    assert registry.gauges() == {}
    assert registry.consume_solve() == {}
    assert len(sink) == 0


def test_enabled_registry_records_everything():
    registry = Registry("test", enabled=True)
    registry.counter_add("c")
    registry.counter_add("c", 2.0)
    registry.timer_add("t", 0.5, calls=2)
    registry.gauge_set("g", 3.0)
    assert registry.counter("c") == 3.0
    stat = registry.timer("t")
    assert stat.calls == 2 and stat.total_seconds == 0.5
    assert stat.mean_seconds == 0.25
    assert registry.gauge("g") == 3.0
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"c": 3.0}
    assert snapshot["timers"]["t"]["calls"] == 2


def test_registry_reset_with_prefix():
    registry = Registry("test", enabled=True)
    registry.counter_add("runner.executed", 4)
    registry.counter_add("cache.stores", 2)
    registry.gauge_set("runner.jobs", 8)
    registry.reset("runner.")
    assert registry.counter("runner.executed") == 0.0
    assert registry.gauge("runner.jobs", 1.0) == 1.0
    assert registry.counter("cache.stores") == 2.0
    registry.reset()
    assert registry.counters() == {}


def test_timers_sorted_slowest_first():
    registry = Registry("test", enabled=True)
    registry.timer_add("fast", 0.001)
    registry.timer_add("slow", 1.0)
    assert [stat.name for stat in registry.timers()] == ["slow", "fast"]


# ----------------------------------------------------------------------
# Trace events and sinks
# ----------------------------------------------------------------------
def _event(slot: int = 0) -> SlotTraceEvent:
    return SlotTraceEvent(
        slot=slot,
        scheduler="GreFar(V=5, beta=0)",
        front_backlog=3.0,
        dc_backlog=1.5,
        solver="greedy",
        iterations=7,
        gap=3e-10,
        objective=-2.25,
        solve_seconds=1e-4,
        energy_cost=0.75,
        served_jobs=2.0,
    )


def test_slot_trace_event_dict_round_trip():
    event = _event(slot=3)
    assert SlotTraceEvent.from_dict(event.to_dict()) == event


def test_slot_trace_event_without_gap_loads_with_zero_gap():
    payload = _event(slot=3).to_dict()
    del payload["gap"]  # written before the field existed
    assert SlotTraceEvent.from_dict(payload).gap == 0.0
    # Lines written while events still carried a ``cache`` field load too.
    legacy = {**_event(slot=3).to_dict(), "cache": "miss"}
    assert SlotTraceEvent.from_dict(legacy) == _event(slot=3)


def test_jsonl_sink_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    events = [_event(slot) for slot in range(5)]
    with JsonlSink(path) as sink:
        for event in events:
            sink.write(event)
    assert read_trace_jsonl(path) == events


def test_jsonl_sink_write_after_close_raises(tmp_path):
    sink = JsonlSink(tmp_path / "trace.jsonl")
    sink.close()
    sink.close()  # idempotent
    with pytest.raises(ValueError):
        sink.write(_event())


def test_in_memory_sink_collects_and_clears():
    sink = InMemorySink()
    sink.write(_event(0))
    sink.write(_event(1))
    assert len(sink) == 2
    assert [event.slot for event in sink.events] == [0, 1]
    sink.clear()
    assert len(sink) == 0


# ----------------------------------------------------------------------
# Telemetry does not change decisions
# ----------------------------------------------------------------------
def _run_and_fingerprint(enable: bool):
    scenario = small_scenario(horizon=30, seed=7)
    scheduler = GreFarScheduler(scenario.cluster, v=5.0)
    fingerprints = []

    def record(t, state, action, queues) -> None:
        fingerprints.append(
            action.route.tobytes()
            + action.serve.tobytes()
            + action.busy.tobytes()
        )

    registry = metrics_registry()
    registry.enabled = enable
    try:
        result = Simulator(scenario, scheduler, observers=[record]).run()
    finally:
        registry.disable()
    return fingerprints, result.summary


def test_telemetry_on_off_identical_decisions():
    off_prints, off_summary = _run_and_fingerprint(enable=False)
    on_prints, on_summary = _run_and_fingerprint(enable=True)
    assert off_prints == on_prints  # bit-for-bit identical actions
    assert off_summary == on_summary


def test_simulator_emits_one_event_per_slot():
    scenario = small_scenario(horizon=12, seed=3)
    scheduler = GreFarScheduler(scenario.cluster, v=5.0)
    registry = metrics_registry()
    sink = InMemorySink()
    registry.add_sink(sink)
    registry.enable()
    try:
        Simulator(scenario, scheduler).run()
    finally:
        registry.disable()
        registry.remove_sink(sink)
    assert [event.slot for event in sink.events] == list(range(12))
    event = sink.events[-1]
    assert event.scheduler == scheduler.name
    assert event.solver == "greedy"
    assert event.solve_seconds > 0.0
    assert registry.timer("sim.slot").calls == 12
    assert registry.timer("grefar.solve").calls == 12
    assert registry.counter("grefar.solver.greedy") == 12.0


# ----------------------------------------------------------------------
# Profile harness and hot-path table
# ----------------------------------------------------------------------
def test_profile_run_report_and_table(tmp_path):
    scenario = small_scenario(horizon=10, seed=1)
    scheduler = GreFarScheduler(scenario.cluster, v=5.0)
    trace = tmp_path / "trace.jsonl"
    report = profile_run(
        scenario, scheduler, scenario_name="small", trace_path=trace
    )
    assert report.horizon == 10
    assert len(report.events) == 10
    assert report.wall_seconds > 0.0
    assert report.slots_per_second > 0.0
    assert report.timer("sim.slot").calls == 10
    assert report.timer("never-recorded").calls == 0
    assert len(read_trace_jsonl(trace)) == 10
    # Restores the disabled state it found.
    assert not metrics_registry().enabled
    table = render_hot_path_table(report)
    for timer in ("sim.slot", "grefar.solve"):
        assert timer in table


def test_profile_run_restores_enabled_state():
    registry = metrics_registry()
    registry.enable()
    scenario = small_scenario(horizon=5, seed=1)
    profile_run(scenario, GreFarScheduler(scenario.cluster, v=5.0))
    assert registry.enabled
    registry.disable()


# ----------------------------------------------------------------------
# CLI integration: repro profile and the merged cache-info report
# ----------------------------------------------------------------------
def test_cli_profile_prints_table_and_trace(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = repro.cli.main(
        ["profile", "--scenario", "small", "--horizon", "15", "--trace", "trace.jsonl"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "hot paths" in out and "grefar.solve" in out
    assert "trace: 15 slot events -> trace.jsonl" in out
    assert len(read_trace_jsonl(tmp_path / "trace.jsonl")) == 15


def test_cli_profile_no_baseline(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert repro.cli.main(["profile", "--scenario", "small", "--horizon", "5"]) == 0
    out = capsys.readouterr().out
    assert "hot paths" in out and "sim.slot" in out
    assert list(tmp_path.iterdir()) == []  # prints only; writes nothing


def test_cache_info_merges_session_counters(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    # Contracts force cache bypass (hits would skip the checks); turn
    # them off so the load/store counters actually fire.
    monkeypatch.setenv("REPRO_CONTRACTS", "0")
    stats_registry().reset("cache.")
    # One miss + one store (first run), then one hit (second run).
    for _ in range(2):
        assert repro.cli.main(["run", "--horizon", "5", "--seed", "123"]) == 0
    capsys.readouterr()
    assert repro.cli.main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert "1 entries" in out
    assert "session: 1 hits, 1 misses, 1 stores" in out
    registry = stats_registry()
    assert registry.gauge("cache.entries") == 1.0
    assert registry.gauge("cache.bytes") > 0.0


def test_runner_stats_live_on_stats_registry(tmp_path, monkeypatch):
    from repro.runner import reset_stats, runner_stats

    reset_stats()
    assert runner_stats().render() == "runner: 0 executed, 0 cached (jobs=1)"
    stats_registry().counter_add("runner.executed", 3)
    assert runner_stats().executed == 3
    reset_stats()
    assert runner_stats().executed == 0
