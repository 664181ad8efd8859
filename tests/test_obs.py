"""Tests for the observability layer (repro.obs).

Covers the registry's disabled-is-a-no-op contract, timer/span
semantics (including nesting), the trace-event sinks and their JSONL
round-trip, the profile harness and hot-path table, the baseline
pipeline and its validator, and — most load-bearing — that turning
telemetry on changes *nothing* about scheduler decisions.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.cli
from repro.core.grefar import GreFarScheduler
from repro.obs.baseline import (
    BENCH_SCHEMA,
    baseline_payload,
    compare_baselines,
    validate_baseline,
    validate_baseline_file,
    write_baseline,
)
from repro.obs.baseline import main as baseline_main
from repro.obs.events import (
    InMemorySink,
    JsonlSink,
    SlotTraceEvent,
    read_trace_jsonl,
)
from repro.obs.instruments import counted, span, timed
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
    with registry.span("s"):
        pass
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


def test_span_nesting_accumulates_both_levels():
    registry = Registry("test", enabled=True)
    with registry.span("outer"):
        with registry.span("inner"):
            sum(range(1000))
    outer, inner = registry.timer("outer"), registry.timer("inner")
    assert outer.calls == 1 and inner.calls == 1
    # Inclusive timing: the parent covers at least the child.
    assert outer.total_seconds >= inner.total_seconds > 0.0


def test_timers_sorted_slowest_first():
    registry = Registry("test", enabled=True)
    registry.timer_add("fast", 0.001)
    registry.timer_add("slow", 1.0)
    assert [stat.name for stat in registry.timers()] == ["slow", "fast"]


def test_timed_and_counted_decorators_toggle_with_registry():
    registry = Registry("test", enabled=False)

    @timed("work", registry=registry)
    @counted("work.calls", registry=registry)
    def work(x):
        return x + 1

    assert work(1) == 2
    assert registry.timers() == [] and registry.counters() == {}
    registry.enable()
    assert work(2) == 3
    assert registry.timer("work").calls == 1
    assert registry.counter("work.calls") == 1.0


def test_module_level_span_helper_uses_metrics_registry():
    registry = metrics_registry()
    registry.enable()
    with span("helper.block"):
        pass
    assert registry.timer("helper.block").calls == 1
    registry.disable()


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
    assert registry.timer("sim.decide").calls == 12
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
    for phase in ("sim.slot", "sim.decide", "grefar.solve", "queues.step"):
        assert phase in table


def test_profile_run_restores_enabled_state():
    registry = metrics_registry()
    registry.enable()
    scenario = small_scenario(horizon=5, seed=1)
    profile_run(scenario, GreFarScheduler(scenario.cluster, v=5.0))
    assert registry.enabled
    registry.disable()


# ----------------------------------------------------------------------
# Baseline pipeline
# ----------------------------------------------------------------------
def _small_report():
    scenario = small_scenario(horizon=8, seed=0)
    return profile_run(
        scenario, GreFarScheduler(scenario.cluster, v=5.0), scenario_name="small"
    )


def test_baseline_payload_is_schema_valid():
    payload = baseline_payload([_small_report()], generated="2026-08-05")
    assert payload["schema"] == BENCH_SCHEMA
    assert payload["generated"] == "2026-08-05"
    assert validate_baseline(payload) == []


def test_validate_baseline_catches_corruption():
    payload = baseline_payload([_small_report()])
    assert validate_baseline({**payload, "schema": "bogus"})
    assert validate_baseline({**payload, "runs": []})
    broken_run = {**payload["runs"][0]}
    del broken_run["wall_seconds"]
    assert validate_baseline({**payload, "runs": [broken_run]})
    negative = {**payload["runs"][0], "horizon": 0}
    assert validate_baseline({**payload, "runs": [negative]})
    assert validate_baseline("not a dict") == ["payload is not a JSON object"]


def test_write_baseline_and_cli_validate(tmp_path, capsys):
    path = write_baseline([_small_report()], path=tmp_path / "BENCH_test.json")
    assert path.is_file()
    assert validate_baseline_file(path) == []
    assert baseline_main(["--validate", str(path)]) == 0
    assert "OK" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}), encoding="utf-8")
    assert baseline_main(["--validate", str(bad)]) == 1
    assert "schema" in capsys.readouterr().out


def test_write_baseline_refuses_empty():
    with pytest.raises(ValueError):
        write_baseline([])


def _scaled_payload(payload, factor):
    """A copy of *payload* with every run's throughput scaled by *factor*."""
    runs = [
        {**run, "slots_per_second": run["slots_per_second"] * factor}
        for run in payload["runs"]
    ]
    return {**payload, "runs": runs}


def test_compare_baselines_passes_within_tolerance():
    payload = baseline_payload([_small_report()])
    assert compare_baselines(payload, payload, tolerance=0.25) == []
    # A 2x slowdown still passes a 0.25 tolerance ...
    assert compare_baselines(payload, _scaled_payload(payload, 0.5), 0.25) == []


def test_compare_baselines_flags_regression_and_missing_pair():
    payload = baseline_payload([_small_report()])
    slow = _scaled_payload(payload, 0.1)
    problems = compare_baselines(payload, slow, tolerance=0.25)
    assert len(problems) == 1
    assert "regressed" in problems[0]

    gone = {**payload, "runs": []}
    problems = compare_baselines(payload, gone, tolerance=0.25)
    # Empty runs fail schema validation before pair matching.
    assert problems and "invalid" in problems[0]

    other = _scaled_payload(payload, 1.0)
    other["runs"][0] = {**other["runs"][0], "scenario": "renamed"}
    problems = compare_baselines(payload, other, tolerance=0.25)
    assert len(problems) == 1
    assert "missing" in problems[0]


def test_compare_baselines_rejects_bad_tolerance():
    payload = baseline_payload([_small_report()])
    with pytest.raises(ValueError, match="tolerance"):
        compare_baselines(payload, payload, tolerance=0.0)


def test_cli_compare_modes(tmp_path, capsys):
    old = write_baseline([_small_report()], path=tmp_path / "BENCH_old.json")
    payload = json.loads(old.read_text(encoding="utf-8"))
    new = tmp_path / "BENCH_new.json"
    new.write_text(json.dumps(_scaled_payload(payload, 0.9)), encoding="utf-8")
    assert baseline_main(["--compare", str(old), str(new)]) == 0
    assert "throughput OK" in capsys.readouterr().out

    slow = tmp_path / "BENCH_slow.json"
    slow.write_text(json.dumps(_scaled_payload(payload, 0.01)), encoding="utf-8")
    assert baseline_main(["--compare", str(old), str(slow)]) == 1
    assert "regression" in capsys.readouterr().out


# ----------------------------------------------------------------------
# CLI integration: repro profile and the merged cache-info report
# ----------------------------------------------------------------------
def test_cli_profile_prints_table_and_baseline(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = repro.cli.main(
        [
            "profile",
            "--scenario",
            "small",
            "--horizon",
            "15",
            "--trace",
            "trace.jsonl",
            "--output",
            "bench.json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "hot paths" in out and "sim.decide" in out
    assert "baseline: bench.json" in out
    assert validate_baseline_file(tmp_path / "bench.json") == []
    assert len(read_trace_jsonl(tmp_path / "trace.jsonl")) == 15


def test_cli_profile_no_baseline(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert (
        repro.cli.main(
            ["profile", "--scenario", "small", "--horizon", "5", "--no-baseline"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "hot paths" in out
    assert "baseline:" not in out
    assert list(tmp_path.glob("BENCH_*.json")) == []


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
