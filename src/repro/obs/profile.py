"""Profiling harness: run one scenario with telemetry on, report hot paths.

``profile_run`` wraps a normal :class:`~repro.simulation.simulator.Simulator`
run: it enables the metrics registry, attaches an in-memory trace sink
(plus an optional JSONL sink), runs the simulation, and freezes
everything the instrumented hot paths recorded into a
:class:`ProfileReport`.  ``render_hot_path_table`` turns the report into
the timer table ``repro profile`` prints.  The report is printed, never
written: the performance reference is the ``BENCH_<date>.json`` that
``perfbench/`` records (``benchmarks/bench_gate.py``).

The registry is reset on entry and restored to its previous
enabled/disabled state on exit, so profiling a scenario from a session
that normally runs with telemetry off leaves no residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.obs.events import InMemorySink, JsonlSink, SlotTraceEvent
from repro.obs.registry import TimerStat, metrics_registry

__all__ = ["ProfileReport", "profile_run", "render_hot_path_table"]


@dataclass(frozen=True)
class ProfileReport:
    """Everything one profiled run recorded."""

    scenario: str
    scheduler: str
    horizon: int
    wall_seconds: float
    timers: Tuple[TimerStat, ...]
    counters: Dict[str, float]
    events: Tuple[SlotTraceEvent, ...]
    summary: Any

    @property
    def slots_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.horizon / self.wall_seconds

    def timer(self, name: str) -> TimerStat:
        """The named timer (zero calls if the phase never fired)."""
        for stat in self.timers:
            if stat.name == name:
                return stat
        return TimerStat(name=name, calls=0, total_seconds=0.0)


def profile_run(
    scenario,
    scheduler,
    horizon: Optional[int] = None,
    cost_model=None,
    scenario_name: str = "custom",
    trace_path=None,
) -> ProfileReport:
    """Run *scheduler* on *scenario* with telemetry on; return the report.

    Parameters
    ----------
    horizon:
        Slots to simulate (default: the whole scenario).
    scenario_name:
        Label stored in the report (``repro profile`` passes the CLI
        choice; library callers can pass anything descriptive).
    trace_path:
        If given, every per-slot trace event is also streamed to this
        JSONL file while the run executes.
    """
    # Imported here: repro.simulation sits above the obs layer (the
    # simulator itself imports repro.obs for its instrumentation).
    from repro.simulation.simulator import Simulator

    registry = metrics_registry()
    was_enabled = registry.enabled
    registry.reset()
    sink = InMemorySink()
    registry.add_sink(sink)
    jsonl = None
    if trace_path is not None:
        jsonl = JsonlSink(trace_path)
        registry.add_sink(jsonl)
    registry.enable()
    start = registry.clock()
    try:
        result = Simulator(scenario, scheduler, cost_model=cost_model).run(horizon)
    finally:
        wall_seconds = registry.clock() - start
        registry.enabled = was_enabled
        registry.remove_sink(sink)
        if jsonl is not None:
            registry.remove_sink(jsonl)
            jsonl.close()

    return ProfileReport(
        scenario=scenario_name,
        scheduler=scheduler.name,
        horizon=horizon if horizon is not None else scenario.horizon,
        wall_seconds=wall_seconds,
        timers=tuple(registry.timers()),
        counters=registry.counters(),
        events=tuple(sink.events),
        summary=result.summary,
    )


def render_hot_path_table(report: ProfileReport) -> str:
    """The timer table ``repro profile`` prints.

    One row per timer, slowest total first, with the share of the
    run's wall time each accounts for.  ``sim.slot`` contains
    ``grefar.solve``, so the percentage column is a coverage map, not a
    partition; ``perfbench/run.py --trace 1`` reports true per-layer
    self-times.
    """
    from repro.analysis.tables import format_table

    wall = report.wall_seconds
    rows = []
    for stat in report.timers:
        share = 100.0 * stat.total_seconds / wall if wall > 0.0 else 0.0
        rows.append(
            (
                stat.name,
                stat.calls,
                stat.total_seconds,
                stat.mean_seconds * 1e3,
                share,
            )
        )
    title = (
        f"hot paths — {report.scenario} scenario, {report.horizon} slots, "
        f"{report.scheduler}: {report.wall_seconds:.4f}s wall "
        f"({report.slots_per_second:.0f} slots/s)"
    )
    return format_table(
        ["Phase", "Calls", "Total s", "Mean ms", "% wall"],
        rows,
        precision=4,
        title=title,
    )
