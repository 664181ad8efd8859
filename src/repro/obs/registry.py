"""Process-local telemetry registries: counters, timers, gauges, trace sinks.

Two registry instances back the whole observability layer:

* the **metrics registry** (:func:`metrics_registry`) carries the
  decision telemetry — the ``sim.slot`` and ``grefar.solve`` timers,
  the ``grefar.solver.<backend>`` counters, the per-decision solve note
  and the per-slot trace events.  It starts *disabled*
  (unless ``REPRO_OBS=1``) and every mutating method returns
  immediately while disabled, so instrumented code pays one attribute
  read per call site and a run with telemetry off is decision- and
  (within noise) wall-clock-identical to an uninstrumented one.
* the **stats registry** (:func:`stats_registry`) carries the coarse
  session counters the CLI reports after every command — runner
  executions, cache hits/misses/stores, cache size gauges — plus the
  silent-degradation counters (``solve.qp.capped``,
  ``solve.qp.uncertified``, ``sim.clip.*``), which fire only on the slot
  a degradation happens.  These call sites are rare, so this registry is
  always enabled.

This module is the one place in ``src/repro`` allowed to read the
performance clock directly; everything else reads :meth:`Registry.clock`
and records through :meth:`Registry.timer_add` (enforced by staticcheck
rule GF007).  Per-layer self-times are ``perfbench/``'s business: its
tracer wraps each layer from outside, so nothing here nests.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = [
    "Registry",
    "TimerStat",
    "disable_metrics",
    "enable_metrics",
    "metrics_enabled",
    "metrics_registry",
    "stats_registry",
]


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip() not in ("", "0")


@dataclass(frozen=True)
class TimerStat:
    """Accumulated wall-clock total for one named timer."""

    name: str
    calls: int
    total_seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0


class Registry:
    """One process-local bag of counters, timers, gauges and trace sinks.

    Every mutating method (``counter_add``, ``timer_add``, ``gauge_set``,
    ``note_solve``, ``emit``) is a no-op while :attr:`enabled` is False;
    the read side always works so reports can render a disabled
    registry as empty rather than crashing.
    """

    __slots__ = ("name", "enabled", "_counters", "_timers", "_gauges", "_sinks", "_solve")

    def __init__(self, name: str = "metrics", enabled: bool = False) -> None:
        self.name = name
        self.enabled = bool(enabled)
        self._counters: Dict[str, float] = {}
        self._timers: Dict[str, List[float]] = {}
        self._gauges: Dict[str, float] = {}
        self._sinks: List[Any] = []
        self._solve: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> "Registry":
        self.enabled = True
        return self

    def disable(self) -> "Registry":
        self.enabled = False
        return self

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero counters, timers, gauges and the pending solve note.

        With *prefix*, only instruments whose name starts with it are
        cleared (e.g. ``reset("runner.")`` zeros the engine counters
        without touching cache stats).  Sinks are left attached —
        clearing collected *events* is the sink's business
        (:meth:`clear_sinks` detaches them).
        """
        if prefix is None:
            self._counters.clear()
            self._timers.clear()
            self._gauges.clear()
            self._solve.clear()
            return
        for bag in (self._counters, self._timers, self._gauges):
            for key in [name for name in bag if name.startswith(prefix)]:
                del bag[key]

    @staticmethod
    def clock() -> float:
        """The performance clock (seconds, monotonic, arbitrary epoch)."""
        return time.perf_counter()

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def counter_add(self, name: str, value: float = 1.0) -> None:
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0.0) + value

    def counter(self, name: str) -> float:
        return float(self._counters.get(name, 0.0))

    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def timer_add(self, name: str, seconds: float, calls: int = 1) -> None:
        if not self.enabled:
            return
        entry = self._timers.get(name)
        if entry is None:
            self._timers[name] = [float(calls), float(seconds)]
        else:
            entry[0] += calls
            entry[1] += seconds

    def timer(self, name: str) -> TimerStat:
        calls, total = self._timers.get(name, [0.0, 0.0])
        return TimerStat(name=name, calls=int(calls), total_seconds=float(total))

    def timers(self) -> List[TimerStat]:
        """Every timer, slowest total first (ties broken by name)."""
        stats = [self.timer(name) for name in self._timers]
        return sorted(stats, key=lambda s: (-s.total_seconds, s.name))

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    def gauge_set(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self._gauges[name] = float(value)

    def gauge(self, name: str, default: float = 0.0) -> float:
        return float(self._gauges.get(name, default))

    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    # ------------------------------------------------------------------
    # Per-decision solve notes (solver -> simulator handoff)
    # ------------------------------------------------------------------
    def note_solve(self, **fields: Any) -> None:
        """Merge *fields* into the pending per-decision solve record.

        Solver backends note what only they know (iteration counts);
        the scheduler layers on the chosen backend, objective value and
        solve time; the simulator finally folds the record into that
        slot's trace event via :meth:`consume_solve`.
        """
        if not self.enabled:
            return
        self._solve.update(fields)

    def consume_solve(self) -> Dict[str, Any]:
        """Pop and return the pending solve record (empty if none)."""
        record = dict(self._solve)
        self._solve.clear()
        return record

    # ------------------------------------------------------------------
    # Trace sinks
    # ------------------------------------------------------------------
    def add_sink(self, sink: Any) -> None:
        """Attach a trace sink (any object with ``write(event)``)."""
        self._sinks.append(sink)

    def remove_sink(self, sink: Any) -> None:
        """Detach *sink* if attached (no error otherwise)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def clear_sinks(self) -> None:
        self._sinks.clear()

    @property
    def sinks(self) -> List[Any]:
        return list(self._sinks)

    def emit(self, event: Any) -> None:
        """Deliver *event* to every attached sink (no-op while disabled)."""
        if not self.enabled:
            return
        for sink in self._sinks:
            sink.write(event)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict view of everything recorded (for tests/reports)."""
        return {
            "name": self.name,
            "enabled": self.enabled,
            "counters": self.counters(),
            "timers": {
                stat.name: {"calls": stat.calls, "total_seconds": stat.total_seconds}
                for stat in self.timers()
            },
            "gauges": self.gauges(),
        }


# ----------------------------------------------------------------------
# Process-local instances
# ----------------------------------------------------------------------
_METRICS = Registry("metrics", enabled=_env_truthy("REPRO_OBS"))
_STATS = Registry("stats", enabled=True)


def metrics_registry() -> Registry:
    """The hot-path registry (disabled unless enabled or ``REPRO_OBS=1``)."""
    return _METRICS


def stats_registry() -> Registry:
    """The always-on coarse session-stats registry (runner/cache counters)."""
    return _STATS


def metrics_enabled() -> bool:
    """True when hot-path telemetry is currently recording."""
    return _METRICS.enabled


def enable_metrics() -> Registry:
    """Turn hot-path telemetry on; returns the metrics registry."""
    return _METRICS.enable()


def disable_metrics() -> Registry:
    """Turn hot-path telemetry off; returns the metrics registry."""
    return _METRICS.disable()
