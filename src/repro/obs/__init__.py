"""Observability & telemetry layer: decision telemetry and session counters.

Zero-dependency instrumentation for the reproduction's slot loop:

* :mod:`repro.obs.registry` — process-local :class:`Registry` of
  counters/timers/gauges; the hot-path **metrics** registry is a no-op
  unless enabled (``REPRO_OBS=1`` or :func:`enable_metrics`), the
  coarse **stats** registry (runner/cache session counters) is always
  on.  :meth:`Registry.clock` plus :meth:`Registry.timer_add` is the
  only sanctioned wall-clock access outside ``repro/obs/``
  (staticcheck GF007).
* :mod:`repro.obs.events` — structured per-slot
  :class:`SlotTraceEvent` stream with in-memory and JSONL sinks.
* :mod:`repro.obs.profile` — run one scenario with telemetry on and
  render its timer table (``repro profile``).

Per-layer timing is measured from outside by ``perfbench/``, whose
tracer wraps each layer and reports true self-times; the committed
``BENCH_<date>.json`` it records is the performance reference.

``profile`` imports the simulation stack, so it is deliberately *not*
imported here: the instrumented modules (``core/grefar.py``,
``simulation/simulator.py``, ...) can import ``repro.obs`` without a
cycle.

See ``docs/OBSERVABILITY.md`` for the profiling workflow.
"""

from repro.obs.events import InMemorySink, JsonlSink, SlotTraceEvent, read_trace_jsonl
from repro.obs.registry import (
    Registry,
    TimerStat,
    disable_metrics,
    enable_metrics,
    metrics_enabled,
    metrics_registry,
    stats_registry,
)

__all__ = [
    "InMemorySink",
    "JsonlSink",
    "Registry",
    "SlotTraceEvent",
    "TimerStat",
    "disable_metrics",
    "enable_metrics",
    "metrics_enabled",
    "metrics_registry",
    "read_trace_jsonl",
    "stats_registry",
]
