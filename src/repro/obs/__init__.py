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

``profile`` imports the simulation stack, so it is left out of the
export table: ``from repro.obs import *`` stays free of the modules it
instruments.

See ``docs/OBSERVABILITY.md`` for the profiling workflow.
"""

from repro import _export_table

__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "InMemorySink": ".events",
        "JsonlSink": ".events",
        "SlotTraceEvent": ".events",
        "read_trace_jsonl": ".events",
        "Registry": ".registry",
        "TimerStat": ".registry",
        "disable_metrics": ".registry",
        "enable_metrics": ".registry",
        "metrics_enabled": ".registry",
        "metrics_registry": ".registry",
        "stats_registry": ".registry",
    },
)
