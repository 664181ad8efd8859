"""Time-slotted simulation engine, scenarios and metric collection."""

from repro import _export_table

__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "MetricsCollector": ".metrics",
        "SimulationSummary": ".metrics",
        "PeakTracker": ".observers",
        "SnapshotRecorder": ".observers",
        "SimulationResult": ".simulator",
        "Simulator": ".simulator",
        "run_comparison": ".simulator",
        "Scenario": ".trace",
    },
)
