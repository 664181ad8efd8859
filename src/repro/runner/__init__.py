"""repro.runner — the unified run-execution engine.

Every paper artifact is an embarrassingly parallel fan-out of
independent simulation runs.  This package makes that structure
explicit: describe each run as a declarative
:class:`~repro.runner.spec.RunSpec`, hand the list to
:func:`~repro.runner.engine.run_many`, and get ordered
:class:`~repro.runner.result.RunResult` values back — executed
in-process, across a process pool (``jobs=N``, bit-identical to
serial), or loaded from the content-addressed on-disk cache
(:class:`~repro.runner.cache.ResultCache` under ``.repro_cache/``).

See ``docs/RUNNER.md`` for the spec format, cache layout and the
determinism guarantees; the staticcheck rule GF006 keeps experiment
modules on this path.
"""

from repro import _export_table

__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "DEFAULT_CACHE_DIR": ".cache",
        "ResultCache": ".cache",
        "SCHEMA_TAG": ".cache",
        "cache_key": ".cache",
        "default_cache": ".cache",
        "scenario_fingerprint": ".cache",
        "collect_value": ".collect",
        "scenario_collector_names": ".collect",
        "simulation_collector_names": ".collect",
        "CheckpointPolicy": ".engine",
        "RunnerStats": ".engine",
        "checkpoint_policy": ".engine",
        "reset_stats": ".engine",
        "resume_from_checkpoint": ".engine",
        "run_many": ".engine",
        "run_spec": ".engine",
        "runner_stats": ".engine",
        "set_checkpoint_policy": ".engine",
        "RunResult": ".result",
        "RunSpec": ".spec",
        "SCENARIO_KINDS": ".spec",
        "ScenarioSpec": ".spec",
    },
)
