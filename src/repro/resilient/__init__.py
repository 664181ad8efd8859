"""Supervision layer: fallback chains, numerical guards, checkpoint/resume.

Three guarantees for long, production-scale runs (ROADMAP north star):

* **No slot is ever lost to a solver.**
  :class:`~repro.resilient.supervisor.SupervisedSolver` runs the
  configured :mod:`repro.optimize` backend, validates its answer and
  degrades down an explicit fallback chain (``lp -> greedy -> zero``)
  on any failure, recording :class:`SolverIncident` records and
  ``resilient.*`` counters through :mod:`repro.obs`.  ``core/grefar.py``
  and every eager baseline route through it (enforced by staticcheck
  rule GF008).
* **Garbage inputs cannot poison a run.**
  :func:`~repro.resilient.guards.sanitize_state` /
  :func:`~repro.resilient.guards.sanitize_trace_arrays` screen
  NaN/Inf/negative prices and availability under a configurable policy
  (raise, clamp-and-warn, hold-last-good).
* **A killed process does not lose the horizon.**
  :class:`~repro.resilient.checkpoint.Checkpointer` atomically
  snapshots the fixed-size simulation state and appends the per-slot
  history to a journal under ``.repro_cache/checkpoints/``; a resumed
  run is bit-identical to an uninterrupted one (see
  ``docs/SUPERVISION.md``).

The chaos drill (``repro chaos``, :func:`run_chaos_drill`) proves the
first guarantee end to end with deterministic fault injection.
"""

from repro import _export_table

__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "ChaosReport": ".chaos",
        "FlakyBackend": ".chaos",
        "run_chaos_drill": ".chaos",
        "CHECKPOINT_SCHEMA": ".checkpoint",
        "CheckpointError": ".checkpoint",
        "Checkpointer": ".checkpoint",
        "ColumnHistory": ".checkpoint",
        "DEFAULT_CHECKPOINT_DIR": ".checkpoint",
        "SimulationKilled": ".checkpoint",
        "checkpoint_path": ".checkpoint",
        "journal_path": ".checkpoint",
        "load_checkpoint": ".checkpoint",
        "save_checkpoint": ".checkpoint",
        "snapshot_slots": ".checkpoint",
        "GUARD_POLICIES": ".guards",
        "GuardIncident": ".guards",
        "GuardViolation": ".guards",
        "sanitize_state": ".guards",
        "sanitize_trace_arrays": ".guards",
        "BACKENDS": ".supervisor",
        "DEFAULT_CHAINS": ".supervisor",
        "MAX_INCIDENTS": ".supervisor",
        "SolveOutcome": ".supervisor",
        "SolverIncident": ".supervisor",
        "SupervisedSolver": ".supervisor",
        "chain_for": ".supervisor",
        "default_supervisor": ".supervisor",
        "solve_service": ".supervisor",
        "solve_zero": ".supervisor",
    },
)
