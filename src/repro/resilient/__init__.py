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

from repro.resilient.chaos import ChaosReport, FlakyBackend, run_chaos_drill
from repro.resilient.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    Checkpointer,
    ColumnHistory,
    DEFAULT_CHECKPOINT_DIR,
    SimulationKilled,
    checkpoint_path,
    journal_path,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilient.guards import (
    GUARD_POLICIES,
    GuardIncident,
    GuardViolation,
    sanitize_state,
    sanitize_trace_arrays,
)
from repro.resilient.supervisor import (
    BACKENDS,
    DEFAULT_CHAINS,
    MAX_INCIDENTS,
    SolveOutcome,
    SolverIncident,
    SupervisedSolver,
    chain_for,
    default_supervisor,
    solve_service,
    solve_zero,
)

__all__ = [
    "BACKENDS",
    "CHECKPOINT_SCHEMA",
    "ChaosReport",
    "CheckpointError",
    "Checkpointer",
    "ColumnHistory",
    "DEFAULT_CHAINS",
    "DEFAULT_CHECKPOINT_DIR",
    "FlakyBackend",
    "GUARD_POLICIES",
    "GuardIncident",
    "GuardViolation",
    "MAX_INCIDENTS",
    "SimulationKilled",
    "SolveOutcome",
    "SolverIncident",
    "SupervisedSolver",
    "chain_for",
    "checkpoint_path",
    "default_supervisor",
    "journal_path",
    "load_checkpoint",
    "run_chaos_drill",
    "sanitize_state",
    "sanitize_trace_arrays",
    "save_checkpoint",
    "solve_service",
    "solve_zero",
]
