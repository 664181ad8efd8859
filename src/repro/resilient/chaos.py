"""Chaos drill: deterministic solver-fault injection for the supervisor.

The acceptance bar for the supervision layer is concrete: with the
primary backend forced to fail on >= 10% of slots, a full paper
scenario must complete with zero uncaught exceptions, a feasible action
every slot, and the fallbacks visible in the ``resilient.*`` counters.
:class:`FlakyBackend` provides the forcing — a picklable, seeded
wrapper around a real backend that fails deterministically on a fixed
fraction of calls — and :func:`run_chaos_drill` packages the whole
check behind ``repro chaos`` and the CI ``chaos`` job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro._validation import require_in_range, require_integer
from repro.obs.registry import stats_registry
from repro.optimize.slot_problem import SolverFailure
from repro.resilient.supervisor import (
    SupervisedSolver,
    _entry_callable,
    chain_for,
)

__all__ = ["ChaosReport", "FlakyBackend", "run_chaos_drill"]


class FlakyBackend:
    """A solver backend that fails on a seeded fraction of its calls.

    Failure ``mode``:

    * ``"raise"`` — raise :class:`~repro.optimize.SolverFailure` (the
      typed path a real LP/QP failure takes);
    * ``"nan"`` — return an all-NaN matrix (exercises the supervisor's
      result validation rather than its exception handling);
    * ``"error"`` — raise a bare ``ValueError`` (an *untyped* backend
      bug; the supervisor must contain those too).

    The failure pattern depends only on ``(seed, call index)``, so a
    drill is reproducible and a resumed drill — which replays the same
    call sequence from the restored scheduler — fails on the same slots.
    """

    _MODES = ("raise", "nan", "error")

    def __init__(
        self,
        backend: str = "greedy",
        failure_rate: float = 0.1,
        seed: int = 0,
        mode: str = "raise",
    ) -> None:
        self.backend = backend
        self._solve = _entry_callable(backend)
        self.failure_rate = require_in_range(
            failure_rate, 0.0, 1.0, "failure_rate"
        )
        self.seed = require_integer(seed, "seed", minimum=0)
        if mode not in self._MODES:
            raise ValueError(f"unknown failure mode {mode!r}; choose from {self._MODES}")
        self.mode = mode
        self.calls = 0
        self.failures = 0
        self._rng = np.random.default_rng(seed)
        self.name = f"flaky-{backend}"

    def __call__(self, problem) -> np.ndarray:
        self.calls += 1
        if self._rng.random() < self.failure_rate:
            self.failures += 1
            if self.mode == "nan":
                return np.full_like(problem.h_upper, np.nan)
            if self.mode == "error":
                raise ValueError(f"injected untyped fault on call {self.calls}")
            raise SolverFailure(
                self.backend, f"injected fault on call {self.calls}", problem
            )
        return self._solve(problem)

    # The wrapped solve function is re-resolved on unpickle so the
    # callable itself never travels between processes.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_solve"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._solve = _entry_callable(self.backend)


@dataclass(frozen=True)
class ChaosReport:
    """What one chaos drill observed."""

    slots: int
    injected_failures: int
    incidents: int
    fallbacks: int
    zero_actions: int
    counters: Dict[str, float]
    summary: object  # SimulationSummary

    @property
    def survived(self) -> bool:
        """True when the run completed and every injected fault was absorbed."""
        return self.incidents >= self.injected_failures > 0

    def render(self) -> str:
        lines = [
            f"chaos drill: {self.slots} slots completed, "
            f"{self.injected_failures} faults injected",
            f"  incidents recorded : {self.incidents}",
            f"  fallback solves    : {self.fallbacks}",
            f"  zero-action slots  : {self.zero_actions}",
        ]
        for name in sorted(self.counters):
            lines.append(f"  {name:<30s} {self.counters[name]:g}")
        return "\n".join(lines)


def run_chaos_drill(
    scenario,
    scheduler,
    failure_rate: float = 0.15,
    seed: int = 0,
    mode: str = "raise",
    horizon: Optional[int] = None,
) -> ChaosReport:
    """Run *scheduler* with a flaky primary backend; validate every slot.

    The scheduler must expose a :class:`SupervisedSolver` on a
    ``supervisor`` attribute and a ``select_backend()`` method (i.e. be
    a :class:`~repro.core.grefar.GreFarScheduler`).  Its primary backend
    is wrapped in a :class:`FlakyBackend` and the run executes with
    ``validate=True``, so an infeasible action on any slot fails loudly
    instead of averaging out.
    """
    from repro.simulation.simulator import Simulator

    primary = scheduler.select_backend()
    flaky = FlakyBackend(
        backend=primary, failure_rate=failure_rate, seed=seed, mode=mode
    )
    # The flaky wrapper sits in front of the primary's own default
    # chain, so an injected fault degrades to the *real* backend first
    # and the slot is still solved properly, not just zeroed.
    scheduler.supervisor = SupervisedSolver(chain=(flaky, *chain_for(primary)))
    stats = stats_registry()
    stats.reset("resilient.")
    result = Simulator(scenario, scheduler, validate=True).run(horizon)
    counters = {
        name: value
        for name, value in stats.counters().items()
        if name.startswith("resilient.")
    }
    return ChaosReport(
        slots=len(result.metrics.energy_cost),
        injected_failures=flaky.failures,
        incidents=int(counters.get("resilient.incidents", 0)),
        fallbacks=int(counters.get("resilient.fallbacks", 0)),
        zero_actions=int(counters.get("resilient.zero_actions", 0)),
        counters=counters,
        summary=result.summary,
    )
