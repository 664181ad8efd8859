"""Supervised per-slot solving: fallback chains around the optimize backends.

An online scheduler must emit *some* feasible decision every slot — a
crashed LP on slot 4711 of a week-long heavy-traffic run must not lose
the horizon.  :class:`SupervisedSolver` wraps the
:mod:`repro.optimize` backends with that guarantee:

1. run the configured backend (optionally under a retry budget and an
   enforced wall-clock budget — see :class:`SolverPolicy.timeout`),
2. validate the returned action — finite, feasible after
   :meth:`~repro.optimize.slot_problem.SlotServiceProblem.clip_feasible`,
   and clip-idempotent,
3. on any failure, record a structured :class:`SolverIncident` and
   degrade down an explicit fallback chain, e.g. ``lp -> greedy ->
   zero``.

The terminal ``"zero"`` backend returns the all-zeros service matrix,
which is feasible for every slot problem, so the chain cannot run dry.

**Bit-identity.** On a healthy solve the supervisor returns exactly
``problem.clip_feasible(backend(problem))`` — the same array the
unsupervised call sites used to produce — so supervision changes no
decision on healthy inputs (asserted by the golden-trace tests).

**Determinism.** The default policy has ``timeout=None``: a wall-clock
budget makes decisions depend on machine load, which would break the
runner's bit-identity and golden-trace guarantees.  Opt into a timeout
only for interactive or exploratory runs; the ``timeout=None`` path
runs no watchdog thread and is byte-identical to the unbudgeted solve.

Incidents are counted on the always-on stats registry
(:func:`repro.obs.registry.stats_registry`) under ``resilient.*`` and
mirrored to the hot-path metrics registry when telemetry is on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._validation import require_integer
from repro.obs.registry import metrics_registry, stats_registry
from repro.optimize import SolverFailure, solve_greedy, solve_lp, solve_qp
from repro.optimize.slot_problem import SlotServiceProblem

__all__ = [
    "BACKENDS",
    "DEFAULT_CHAINS",
    "SolveOutcome",
    "SolverIncident",
    "SolverPolicy",
    "SupervisedSolver",
    "chain_for",
    "default_supervisor",
    "solve_service",
    "solve_zero",
]


def solve_zero(problem: SlotServiceProblem) -> np.ndarray:
    """The all-zeros service matrix: always feasible, serves nothing.

    Terminal fallback of every chain — "skip this slot" is the online
    scheduler's last resort, and it is always a legal action (the queue
    dynamics (12)-(13) simply carry the backlog forward).
    """
    return np.zeros_like(problem.h_upper)


#: Name -> solve function for every supervisable backend.
BACKENDS: Dict[str, Callable[[SlotServiceProblem], np.ndarray]] = {
    "greedy": solve_greedy,
    "lp": solve_lp,
    "qp": solve_qp,
    "zero": solve_zero,
}

#: Primary backend -> its default fallback chain.  Every chain degrades
#: through the exact closed-form greedy solver (cheap, dependency-light)
#: before giving up the slot with the zero action.  The fairness-aware
#: QP falls back to greedy too: the beta = 0 solution is feasible for
#: the beta > 0 problem (same constraint set), it merely ignores the
#: fairness pull for that one slot.
DEFAULT_CHAINS: Dict[str, Tuple[str, ...]] = {
    "greedy": ("greedy", "zero"),
    "lp": ("lp", "greedy", "zero"),
    "qp": ("qp", "greedy", "zero"),
    "zero": ("zero",),
}

ChainEntry = Union[str, Callable[[SlotServiceProblem], np.ndarray]]


def chain_for(primary: ChainEntry) -> Tuple[ChainEntry, ...]:
    """The default fallback chain starting at *primary*.

    Unknown names raise; a callable primary (e.g. a chaos backend) gets
    the standard ``greedy -> zero`` tail appended.
    """
    if callable(primary):
        return (primary, "greedy", "zero")
    try:
        return DEFAULT_CHAINS[primary]
    except KeyError:
        raise ValueError(
            f"unknown solver backend {primary!r}; choose from {sorted(BACKENDS)}"
        ) from None


def _entry_label(entry: ChainEntry) -> str:
    if isinstance(entry, str):
        return entry
    return getattr(entry, "name", None) or getattr(entry, "__name__", repr(entry))


def _entry_callable(entry: ChainEntry) -> Callable[[SlotServiceProblem], np.ndarray]:
    if isinstance(entry, str):
        try:
            return BACKENDS[entry]
        except KeyError:
            raise ValueError(
                f"unknown solver backend {entry!r}; choose from {sorted(BACKENDS)}"
            ) from None
    return entry


@dataclass(frozen=True)
class SolverIncident:
    """One failed solve attempt, as recorded by the supervisor.

    ``reason`` is a short category (``"raised"``, ``"non-finite"``,
    ``"infeasible"``, ``"clip-unstable"``, ``"timeout"``); ``detail``
    carries the human-readable specifics (exception text, solver status
    message).
    """

    slot: Optional[int]
    backend: str
    attempt: int
    reason: str
    detail: str = ""

    def render(self) -> str:
        where = f"slot {self.slot}" if self.slot is not None else "slot ?"
        text = f"[{where}] {self.backend} attempt {self.attempt}: {self.reason}"
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass(frozen=True)
class SolveOutcome:
    """What one supervised solve produced."""

    #: The validated (clipped, feasible) service matrix.
    h: np.ndarray
    #: Label of the backend that finally served the slot.
    backend: str
    #: True when the serving backend was not the first chain entry.
    degraded: bool
    #: Incidents recorded during this call, in order.
    incidents: Tuple[SolverIncident, ...] = ()


@dataclass(frozen=True)
class SolverPolicy:
    """Supervision knobs.

    Parameters
    ----------
    retries:
        Extra attempts per backend before degrading to the next chain
        entry (0 = one attempt each).  Deterministic backends fail
        identically on retry; the budget exists for stochastic or
        external backends.
    timeout:
        Optional *enforced* wall-clock budget in seconds across the
        whole chain.  Non-terminal attempts run on a daemon watchdog
        thread and are abandoned once the remaining budget is spent —
        a runaway backend cannot stall the slot — recording a
        ``"timeout"`` incident and degrading down the chain; the
        deadline is also checked between attempts.  The terminal entry
        always runs unthreaded so the chain is guaranteed to produce a
        result.  **Default None** (no thread, no budget): any timeout
        makes decisions load-dependent, which breaks the bit-identity
        guarantees (golden trace, serial/parallel, resume) — opt in
        only where determinism does not matter.
    feasibility_tol:
        Tolerance handed to
        :meth:`~repro.optimize.slot_problem.SlotServiceProblem.is_feasible`.
    """

    retries: int = 0
    timeout: Optional[float] = None
    feasibility_tol: float = 1e-6

    def __post_init__(self) -> None:
        require_integer(self.retries, "retries", minimum=0)
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError(f"timeout must be positive or None, got {self.timeout}")


class SupervisedSolver:
    """Run slot solves under supervision with an explicit fallback chain.

    Parameters
    ----------
    chain:
        Optional fixed chain of backend names and/or callables.  When
        ``None`` (default) the chain is resolved per call from the
        ``primary`` argument via :func:`chain_for`.
    policy:
        A :class:`SolverPolicy`; defaults to the deterministic policy
        (no timeout, no retries).
    max_incidents:
        Cap on the retained incident log (oldest dropped first) so a
        pathological run cannot grow memory without bound.  Counters on
        the stats registry keep exact totals regardless.
    """

    def __init__(
        self,
        chain: Optional[Sequence[ChainEntry]] = None,
        policy: Optional[SolverPolicy] = None,
        max_incidents: int = 1000,
    ) -> None:
        self.chain: Optional[Tuple[ChainEntry, ...]] = (
            tuple(chain) if chain is not None else None
        )
        if self.chain is not None and not self.chain:
            raise ValueError("chain must have at least one entry")
        if self.chain is not None:
            for entry in self.chain:
                _entry_callable(entry)  # validate names eagerly
        self.policy = policy if policy is not None else SolverPolicy()
        self.max_incidents = require_integer(
            max_incidents, "max_incidents", minimum=1
        )
        self.incidents: List[SolverIncident] = []

    # ------------------------------------------------------------------
    def clear_incidents(self) -> None:
        """Drop the retained incident log (counters are untouched)."""
        self.incidents.clear()

    @property
    def incident_count(self) -> int:
        return len(self.incidents)

    # ------------------------------------------------------------------
    def solve(
        self,
        problem: SlotServiceProblem,
        primary: ChainEntry = "greedy",
        slot: Optional[int] = None,
    ) -> SolveOutcome:
        """Solve *problem*, degrading down the chain until a valid ``h``.

        Returns a :class:`SolveOutcome`; never raises for a backend
        failure.  Only a defect in the terminal zero action itself (or
        ``KeyboardInterrupt``/``SystemExit``) can escape.
        """
        chain = self.chain if self.chain is not None else chain_for(primary)
        policy = self.policy
        reg = stats_registry()
        deadline = None
        if policy.timeout is not None:
            deadline = reg.clock() + policy.timeout
        call_incidents: List[SolverIncident] = []
        last_index = len(chain) - 1
        for position, entry in enumerate(chain):
            label = _entry_label(entry)
            backend = _entry_callable(entry)
            attempts = 1 if position == last_index else 1 + policy.retries
            for attempt in range(1, attempts + 1):
                if (
                    deadline is not None
                    and position != last_index
                    and reg.clock() > deadline
                ):
                    self._record(
                        call_incidents,
                        SolverIncident(
                            slot=slot,
                            backend=label,
                            attempt=attempt,
                            reason="timeout",
                            detail=f"budget of {policy.timeout:g}s exhausted",
                        ),
                    )
                    break  # skip to the next (eventually terminal) entry
                # Enforce the remaining budget on non-terminal attempts;
                # the terminal entry always runs unthreaded so the chain
                # is guaranteed to return.
                budget = None
                if deadline is not None and position != last_index:
                    budget = deadline - reg.clock()
                failure = self._attempt(problem, backend, policy, budget)
                if not isinstance(failure, _Failure):
                    h = failure
                    degraded = position > 0
                    if degraded:
                        reg.counter_add("resilient.fallbacks")
                        reg.counter_add(f"resilient.fallback.{label}")
                        if label == "zero":
                            reg.counter_add("resilient.zero_actions")
                    return SolveOutcome(
                        h=h,
                        backend=label,
                        degraded=degraded,
                        incidents=tuple(call_incidents),
                    )
                self._record(
                    call_incidents,
                    SolverIncident(
                        slot=slot,
                        backend=label,
                        attempt=attempt,
                        reason=failure.reason,
                        detail=failure.detail,
                    ),
                )
        # Unreachable with a well-formed chain: the zero action is
        # always finite, feasible and clip-stable.  Fail loudly if a
        # custom chain lacks a working terminal entry.
        raise SolverFailure(
            _entry_label(chain[-1]),
            f"every backend in chain {tuple(_entry_label(e) for e in chain)} failed",
            problem,
        )

    # ------------------------------------------------------------------
    def _attempt(self, problem, backend, policy, budget=None):
        """One backend attempt: run, clip, validate.

        With a *budget* (seconds) the backend runs on a daemon watchdog
        thread and is abandoned once the budget is spent.  Returns the
        validated ``h`` on success, a :class:`_Failure` otherwise.
        """
        try:
            if budget is None:
                raw = backend(problem)
            else:
                raw = _call_with_budget(backend, problem, budget)
        except (KeyboardInterrupt, SystemExit):  # pragma: no cover
            raise
        except _AttemptTimeout:
            return _Failure(
                "timeout", f"attempt abandoned after {budget:g}s budget"
            )
        except SolverFailure as exc:
            return _Failure("raised", str(exc))
        except Exception as exc:  # noqa: BLE001 - supervision boundary
            return _Failure("raised", f"{type(exc).__name__}: {exc}")
        raw = np.asarray(raw, dtype=np.float64)
        if raw.shape != problem.h_upper.shape:
            return _Failure(
                "infeasible",
                f"shape {raw.shape} != {problem.h_upper.shape}",
            )
        if not np.all(np.isfinite(raw)):
            return _Failure("non-finite", "backend returned NaN/Inf entries")
        h = problem.clip_feasible(raw)
        if not problem.is_feasible(h, tol=policy.feasibility_tol):
            return _Failure("infeasible", "clipped solution violates constraints")
        if not np.allclose(problem.clip_feasible(h), h, rtol=0.0, atol=1e-9):
            return _Failure("clip-unstable", "clip_feasible is not idempotent here")
        return h

    def _record(self, call_incidents, incident: SolverIncident) -> None:
        call_incidents.append(incident)
        self.incidents.append(incident)
        if len(self.incidents) > self.max_incidents:
            del self.incidents[: -self.max_incidents]
        stats = stats_registry()
        stats.counter_add("resilient.incidents")
        stats.counter_add(f"resilient.failures.{incident.backend}")
        metrics = metrics_registry()
        metrics.counter_add("resilient.incidents")
        metrics.counter_add(f"resilient.failures.{incident.backend}")


@dataclass(frozen=True)
class _Failure:
    """Internal: why one attempt was rejected."""

    reason: str
    detail: str = ""


class _AttemptTimeout(Exception):
    """Internal: a budgeted attempt outlived its wall-clock budget."""


def _call_with_budget(backend, problem, budget):
    """Run ``backend(problem)`` on a daemon thread, bounded by *budget*.

    The abandoned thread cannot be killed — it is daemonized and its
    eventual result is discarded — but the caller regains control after
    at most *budget* seconds, which is the property the supervision
    chain needs.  Exceptions from the backend are re-raised here so the
    caller's handling is identical to the unbudgeted path.
    """
    box: dict = {}

    def _run() -> None:
        try:
            box["value"] = backend(problem)
        except BaseException as exc:  # noqa: BLE001 - relayed to caller
            box["error"] = exc

    thread = threading.Thread(
        target=_run, name="repro-solver-attempt", daemon=True
    )
    thread.start()
    thread.join(max(budget, 0.0))
    if thread.is_alive():
        raise _AttemptTimeout
    if "error" in box:
        raise box["error"]
    return box["value"]


# ----------------------------------------------------------------------
# Module-level convenience for the eager baselines
# ----------------------------------------------------------------------
_DEFAULT_SUPERVISOR = SupervisedSolver()


def default_supervisor() -> SupervisedSolver:
    """The process-wide supervisor behind :func:`solve_service`."""
    return _DEFAULT_SUPERVISOR


def solve_service(
    problem: SlotServiceProblem,
    primary: ChainEntry = "greedy",
    slot: Optional[int] = None,
) -> np.ndarray:
    """Supervised drop-in for ``problem.clip_feasible(backend(problem))``.

    The one-line entry point the baseline schedulers use (staticcheck
    rule GF008 keeps direct backend calls out of scheduler code).
    Returns the validated ``h`` from :meth:`SupervisedSolver.solve` on
    the shared :func:`default_supervisor`.
    """
    return _DEFAULT_SUPERVISOR.solve(problem, primary=primary, slot=slot).h
