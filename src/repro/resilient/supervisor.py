"""Supervised per-slot solving: fallback chains around the optimize backends.

An online scheduler must emit *some* feasible decision every slot — a
crashed LP on slot 4711 of a week-long heavy-traffic run must not lose
the horizon.  :class:`SupervisedSolver` wraps the
:mod:`repro.optimize` backends with that guarantee:

1. run the configured backend once,
2. check its answer once — right shape, finite, and feasible (at
   tolerance 1e-6) after one
   :meth:`~repro.optimize.slot_problem.SlotServiceProblem.clip_feasible`;
   the check computes the site loads of the clipped answer once and
   hands them on with it (:attr:`SolveOutcome.loads`),
3. on any failure, record a structured :class:`SolverIncident` and
   degrade down an explicit fallback chain, e.g. ``lp -> greedy ->
   zero``.

A clip that alters a backend's finite answer is counted as
``resilient.clip.changed``.  Only with ``REPRO_CONTRACTS=1`` is the
clipped answer re-clipped to check ``clip_feasible`` is idempotent.

The terminal ``"zero"`` backend returns the all-zeros service matrix,
which is feasible for every slot problem, so the chain cannot run dry.

**Bit-identity.** On a healthy solve the supervisor returns exactly
``problem.clip_feasible(backend(problem))`` — the same array the
unsupervised call sites used to produce — so supervision changes no
decision on healthy inputs (asserted by the golden-trace tests).

Incidents are counted on the always-on stats registry
(:func:`repro.obs.registry.stats_registry`) under ``resilient.*`` and
mirrored to the hot-path metrics registry when telemetry is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._contracts import ContractViolation, contracts_enabled
from repro.obs.registry import metrics_registry, stats_registry
from repro.optimize.greedy import solve_greedy
from repro.optimize.lp import solve_lp
from repro.optimize.qp import solve_qp
from repro.optimize.slot_problem import SlotServiceProblem, SolverFailure

__all__ = [
    "BACKENDS",
    "DEFAULT_CHAINS",
    "MAX_INCIDENTS",
    "SolveOutcome",
    "SolverIncident",
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

#: Cap on each supervisor's retained incident log (oldest dropped first)
#: so a pathological run cannot grow memory without bound.  Counters on
#: the stats registry keep exact totals regardless.
MAX_INCIDENTS = 1000

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
    ``"infeasible"``); ``detail`` carries the human-readable specifics
    (exception text, solver status message).
    """

    slot: Optional[int]
    backend: str
    reason: str
    detail: str = ""

    def render(self) -> str:
        where = f"slot {self.slot}" if self.slot is not None else "slot ?"
        text = f"[{where}] {self.backend}: {self.reason}"
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass(frozen=True, eq=False)
class SolveOutcome:
    """What one supervised solve produced."""

    #: The validated (clipped, feasible) service matrix.
    h: np.ndarray
    #: Its site loads ``problem.loads(h)``, read-only, as the check computed them.
    loads: np.ndarray
    #: Label of the backend that finally served the slot.
    backend: str
    #: True when the serving backend was not the first chain entry.
    degraded: bool
    #: Incidents recorded during this call, in order.
    incidents: Tuple[SolverIncident, ...] = ()


class SupervisedSolver:
    """Run slot solves under supervision with an explicit fallback chain.

    Parameters
    ----------
    chain:
        Optional fixed chain of backend names and/or callables.  When
        ``None`` (default) the chain is resolved per call from the
        ``primary`` argument via :func:`chain_for`.

    Every chain entry gets one attempt.  The retained incident log is
    capped at :data:`MAX_INCIDENTS` entries.
    """

    def __init__(self, chain: Optional[Sequence[ChainEntry]] = None) -> None:
        self.chain: Optional[Tuple[ChainEntry, ...]] = (
            tuple(chain) if chain is not None else None
        )
        if self.chain is not None and not self.chain:
            raise ValueError("chain must have at least one entry")
        if self.chain is not None:
            for entry in self.chain:
                _entry_callable(entry)  # validate names eagerly
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
        failure.  Only a defect in the terminal zero action itself, a
        :class:`~repro._contracts.ContractViolation` under
        ``REPRO_CONTRACTS=1``, or ``KeyboardInterrupt``/``SystemExit``
        can escape.
        """
        chain = self.chain if self.chain is not None else chain_for(primary)
        call_incidents: List[SolverIncident] = []
        for position, entry in enumerate(chain):
            label = _entry_label(entry)
            result = self._attempt(problem, _entry_callable(entry))
            if isinstance(result, _Failure):
                self._record(
                    call_incidents,
                    SolverIncident(
                        slot=slot,
                        backend=label,
                        reason=result.reason,
                        detail=result.detail,
                    ),
                )
                continue
            degraded = position > 0
            if degraded:
                reg = stats_registry()
                reg.counter_add("resilient.fallbacks")
                reg.counter_add(f"resilient.fallback.{label}")
                if label == "zero":
                    reg.counter_add("resilient.zero_actions")
            h, loads = result
            return SolveOutcome(
                h=h,
                loads=loads,
                backend=label,
                degraded=degraded,
                incidents=tuple(call_incidents),
            )
        # Unreachable with a well-formed chain: the zero action is
        # always finite and feasible.  Fail loudly if a custom chain
        # lacks a working terminal entry.
        raise SolverFailure(
            _entry_label(chain[-1]),
            f"every backend in chain {tuple(_entry_label(e) for e in chain)} failed",
            problem,
        )

    # ------------------------------------------------------------------
    def _attempt(self, problem, backend):
        """One backend attempt: run, clip, check.

        The one check of a backend result: shape, finite, one
        ``clip_feasible`` and one ``is_feasible`` at its default
        tolerance of 1e-6.  Returns the clipped ``h`` and its read-only
        site loads on success, a :class:`_Failure` otherwise.
        """
        try:
            raw = backend(problem)
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
        if not np.isfinite(raw).all():
            return _Failure("non-finite", "backend returned NaN/Inf entries")
        h = problem.clip_feasible(raw)
        if (h != raw).any():
            stats_registry().counter_add("resilient.clip.changed")
        loads = problem.loads(h)
        loads.flags.writeable = False
        if not problem.is_feasible(h, loads=loads):
            return _Failure("infeasible", "clipped solution violates constraints")
        if contracts_enabled() and not np.allclose(
            problem.clip_feasible(h), h, rtol=0.0, atol=1e-9
        ):
            raise ContractViolation("clip_feasible is not idempotent here")
        return h, loads

    def _record(self, call_incidents, incident: SolverIncident) -> None:
        call_incidents.append(incident)
        self.incidents.append(incident)
        if len(self.incidents) > MAX_INCIDENTS:
            del self.incidents[:-MAX_INCIDENTS]
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
