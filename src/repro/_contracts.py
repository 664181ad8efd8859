"""Runtime contract layer: executable invariants behind ``REPRO_CONTRACTS=1``.

The static gate (:mod:`repro.tools.staticcheck`) enforces what the AST
can see; this module checks what only a running simulation can.  Three
invariant families are covered:

* **Queue invariants** — after every :meth:`QueueNetwork.step` the
  scalar queues of eqs. (12)-(13) are non-negative and the FIFO delay
  ledgers never hold more jobs than the scalar queues (they are equal
  for physical schedulers; phantom jobs from non-physical actions may
  only inflate the scalars).
* **Capacity feasibility** — every applied action satisfies the paper
  constraints: routing/service bounds (4)-(5), eligibility, server
  availability and the work-fits-in-busy-capacity coupling (11).
* **Theorem 1 queue bound** — an observer asserting
  ``max queue <= V*C3/delta`` throughout a run (Theorem 1a).

Checks are toggled by the ``REPRO_CONTRACTS`` environment variable
(``1``/``true``/``on``/``yes``) and re-read on every call, so a test can
flip them with ``monkeypatch.setenv``.  When disabled each gate costs one
``os.environ.get`` of an unset variable, which raises and catches a
``KeyError`` inside ``os.environ`` (about 1-2 microseconds); a simulated
slot passes three gates (the queue step, the supervisor and the
simulator's action check).  The test suite runs with contracts on (see
``tests/conftest.py``).
"""

from __future__ import annotations

import functools
import os
from typing import Callable

import numpy as np

__all__ = [
    "ContractViolation",
    "contracts_enabled",
    "checked_step",
    "verify_queue_invariants",
    "verify_action_capacity",
    "queue_bound_observer",
]

_TOL = 1e-6


class ContractViolation(AssertionError):
    """A runtime invariant the paper's analysis relies on was broken."""


def contracts_enabled() -> bool:
    """True when ``REPRO_CONTRACTS`` requests runtime invariant checks."""
    return os.environ.get("REPRO_CONTRACTS", "").strip().lower() in {
        "1",
        "true",
        "on",
        "yes",
    }


# ----------------------------------------------------------------------
# Queue invariants (eqs. 12-13 + ledger consistency)
# ----------------------------------------------------------------------
def verify_queue_invariants(queues) -> None:
    """Raise :class:`ContractViolation` if the queue state is corrupt.

    Checks non-negativity of ``Q_j``/``q_ij`` and that the FIFO ledger
    totals never exceed the scalar queues (the ledgers only ever hold
    real jobs; the scalars may additionally hold phantom jobs created
    by non-physical actions, never fewer).
    """
    front = queues.front
    dc = queues.dc
    if front.size and float(front.min()) < -_TOL:
        raise ContractViolation(
            f"central queue went negative: min Q_j = {float(front.min()):.3g}"
        )
    if dc.size and float(dc.min()) < -_TOL:
        raise ContractViolation(
            f"data center queue went negative: min q_ij = {float(dc.min()):.3g}"
        )
    ledger_front = queues.front_ledger_totals()
    ledger_dc = queues.dc_ledger_totals()
    if np.any(ledger_front > front + _TOL * (1.0 + front)):
        j = int(np.argmax(ledger_front - front))
        raise ContractViolation(
            f"front ledger for type {j} holds {ledger_front[j]:.6f} jobs but "
            f"the scalar queue Q_{j} = {front[j]:.6f}; eqs. (12)-(13) state "
            "desynchronized"
        )
    if np.any(ledger_dc > dc + _TOL * (1.0 + dc)):
        flat = int(np.argmax(ledger_dc - dc))
        i, j = np.unravel_index(flat, dc.shape)
        raise ContractViolation(
            f"DC ledger ({i}, {j}) holds {ledger_dc[i, j]:.6f} jobs but the "
            f"scalar queue q_ij = {dc[i, j]:.6f}; eqs. (12)-(13) state "
            "desynchronized"
        )


def checked_step(step: Callable) -> Callable:
    """Decorator for :meth:`QueueNetwork.step` enforcing the invariants."""

    @functools.wraps(step)
    def wrapper(self, action, arrivals, t):
        outcome = step(self, action, arrivals, t)
        if contracts_enabled():
            verify_queue_invariants(self)
        return outcome

    return wrapper


# ----------------------------------------------------------------------
# Capacity feasibility of the slot action (eqs. 4, 5, 11)
# ----------------------------------------------------------------------
def verify_action_capacity(cluster, state, action) -> None:
    """Raise :class:`ContractViolation` if the action breaks a constraint.

    Delegates to :meth:`repro.model.action.Action.validate`, which
    checks eligibility, the (4)-(5) bounds, integrality of ``r_ij``,
    busy-count availability and the eq. (11) work/capacity coupling —
    re-raised with contract framing so failures are attributable.
    """
    try:
        action.validate(cluster, state)
    except ValueError as exc:
        raise ContractViolation(f"infeasible slot action: {exc}") from exc


# ----------------------------------------------------------------------
# Theorem 1a queue bound
# ----------------------------------------------------------------------
def queue_bound_observer(bound: float, force: bool = False) -> Callable:
    """Observer enforcing the Theorem 1a bound ``max queue <= V*C3/delta``.

    Attach the returned callable to :class:`~repro.simulation.simulator.
    Simulator`'s ``observers``.  It checks only while contracts are
    enabled unless *force* is True (callers that attach it explicitly
    usually want it unconditional).
    """
    if not np.isfinite(bound) or bound < 0:
        raise ValueError(f"bound must be a finite non-negative number, got {bound!r}")

    def observer(t, state, action, queues) -> None:
        if not (force or contracts_enabled()):
            return
        worst = queues.max_queue_length()
        if worst > bound + _TOL * (1.0 + bound):
            raise ContractViolation(
                f"Theorem 1a queue bound violated at slot {t}: max queue "
                f"{worst:.6f} > V*C3/delta = {bound:.6f}"
            )

    return observer
