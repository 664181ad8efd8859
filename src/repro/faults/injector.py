"""Fault injection between a :class:`Scenario` and the simulator loop.

The injector maintains the split the resilience work hinges on:

* **Ground truth** — the state the queue dynamics and cost accounting
  are applied to.  Capacity faults (``outage`` / ``capacity_loss``)
  act here: servers really are gone.
* **Observed state** — what the scheduler is shown.  Signal faults
  (``stale_price`` / ``partition``) act here: the truth keeps evolving,
  but the scheduler sees missing (NaN) entries and must fall back to
  its last-known-good estimates
  (:meth:`~repro.schedulers.base.Scheduler.prepare_state`).

On top of the state split the injector owns two action-level effects:

* **Command filtering** — a partitioned or dark site accepts no
  routing, service or power commands; jobs aimed at it stay in the
  central queue (their ``r_ij`` is dropped before the dynamics apply).
* **Eviction + backoff re-admission** — at outage onset every job
  queued at the failed site is evicted
  (:meth:`~repro.model.queues.QueueNetwork.evict_dc`) and re-admitted
  into the central queues through the ordinary eq. (12) arrival path,
  in integer tranches spread with exponential backoff
  (:class:`RequeuePolicy`) so a recovering system is not hit by a
  thundering herd.

With an empty :class:`~repro.faults.events.FaultSchedule` every hook is
a strict pass-through returning its inputs *unchanged* (same objects),
so a run with the injector installed is bit-identical to one without.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import require_at_least, require_integer
from repro.faults.events import FaultSchedule
from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.queues import QueueNetwork
from repro.model.state import ClusterState

__all__ = ["FaultInjector", "RequeuePolicy"]


@dataclass(frozen=True)
class RequeuePolicy:
    """Exponential-backoff re-admission of evicted work.

    Work evicted at slot ``t`` is split into ``tranches`` integer parts
    (largest-remainder rounding, earliest tranches largest) released at
    ``t + base_delay * factor**k`` for ``k = 0, 1, ...`` — with the
    defaults: 1, 2, 4 and 8 slots after the eviction.  Released work
    joins the central queue through the ordinary arrival path of
    eq. (12); its delay clock restarts at re-admission.
    """

    base_delay: int = 1
    factor: float = 2.0
    tranches: int = 4

    def __post_init__(self) -> None:
        require_integer(self.base_delay, "base_delay", minimum=1)
        require_at_least(self.factor, 1.0, "factor")
        require_integer(self.tranches, "tranches", minimum=1)

    def offsets(self) -> tuple:
        """Release offsets (slots after eviction) for each tranche."""
        return tuple(
            int(round(self.base_delay * self.factor**k)) for k in range(self.tranches)
        )

    def split(self, counts: np.ndarray) -> list:
        """Split per-type *counts* into per-tranche integer parts.

        Returns a list of ``tranches`` arrays summing exactly to
        ``floor``-preserving integer totals (fractional inputs keep
        their fractional remainder in the first tranche so nothing is
        lost).
        """
        counts = np.asarray(counts, dtype=np.float64)
        parts = [np.zeros_like(counts) for _ in range(self.tranches)]
        for j, total in enumerate(counts):
            if total <= 0:
                continue
            whole = np.floor(total)
            base, extra = divmod(int(whole), self.tranches)
            for k in range(self.tranches):
                parts[k][j] = base + (1 if k < extra else 0)
            parts[0][j] += total - whole  # fractional remainder, if any
        return parts


class FaultInjector:
    """Wrap a simulation run with the fault semantics of a schedule.

    Parameters
    ----------
    cluster:
        The static system description (dimensions).
    schedule:
        The faults to inject.  An empty schedule makes every hook a
        strict no-op.
    requeue:
        Re-admission policy for work evicted by outages.

    Notes
    -----
    The injector is stateful (pending re-admissions, eviction log);
    :meth:`reset` restores the initial state, and the simulator calls
    it at the start of every run.
    """

    def __init__(
        self,
        cluster: Cluster,
        schedule: FaultSchedule,
        requeue: RequeuePolicy | None = None,
    ) -> None:
        if not isinstance(schedule, FaultSchedule):
            schedule = FaultSchedule(tuple(schedule))
        schedule.validate_for(cluster)
        self.cluster = cluster
        self.schedule = schedule
        self.requeue = requeue if requeue is not None else RequeuePolicy()
        self._noop = schedule.is_empty
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear pending re-admissions and the eviction log."""
        self._pending: dict = {}  # release slot -> per-type counts
        self.evicted_jobs = 0.0
        self.requeued_jobs = 0.0
        self.eviction_log: list = []  # (event, per-type counts)

    # Pickles hold the per-type counts as lists of floats, as the queue
    # network's do, so a checkpoint reconstructs no numpy object.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["eviction_log"] = [(event, counts.tolist()) for event, counts in self.eviction_log]
        state["_pending"] = {slot: counts.tolist() for slot, counts in self._pending.items()}
        return state

    def __setstate__(self, state: dict) -> None:
        # Pickles written before the list form hold the arrays themselves.
        self.__dict__.update(state)
        self.eviction_log = [
            (event, np.array(counts, dtype=np.float64)) for event, counts in state["eviction_log"]
        ]
        self._pending = {
            slot: np.array(counts, dtype=np.float64) for slot, counts in state["_pending"].items()
        }

    @property
    def pending_jobs(self) -> float:
        """Evicted work still waiting for its backoff release."""
        return float(sum(float(np.sum(v)) for v in self._pending.values()))

    # ------------------------------------------------------------------
    # Slot hooks, in the order the simulator calls them
    # ------------------------------------------------------------------
    def begin_slot(self, t: int, queues: QueueNetwork) -> np.ndarray | None:
        """Onset bookkeeping; returns re-admitted arrivals due this slot.

        At each outage onset the failed site's queues are evicted and
        scheduled for backoff re-admission.  Returns ``None`` when no
        re-admission is due (the common case), keeping the no-fault
        path allocation-free.
        """
        if self._noop:
            return None
        for event in self.schedule.starting(t):
            if event.kind != "outage":
                continue
            counts = queues.evict_dc(event.dc)
            total = float(np.sum(counts))
            self.eviction_log.append((event, counts))
            if total <= 0:
                continue
            self.evicted_jobs += total
            for offset, part in zip(
                self.requeue.offsets(), self.requeue.split(counts)
            ):
                if np.sum(part) <= 0:
                    continue
                slot = t + offset
                if slot in self._pending:
                    self._pending[slot] = self._pending[slot] + part
                else:
                    self._pending[slot] = part
        due = self._pending.pop(t, None)
        if due is not None:
            self.requeued_jobs += float(np.sum(due))
        return due

    def true_state(self, t: int, state: ClusterState) -> ClusterState:
        """Apply capacity faults to the ground truth for slot *t*."""
        if self._noop:
            return state
        factors = None
        for event in self.schedule.active(t):
            factor = event.capacity_factor
            if factor >= 1.0:
                continue
            if factors is None:
                factors = np.ones(self.cluster.num_datacenters)
            factors[event.dc] = min(factors[event.dc], factor)
        if factors is None:
            return state
        availability = state.availability * factors[:, np.newaxis]
        return ClusterState(availability, state.prices)

    def observed_state(self, t: int, true_state: ClusterState) -> ClusterState:
        """Mask the signals the scheduler must not see for slot *t*.

        Stale-price faults blank the site's price; partitions blank the
        site's price *and* availability.  Missing entries are NaN — the
        scheduler's degraded-mode substitution fills them in.
        """
        if self._noop:
            return true_state
        masked_prices = None
        masked_avail = None
        for event in self.schedule.active(t):
            if event.kind == "stale_price":
                if masked_prices is None:
                    masked_prices = np.array(true_state.prices)
                masked_prices[event.dc] = np.nan
            elif event.kind == "partition":
                if masked_prices is None:
                    masked_prices = np.array(true_state.prices)
                if masked_avail is None:
                    masked_avail = np.array(true_state.availability)
                masked_prices[event.dc] = np.nan
                masked_avail[event.dc, :] = np.nan
        if masked_prices is None and masked_avail is None:
            return true_state
        return ClusterState(
            masked_avail if masked_avail is not None else true_state.availability,
            masked_prices if masked_prices is not None else true_state.prices,
            missing_ok=True,
        )

    def filter_action(
        self, t: int, action: Action, true_state: ClusterState
    ) -> Action:
        """Drop commands the faulted system cannot execute.

        Partitioned and dark sites receive no routing, service or power
        commands (their rows are zeroed; dropped routings stay in the
        central queue).  As a safety net for schedulers acting on stale
        signals, ``busy`` is clipped to the true availability and
        ``serve`` scaled down wherever served work would exceed the
        surviving busy capacity (eq. (11) stays satisfied).
        """
        if self._noop:
            return action
        blocked = [
            e.dc
            for e in self.schedule.active(t)
            if e.kind in ("outage", "partition")
        ]
        busy = np.minimum(action.busy, true_state.availability)
        route = action.route
        serve = action.serve
        touched = bool(blocked) or bool(np.any(busy < action.busy))
        if blocked:
            route = np.array(route)
            serve = np.array(serve)
            busy = np.array(busy)
            for dc in blocked:
                route[dc, :] = 0.0
                serve[dc, :] = 0.0
                busy[dc, :] = 0.0
        # Re-establish eq. (11) where clipping shrank the busy capacity.
        work = serve @ self.cluster.demands
        cap = busy @ self.cluster.speeds
        if np.any(work > cap + 1e-9):
            serve = np.array(serve)
            for i in np.flatnonzero(work > cap + 1e-9):
                serve[i] *= 0.0 if work[i] <= 0 else min(1.0, cap[i] / work[i])
            touched = True
        if not touched:
            return action
        return Action(route, serve, busy)
