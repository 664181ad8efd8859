"""The time-slotted simulator (Section VI-A's "time-based simulator").

Each slot the simulator shows the scheduler the current state and queue
vector, applies the returned action through the exact queue dynamics of
eqs. (12)-(13), and records cost/fairness/delay metrics.  The loop is
deliberately simple — all of the algorithmic content lives in the
schedulers — but it is strict: with ``validate=True`` every action is
checked against every paper constraint before being applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._contracts import contracts_enabled, verify_action_capacity
from repro.core.objective import CostModel
from repro.model.action import Action
from repro.model.queues import QueueNetwork
from repro.obs.events import SlotTraceEvent
from repro.obs.registry import metrics_registry
from repro.resilient.checkpoint import (
    CheckpointError,
    Checkpointer,
    ColumnHistory,
    SimulationKilled,
)
from repro.schedulers.base import Scheduler
from repro.simulation.metrics import MetricsCollector, SimulationSummary
from repro.simulation.trace import Scenario

__all__ = ["SimulationResult", "Simulator", "run_comparison"]


@dataclass(frozen=True)
class SimulationResult:
    """Everything a finished run produced."""

    summary: SimulationSummary
    metrics: MetricsCollector
    queues: QueueNetwork


class Simulator:
    """Drive one scheduler through one scenario.

    Parameters
    ----------
    scenario:
        The input trace (arrivals, availability, prices).
    scheduler:
        Any :class:`~repro.schedulers.base.Scheduler`.
    cost_model:
        Evaluator for ``g(t)``; defaults to pure energy (``beta = 0``).
        Note this is the *measurement* beta — experiments typically
        measure energy and fairness separately regardless of the
        scheduler's own beta.
    validate:
        If True, check every applied action against the paper
        constraints and raise
        :class:`~repro._contracts.ContractViolation` on the first
        infeasible one (slower; used by the chaos drill and tests).
        ``REPRO_CONTRACTS=1`` turns the same check on for every run.
    enforce_physical:
        If True (default), clip actions so queues are never overdrawn
        before applying the dynamics.  Shipped schedulers already emit
        physical actions; the clip is a safety net for custom ones.
    admission:
        Optional :class:`~repro.core.admission.AdmissionPolicy` applied
        to each slot's arrivals; rejected jobs are counted in the
        summary (Section V's overload remedy).
    observers:
        Optional callables ``(t, state, action, queues)`` invoked after
        each slot's dynamics (see :mod:`repro.simulation.observers`).
    injector:
        Optional :class:`~repro.faults.injector.FaultInjector`.  Each
        slot the injector may perturb the ground-truth state (capacity
        faults), mask what the scheduler observes (signal faults),
        veto commands to unreachable sites, and re-admit work evicted
        from failed sites through the eq. (12) arrival path.  With an
        empty fault schedule every hook passes its inputs through
        unchanged, so the run is bit-identical to one without the
        injector.
    """

    def __init__(
        self,
        scenario: Scenario,
        scheduler: Scheduler,
        cost_model: CostModel | None = None,
        validate: bool = False,
        enforce_physical: bool = True,
        admission=None,
        observers=None,
        injector=None,
    ) -> None:
        self.scenario = scenario
        self.scheduler = scheduler
        self.cost_model = cost_model if cost_model is not None else CostModel(beta=0.0)
        self.validate = bool(validate)
        self.enforce_physical = bool(enforce_physical)
        self.admission = admission
        self.observers = list(observers) if observers is not None else []
        self.injector = injector

    def reset(self) -> None:
        """Start a fresh run at slot 0 (resets the scheduler and hooks too)."""
        cluster = self.scenario.cluster
        self.queues = QueueNetwork(cluster)
        self.metrics = MetricsCollector(num_datacenters=cluster.num_datacenters)
        self.scheduler.reset()
        if self.admission is not None:
            self.admission.reset()
        if self.injector is not None:
            self.injector.reset()
        self.next_slot = 0
        self.dropped = 0.0
        self.admitted_total = 0.0

    def restore(self, snapshot: dict) -> None:
        """Adopt the run state of a :meth:`snapshot`.

        The metrics are rebuilt from the ``history`` rows.  A payload
        without ``admission``/``injector`` keeps the instance's own; one
        without ``dropped`` has dropped nothing.
        """
        self.next_slot = int(snapshot["next_slot"])
        self.queues = snapshot["queues"]
        self.metrics = MetricsCollector.from_rows(
            self.scenario.cluster.num_datacenters, snapshot["history"]
        )
        self.scheduler = snapshot["scheduler"]
        self.admission = snapshot.get("admission", self.admission)
        self.injector = snapshot.get("injector", self.injector)
        self.dropped = float(snapshot.get("dropped", 0.0))
        self.admitted_total = float(snapshot["admitted_total"])

    def snapshot(self) -> dict:
        """Everything :meth:`step` mutates (see resilient.checkpoint).

        The metrics go in as ``history`` rows, which a checkpoint
        journals once instead of pickling them on every save.
        """
        return {
            "next_slot": int(self.next_slot),
            "scheduler_name": self.scheduler.name,
            "queues": self.queues,
            "history": ColumnHistory(self.metrics.series()),
            "scheduler": self.scheduler,
            "admission": self.admission,
            "injector": self.injector,
            "dropped": float(self.dropped),
            "admitted_total": float(self.admitted_total),
        }

    def step(self, arrivals: np.ndarray) -> Action:
        """Run slot :attr:`next_slot` with *arrivals*; return the applied action.

        One GreFar slot: observe the state and queues, decide, apply
        eqs. (12)-(13), then record cost and metrics.  The offline
        :meth:`run` loop and the live service both advance through this
        method.  Call :meth:`reset` or :meth:`restore` first.
        """
        t = self.next_slot
        cluster = self.scenario.cluster
        queues = self.queues
        injector = self.injector
        reg = metrics_registry()
        slot_start = reg.clock() if reg.enabled else 0.0
        state = self.scenario.state_at(t)
        requeued = None
        if injector is not None:
            # Outage-onset evictions happen before the scheduler
            # looks at the queues; capacity faults apply to the
            # ground truth, signal faults only to what is observed.
            requeued = injector.begin_slot(t, queues)
            state = injector.true_state(t, state)
            observed = injector.observed_state(t, state)
        else:
            observed = state
        action = self.scheduler.decide(t, observed, queues)
        if injector is not None:
            action = injector.filter_action(t, action, state)
        if self.enforce_physical:
            action = queues.clip_to_content(action)
        if self.validate or contracts_enabled():
            # Eqs. 4, 5 and 11 feasibility of the applied action.
            verify_action_capacity(cluster, state, action)
        if self.admission is not None:
            admitted = self.admission.admit(t, arrivals, queues, cluster)
            self.dropped += float(np.sum(arrivals - admitted))
            arrivals = admitted
        self.admitted_total += float(np.sum(arrivals))
        if requeued is not None:
            # Re-admitted work joins through the same eq. (12)
            # arrival path but was already counted on first arrival,
            # so it bypasses admission and the arrived total.
            arrivals = arrivals + requeued
        outcome = queues.step(action, arrivals, t)
        for observer in self.observers:
            observer(t, state, action, queues)
        served_jobs = float(outcome["served"].sum())
        cost = self.cost_model.evaluate(cluster, state, action)
        self.metrics.record(
            energy=cost.energy,
            fairness=cost.fairness,
            combined=cost.combined,
            work_per_dc=action.work_served(cluster),
            served_jobs=served_jobs,
            queues=queues,
        )
        if reg.enabled:
            # Fold the scheduler's per-decision solve record (if it
            # left one) into this slot's structured trace event.
            solve = reg.consume_solve()
            reg.timer_add("sim.slot", reg.clock() - slot_start)
            reg.emit(
                SlotTraceEvent(
                    slot=t,
                    scheduler=self.scheduler.name,
                    front_backlog=float(np.sum(queues.front)),
                    dc_backlog=float(np.sum(queues.dc)),
                    solver=str(solve.get("solver", "")),
                    iterations=int(solve.get("iterations", 0)),
                    gap=float(solve.get("gap", 0.0)),
                    objective=float(solve.get("objective", 0.0)),
                    solve_seconds=float(solve.get("solve_seconds", 0.0)),
                    energy_cost=float(cost.energy),
                    served_jobs=served_jobs,
                )
            )
        self.next_slot = t + 1
        return action

    def summary(self) -> SimulationSummary:
        """Aggregate the slots run so far."""
        injector = self.injector
        return self.metrics.summary(
            self.scheduler.name,
            self.queues,
            arrived=self.admitted_total,
            dropped=self.dropped,
            evicted=injector.evicted_jobs if injector is not None else 0.0,
            requeued=injector.requeued_jobs if injector is not None else 0.0,
        )

    def run(
        self,
        horizon: int | None = None,
        checkpointer: Checkpointer | None = None,
        resume: bool = False,
    ) -> SimulationResult:
        """Simulate *horizon* slots (default: the whole scenario).

        With a :class:`~repro.resilient.checkpoint.Checkpointer` the
        run state is checkpointed after every ``checkpointer.every``
        completed slots — the new metrics rows appended to the history
        journal, the fixed-size rest snapshotted atomically — and both
        files are removed again when the run finishes.  With
        ``resume=True`` and a usable snapshot on disk, the run restores
        every stateful object — queues, metrics, scheduler (including
        RNG state), admission policy, fault injector — and continues
        from the next slot; because the restored state is exactly the
        uninterrupted run's state at that slot, the final metrics and
        trace are bit-identical to never having been interrupted.
        Observers see only post-resume slots.
        """
        scenario = self.scenario
        if horizon is None:
            horizon = scenario.horizon
        if not 0 < horizon <= scenario.horizon:
            raise ValueError(
                f"horizon must be in (0, {scenario.horizon}], got {horizon}"
            )
        if resume and checkpointer is None:
            raise ValueError("resume=True requires a checkpointer")
        snapshot = checkpointer.load() if (checkpointer and resume) else None
        if snapshot is None:
            self.reset()
        elif int(snapshot["next_slot"]) > horizon:
            raise CheckpointError(
                f"checkpoint is {snapshot['next_slot']} slots in, past the "
                f"requested horizon {horizon}"
            )
        else:
            self.restore(snapshot)

        for t in range(self.next_slot, horizon):
            self.step(scenario.arrivals[t])
            if checkpointer is None:
                continue
            # Crash drill: always leave a resumable snapshot at the
            # exact kill slot before dying.
            kill = checkpointer.should_kill(t + 1)
            if kill or checkpointer.due(t + 1):
                checkpointer.save(self.snapshot())
            if kill:
                raise SimulationKilled(t + 1, checkpointer.path)

        if checkpointer is not None:
            checkpointer.clear()
        return SimulationResult(
            summary=self.summary(), metrics=self.metrics, queues=self.queues
        )


def run_comparison(
    scenario: Scenario,
    schedulers: list,
    cost_model: CostModel | None = None,
    horizon: int | None = None,
    jobs: int = 1,
) -> dict:
    """Run several schedulers on the same scenario; return name -> result.

    Routed through :func:`repro.runner.run_many` with the scheduler
    instances as per-spec overrides, so ``jobs > 1`` fans the
    comparison out across processes (the instances must pickle).  Each
    value is a :class:`repro.runner.RunResult` — use ``.summary``.
    """
    # Imported here: repro.runner sits above the simulation layer.
    from repro.runner.engine import run_many
    from repro.runner.spec import RunSpec

    schedulers = list(schedulers)
    specs = [
        RunSpec(scenario=None, scheduler=None, horizon=horizon)
        for _ in schedulers
    ]
    cost_models = None
    if cost_model is not None:
        cost_models = [cost_model] * len(schedulers)
    results = run_many(
        specs,
        jobs=jobs,
        scenario=scenario,
        schedulers=schedulers,
        cost_models=cost_models,
    )
    return {
        scheduler.name: result for scheduler, result in zip(schedulers, results)
    }
