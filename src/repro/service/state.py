"""Service state store: configuration, live model state, checkpoints.

:class:`ServiceConfig` is the frozen identity of one service instance —
which environment trace it schedules against, which scheduler it runs,
how intake is bounded.  Its digest keys the data directory, the
write-ahead log and the ckpt-v2 checkpoint, so a restarted gateway can
only ever resume *its own* state.

:class:`ServiceState` owns everything the ticker mutates: a
:class:`~repro.simulation.simulator.Simulator` over the environment
trace (queue network, metrics collector, scheduler) and the
accepted-arrival log.  The per-slot records the query endpoints serve
are built from those two on demand.  It is the bridge to the offline
world in both directions:

* the environment (availability, prices) comes from the same
  :class:`~repro.runner.spec.ScenarioSpec` factories the runner uses —
  only the *arrivals* are live;
* :meth:`replay_scenario` packages the accepted arrivals back into an
  offline :class:`~repro.simulation.trace.Scenario`, which the
  equivalence tests push through ``Simulator.run`` to prove the
  service's per-slot metrics are bit-identical to a batch replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro._validation import require_integer, require_positive
from repro.core.objective import CostModel
from repro.resilient.checkpoint import Checkpointer, ColumnHistory
from repro.runner.spec import ScenarioSpec, _freeze_kwargs, spec_digest
from repro.schedulers.registry import build_scheduler
from repro.simulation.simulator import Simulator
from repro.simulation.trace import Scenario

__all__ = ["ServiceConfig", "ServiceState"]

#: Default root for service data directories (write-ahead logs and
#: checkpoints); sibling of the runner cache.
DEFAULT_SERVICE_DIR = Path(".repro_cache") / "service"


@dataclass(frozen=True)
class ServiceConfig:
    """Frozen identity + tuning of one gateway instance.

    The *identity* fields (scenario kind/seed/capacity, scheduler and
    its kwargs, cost beta) determine scheduling behavior and are hashed
    into :attr:`digest`; a checkpoint written under one digest is never
    resumed into a service configured differently.  The remaining
    fields (intake bound, rate limits, slot pacing, paths) tune the
    gateway around the model without changing what it computes.
    """

    scenario_kind: str = "small"
    scenario_seed: int = 0
    #: How many slots of environment trace (availability, prices) are
    #: pre-generated; the service refuses to tick past this horizon.
    capacity_slots: int = 500
    scheduler: str = "grefar"
    scheduler_kwargs: Tuple[Tuple[str, Any], ...] = ()
    cost_beta: float = 0.0
    #: Intake buffer bound, in jobs (see IntakeBuffer).
    intake_capacity: int = 200
    #: Per-account sustained rate (jobs/second) and burst budget.
    rate: float = 100.0
    burst: float = 200.0
    #: Wall-clock seconds per slot; ``None`` = manual ticks only
    #: (tests, CI drills) via ``POST /v1/admin/tick``.
    slot_seconds: Optional[float] = None
    #: Checkpoint after every N completed slots.
    checkpoint_every: int = 1
    #: Data root; the instance directory is ``<data_dir>/<digest[:16]>``.
    data_dir: str = str(DEFAULT_SERVICE_DIR)

    def __post_init__(self) -> None:
        require_integer(self.capacity_slots, "capacity_slots", minimum=1)
        require_integer(self.intake_capacity, "intake_capacity", minimum=1)
        require_integer(self.checkpoint_every, "checkpoint_every", minimum=1)
        require_positive(self.rate, "rate")
        require_positive(self.burst, "burst")
        if self.slot_seconds is not None:
            require_positive(self.slot_seconds, "slot_seconds")
        object.__setattr__(
            self, "scheduler_kwargs", _freeze_kwargs(self.scheduler_kwargs, "scheduler_kwargs")
        )

    # ------------------------------------------------------------------
    def identity(self) -> dict:
        """The JSON-encodable scheduling identity (digest material)."""
        return {
            "service": "svc-v1",
            "scenario_kind": self.scenario_kind,
            "scenario_seed": self.scenario_seed,
            "capacity_slots": self.capacity_slots,
            "scheduler": self.scheduler,
            "scheduler_kwargs": [list(pair) for pair in self.scheduler_kwargs],
            "cost_beta": self.cost_beta,
        }

    @property
    def digest(self) -> str:
        return spec_digest(self.identity())

    @property
    def instance_dir(self) -> Path:
        return Path(self.data_dir) / self.digest[:16]

    @property
    def wal_path(self) -> Path:
        return self.instance_dir / "submissions.jsonl"

    @property
    def checkpoint_key(self) -> str:
        return f"service-{self.digest[:16]}"

    def checkpointer(self) -> Checkpointer:
        return Checkpointer(
            key=self.checkpoint_key,
            every=self.checkpoint_every,
            directory=self.instance_dir / "checkpoints",
        )

    def environment_spec(self) -> ScenarioSpec:
        """The spec whose availability/prices the live path consumes."""
        return ScenarioSpec(
            kind=self.scenario_kind,
            horizon=self.capacity_slots,
            seed=self.scenario_seed,
        )

    def as_dict(self) -> dict:
        payload = self.identity()
        payload.update(
            {
                "intake_capacity": self.intake_capacity,
                "rate": self.rate,
                "burst": self.burst,
                "slot_seconds": self.slot_seconds,
                "checkpoint_every": self.checkpoint_every,
                "data_dir": str(self.data_dir),
                "digest": self.digest,
            }
        )
        return payload


class ServiceState:
    """Everything the slot ticker mutates, plus its checkpoint plumbing.

    :attr:`sim` is a default offline ``Simulator`` (no admission policy,
    no fault injector) over the environment trace; the ticker advances
    it with ``sim.step`` on live arrivals, so a replay of the accepted
    arrivals reproduces the service bit for bit.  The additions —
    arrival log and cumulative account work — exist to answer queries
    and write checkpoints.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        #: The environment trace; arrivals in it are IGNORED — the live
        #: gateway supplies arrivals, the spec supplies the rest.
        self.environment = config.environment_spec().materialize()
        self.cluster = self.environment.cluster
        self.sim = Simulator(
            self.environment,
            build_scheduler(
                config.scheduler, self.cluster, **dict(config.scheduler_kwargs)
            ),
            cost_model=CostModel(beta=config.cost_beta),
        )
        self.sim.reset()
        #: Accepted arrival vectors, one per completed slot (length J).
        self.arrivals_log: List[np.ndarray] = []
        #: Cumulative eq. (3) work per account, for /v1/fairness.
        self.account_work = np.zeros(self.cluster.num_accounts)

    # ------------------------------------------------------------------
    @property
    def max_arrivals(self) -> np.ndarray:
        """Per-type per-slot arrival bounds ``A_j^max`` (length J)."""
        return np.asarray(
            [jt.max_arrivals for jt in self.cluster.job_types], dtype=np.float64
        )

    def arrivals_matrix(self) -> np.ndarray:
        """Accepted arrivals as a ``(completed_slots, J)`` matrix."""
        if not self.arrivals_log:
            return np.zeros((0, self.cluster.num_job_types))
        return np.stack(self.arrivals_log)

    def replay_scenario(self) -> Scenario:
        """The completed slots as an offline scenario.

        Running this through ``Simulator`` with a freshly built
        scheduler of the same registry name/kwargs must reproduce
        :meth:`slot_records` bit-identically — the service's decisive
        correctness property.
        """
        horizon = len(self.arrivals_log)
        if horizon == 0:
            raise ValueError("no completed slots to replay yet")
        return Scenario(
            cluster=self.cluster,
            arrivals=self.arrivals_matrix(),
            availability=self.environment.availability[:horizon],
            prices=self.environment.prices[:horizon],
        )

    def slot_record(self, t: int) -> dict:
        """The query-facing (JSON-encodable) record of completed slot *t*."""
        metrics = self.sim.metrics
        return {
            "slot": t,
            "arrivals": [float(a) for a in self.arrivals_log[t]],
            "energy_cost": metrics.energy_cost[t],
            "fairness": metrics.fairness[t],
            "combined_cost": metrics.combined_cost[t],
            "served_jobs": metrics.served_jobs[t],
            "work_per_dc": [float(w) for w in metrics.work_per_dc[t]],
            "queue_total": float(metrics.queue_total[t]),
            "queue_max": float(metrics.queue_max[t]),
        }

    def slot_records(self, start: int = 0, count: Optional[int] = None) -> List[dict]:
        """Records of the completed slots ``[start:][:count]`` (list slicing)."""
        slots = range(len(self.arrivals_log))[start:]
        if count is not None:
            slots = slots[:count]
        return [self.slot_record(t) for t in slots]

    def fairness_view(self) -> dict:
        """Cumulative account work vs the configured fair shares."""
        total = float(self.account_work.sum())
        shares = np.asarray(self.cluster.fair_shares, dtype=np.float64)
        entitled = shares * total
        return {
            "completed_slots": self.sim.next_slot,
            "fair_shares": [float(s) for s in shares],
            "cumulative_work": [float(w) for w in self.account_work],
            "entitled_work": [float(w) for w in entitled],
            "deviation": [
                float(w - e) for w, e in zip(self.account_work, entitled)
            ],
        }

    # ------------------------------------------------------------------
    # Checkpoint integration (ckpt-v2)
    # ------------------------------------------------------------------
    def checkpoint_payload(self, extra: Dict[str, Any]) -> Dict[str, Any]:
        """The resumable snapshot (service additions + sim state).

        The per-slot history — metrics rows, each with that slot's
        accepted arrivals appended — goes in as ``history``, which the
        checkpointer journals once.  *extra* carries the ingestion-side
        state (pending submissions, last acknowledged sequence,
        rate-limiter levels, counters) the app layer owns.
        """
        sim = self.sim
        return {
            **sim.snapshot(),
            "config_digest": self.config.digest,
            "history": ColumnHistory([*sim.metrics.series(), self.arrivals_log]),
            "account_work": self.account_work.copy(),
            **extra,
        }

    def restore(self, payload: Dict[str, Any]) -> None:
        """Adopt a checkpoint payload written by :meth:`checkpoint_payload`."""
        if payload.get("config_digest") != self.config.digest:
            raise ValueError(
                "checkpoint belongs to a differently-configured service"
            )
        self.sim.restore(payload)
        self.arrivals_log = [row[-1] for row in payload["history"]]
        self.account_work = np.asarray(payload["account_work"], dtype=np.float64)
