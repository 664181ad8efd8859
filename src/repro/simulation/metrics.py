"""Per-slot metric collection and the paper's running averages.

Footnote 8: "the average values at time t are obtained by summing up
all the values up to time t and then dividing the sum by t" — every
curve in Figs. 2-4 is such a cumulative running average.
:class:`MetricsCollector` records raw per-slot values during a run and
exposes both the raw series and the running averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.model.queues import QueueNetwork

__all__ = ["MetricsCollector", "SimulationSummary"]

_EPS = 1e-12


@dataclass(frozen=True)
class SimulationSummary:
    """End-of-run aggregate results for one scheduler on one scenario."""

    scheduler: str
    horizon: int
    avg_energy_cost: float
    avg_fairness: float
    avg_combined_cost: float
    avg_dc_delay: tuple
    avg_front_delay: float
    avg_total_delay: float
    avg_work_per_dc: tuple
    max_queue_length: float
    total_served_jobs: float
    total_arrived_jobs: float
    total_dropped_jobs: float = 0.0
    #: Jobs evicted from failed data centers (fault injection only).
    total_evicted_jobs: float = 0.0
    #: Evicted jobs re-admitted to the central queues so far.
    total_requeued_jobs: float = 0.0

    def as_dict(self) -> dict:
        """Plain-dict view (for tabular experiment output)."""
        return {
            "scheduler": self.scheduler,
            "horizon": self.horizon,
            "avg_energy_cost": self.avg_energy_cost,
            "avg_fairness": self.avg_fairness,
            "avg_combined_cost": self.avg_combined_cost,
            "avg_dc_delay": list(self.avg_dc_delay),
            "avg_front_delay": self.avg_front_delay,
            "avg_total_delay": self.avg_total_delay,
            "avg_work_per_dc": list(self.avg_work_per_dc),
            "max_queue_length": self.max_queue_length,
            "total_served_jobs": self.total_served_jobs,
            "total_arrived_jobs": self.total_arrived_jobs,
            "total_dropped_jobs": self.total_dropped_jobs,
            "total_evicted_jobs": self.total_evicted_jobs,
            "total_requeued_jobs": self.total_requeued_jobs,
        }


@dataclass
class MetricsCollector:
    """Accumulates per-slot metrics during a simulation run."""

    num_datacenters: int
    energy_cost: list = field(default_factory=list)
    fairness: list = field(default_factory=list)
    combined_cost: list = field(default_factory=list)
    work_per_dc: list = field(default_factory=list)
    queue_total: list = field(default_factory=list)
    queue_max: list = field(default_factory=list)
    served_jobs: list = field(default_factory=list)
    # Cumulative delay-ledger snapshots (per slot) for running averages.
    dc_delay_sum: list = field(default_factory=list)
    dc_completed: list = field(default_factory=list)
    front_delay_sum: list = field(default_factory=list)
    front_completed: list = field(default_factory=list)

    # ------------------------------------------------------------------
    def record(
        self,
        energy: float,
        fairness: float,
        combined: float,
        work_per_dc: np.ndarray,
        served_jobs: float,
        queues: QueueNetwork,
    ) -> None:
        """Record one slot's outcomes (call once per slot, in order).

        Per-site values are kept as lists of floats, so a checkpoint
        journals a slot's row as plain values.
        """
        self.energy_cost.append(float(energy))
        self.fairness.append(float(fairness))
        self.combined_cost.append(float(combined))
        self.work_per_dc.append(np.asarray(work_per_dc, dtype=np.float64).tolist())
        self.queue_total.append(queues.total_backlog())
        self.queue_max.append(queues.max_queue_length())
        self.served_jobs.append(float(served_jobs))
        stats = queues.stats
        self.dc_delay_sum.append(stats.dc_delay_sum.sum(axis=1).tolist())
        self.dc_completed.append(stats.dc_completed.sum(axis=1).tolist())
        self.front_delay_sum.append(float(stats.front_delay_sum.sum()))
        self.front_completed.append(float(stats.front_completed.sum()))

    # ------------------------------------------------------------------
    # Checkpoint rows (see repro.resilient.checkpoint)
    # ------------------------------------------------------------------
    def series(self) -> list:
        """The per-slot series lists, in checkpoint-row order."""
        return [getattr(self, name) for name in _SERIES]

    @classmethod
    def from_rows(cls, num_datacenters: int, rows) -> "MetricsCollector":
        """Rebuild a collector from checkpoint rows, one per slot.

        Each row starts with one value per :meth:`series` list; extra
        trailing values (the service appends its arrivals) are ignored.
        """
        collector = cls(num_datacenters)
        for name, column in zip(_SERIES, zip(*rows)):
            setattr(collector, name, list(column))
        return collector

    # ------------------------------------------------------------------
    # Series accessors
    # ------------------------------------------------------------------
    @property
    def horizon(self) -> int:
        """Number of recorded slots."""
        return len(self.energy_cost)

    @staticmethod
    def _running_average(values: np.ndarray) -> np.ndarray:
        steps = np.arange(1, len(values) + 1, dtype=np.float64)
        return np.cumsum(values, axis=0) / steps.reshape(-1, *([1] * (values.ndim - 1)))

    def avg_energy_series(self) -> np.ndarray:
        """Running-average energy cost (Fig. 2a / 3a / 4a curves)."""
        return self._running_average(np.asarray(self.energy_cost))

    def avg_fairness_series(self) -> np.ndarray:
        """Running-average fairness score (Fig. 3b / 4b curves)."""
        return self._running_average(np.asarray(self.fairness))

    def avg_combined_series(self) -> np.ndarray:
        """Running-average energy-fairness cost ``g``."""
        return self._running_average(np.asarray(self.combined_cost))

    def avg_dc_delay_series(self, dc: int) -> np.ndarray:
        """Running-average delay in one data center (Fig. 2b/2c, 3c, 4c).

        At slot ``t`` this is (total delay of jobs served in DC *dc* up
        to ``t``) / (jobs served up to ``t``) — exactly the footnote-8
        average applied to per-job delays.
        """
        sums = np.asarray(self.dc_delay_sum)[:, dc]
        counts = np.asarray(self.dc_completed)[:, dc]
        return np.where(counts > _EPS, sums / np.maximum(counts, _EPS), 0.0)

    def avg_front_delay_series(self) -> np.ndarray:
        """Running-average central-queue delay."""
        sums = np.asarray(self.front_delay_sum)
        counts = np.asarray(self.front_completed)
        return np.where(counts > _EPS, sums / np.maximum(counts, _EPS), 0.0)

    def work_per_dc_series(self) -> np.ndarray:
        """Raw per-slot work processed per site, ``(T, N)`` (Fig. 5)."""
        return np.asarray(self.work_per_dc)

    def queue_total_series(self) -> np.ndarray:
        """Raw total backlog per slot."""
        return np.asarray(self.queue_total)

    # ------------------------------------------------------------------
    def summary(
        self,
        scheduler: str,
        queues: QueueNetwork,
        arrived: float,
        dropped: float = 0.0,
        evicted: float = 0.0,
        requeued: float = 0.0,
    ) -> SimulationSummary:
        """Aggregate everything into a :class:`SimulationSummary`."""
        stats = queues.stats
        work = self.work_per_dc_series()
        return SimulationSummary(
            scheduler=scheduler,
            horizon=self.horizon,
            avg_energy_cost=float(np.mean(self.energy_cost)) if self.energy_cost else 0.0,
            avg_fairness=float(np.mean(self.fairness)) if self.fairness else 0.0,
            avg_combined_cost=(
                float(np.mean(self.combined_cost)) if self.combined_cost else 0.0
            ),
            avg_dc_delay=tuple(
                stats.mean_dc_delay(i) for i in range(self.num_datacenters)
            ),
            avg_front_delay=stats.mean_front_delay(),
            avg_total_delay=stats.mean_total_delay(),
            avg_work_per_dc=tuple(work.mean(axis=0)) if work.size else tuple(),
            max_queue_length=float(np.max(self.queue_max)) if self.queue_max else 0.0,
            total_served_jobs=float(np.sum(self.served_jobs)),
            total_arrived_jobs=float(arrived),
            total_dropped_jobs=float(dropped),
            total_evicted_jobs=float(evicted),
            total_requeued_jobs=float(requeued),
        )


#: The per-slot series of a :class:`MetricsCollector`.
_SERIES = tuple(f.name for f in fields(MetricsCollector) if f.name != "num_datacenters")
