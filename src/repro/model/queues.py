"""Queue substrate: the exact dynamics of eqs. (12)-(13) plus FIFO delay ledgers.

Two layers are maintained in lock-step:

* **Scalar queue lengths** ``Q_j(t)`` (central scheduler) and
  ``q_ij(t)`` (per data center), updated exactly by

  .. math::

     Q_j(t+1) = \\max[Q_j(t) - \\sum_i r_{ij}(t),\\, 0] + a_j(t)

     q_{ij}(t+1) = \\max[q_{ij}(t) - h_{ij}(t),\\, 0] + r_{ij}(t)

* **FIFO ledgers** of :class:`~repro.model.job.JobBatch` entries so the
  simulator can attribute a queueing delay to every (fractional) job:
  jobs drain oldest-first, which is both the natural service order and
  the one that minimizes measured average delay.

Within a slot ``t`` the order of operations mirrors the equations:
service ``h(t)`` drains the *current* data center queues, routing
``r(t)`` then drains the central queue and enqueues at the data
centers, and finally new arrivals ``a(t)`` join the central queue.  A
batch routed at slot ``t`` therefore cannot be served before ``t + 1``,
so the "Always" baseline measures an average data center delay of one
slot, matching Section VI-B3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Tuple

import numpy as np

from repro._contracts import checked_step
from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.obs.instruments import timed
from repro.obs.registry import stats_registry

__all__ = ["DelayStats", "QueueNetwork"]

_EPS = 1e-12


@dataclass
class DelayStats:
    """Accumulated per-job queueing delay statistics.

    Delays are measured in slots.  "Front" delay is the time a job
    spends in the central queue (arrival slot to routing slot); "DC"
    delay is the time from routing to service.  Fractional jobs
    contribute fractionally.
    """

    num_datacenters: int
    num_job_types: int
    front_completed: np.ndarray = field(init=False)
    front_delay_sum: np.ndarray = field(init=False)
    dc_completed: np.ndarray = field(init=False)
    dc_delay_sum: np.ndarray = field(init=False)
    dc_delay_histogram: list = field(init=False)
    front_delay_histogram: dict = field(init=False)

    def __post_init__(self) -> None:
        j = self.num_job_types
        n = self.num_datacenters
        self.front_completed = np.zeros(j)
        self.front_delay_sum = np.zeros(j)
        self.dc_completed = np.zeros((n, j))
        self.dc_delay_sum = np.zeros((n, j))
        # Per-DC histograms of (integer-slot) delays -> job counts, for
        # percentile reporting without storing every sample.
        self.dc_delay_histogram = [{} for _ in range(n)]
        self.front_delay_histogram = {}

    # ------------------------------------------------------------------
    def record_routed(self, job_type: int, count: float, delay: float) -> None:
        """Record *count* type-``job_type`` jobs leaving the central queue."""
        self.front_completed[job_type] += count
        self.front_delay_sum[job_type] += count * delay
        bucket = int(round(delay))
        self.front_delay_histogram[bucket] = (
            self.front_delay_histogram.get(bucket, 0.0) + count
        )

    def record_served(self, dc: int, job_type: int, count: float, delay: float) -> None:
        """Record *count* jobs of one type served at data center *dc*."""
        self.dc_completed[dc, job_type] += count
        self.dc_delay_sum[dc, job_type] += count * delay
        bucket = int(round(delay))
        hist = self.dc_delay_histogram[dc]
        hist[bucket] = hist.get(bucket, 0.0) + count

    # ------------------------------------------------------------------
    def mean_front_delay(self, job_type: int | None = None) -> float:
        """Average central-queue delay, overall or for one job type."""
        if job_type is None:
            total = self.front_completed.sum()
            return float(self.front_delay_sum.sum() / total) if total > _EPS else 0.0
        total = self.front_completed[job_type]
        return float(self.front_delay_sum[job_type] / total) if total > _EPS else 0.0

    def mean_dc_delay(self, dc: int | None = None) -> float:
        """Average data-center delay, overall or for one site (Fig. 2b/2c)."""
        if dc is None:
            total = self.dc_completed.sum()
            return float(self.dc_delay_sum.sum() / total) if total > _EPS else 0.0
        total = self.dc_completed[dc].sum()
        return float(self.dc_delay_sum[dc].sum() / total) if total > _EPS else 0.0

    def mean_total_delay(self) -> float:
        """Average end-to-end (front + DC) delay over all served jobs."""
        served = self.dc_completed.sum()
        if served <= _EPS:
            return 0.0
        return float((self.front_delay_sum.sum() + self.dc_delay_sum.sum()) / served)

    @staticmethod
    def _histogram_percentile(histogram: dict, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {q}")
        total = sum(histogram.values())
        if total <= _EPS:
            return 0.0
        threshold = q * total
        cumulative = 0.0
        for delay in sorted(histogram):
            cumulative += histogram[delay]
            if cumulative >= threshold - _EPS:
                return float(delay)
        return float(max(histogram))

    def dc_delay_percentile(self, q: float, dc: int | None = None) -> float:
        """Delay percentile (slots) for one site or all sites combined.

        Tail delay is the SLO-relevant metric a mean hides: the paper's
        O(V) queue bound implies a hard cap on it, which the Theorem 1
        benchmark checks.
        """
        if dc is not None:
            return self._histogram_percentile(self.dc_delay_histogram[dc], q)
        merged: dict = {}
        for hist in self.dc_delay_histogram:
            for delay, count in hist.items():
                merged[delay] = merged.get(delay, 0.0) + count
        return self._histogram_percentile(merged, q)

    def front_delay_percentile(self, q: float) -> float:
        """Central-queue delay percentile (slots)."""
        return self._histogram_percentile(self.front_delay_histogram, q)


class QueueNetwork:
    """The central and per-data-center job queues with exact paper dynamics.

    Parameters
    ----------
    cluster:
        The static system description (dimensions and eligibility).

    Notes
    -----
    The *literal* dynamics of eqs. (12)-(13) allow a scheduler to route
    more jobs than the central queue holds or serve more than a data
    center queue holds; the ``max[., 0]`` truncation absorbs the excess
    and the data center queue would gain "phantom" jobs.  The scalar
    queues here follow the equations exactly, while the FIFO ledgers
    only ever contain real jobs, so ledger totals equal the scalar
    queue values whenever the scheduler's decisions are *physical*
    (never overdraw).  All schedulers shipped with this library are
    physical; :meth:`clip_to_content` is provided to make any action
    physical.
    """

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        n, j = cluster.num_datacenters, cluster.num_job_types
        self._front = np.zeros(j)
        self._dc = np.zeros((n, j))
        self._front_ledger: List[Deque[List[float]]] = [deque() for _ in range(j)]
        self._dc_ledger: Dict[Tuple[int, int], Deque[List[float]]] = {
            (i, jj): deque() for i in range(n) for jj in range(j)
        }
        self._stats = DelayStats(n, j)

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------
    @property
    def cluster(self) -> Cluster:
        """The static system description this network was built for."""
        return self._cluster

    @property
    def front(self) -> np.ndarray:
        """Central queue lengths ``Q_j(t)`` (length ``J``, copy)."""
        return self._front.copy()

    @property
    def dc(self) -> np.ndarray:
        """Data center queue lengths ``q_ij(t)`` (``(N, J)``, copy)."""
        return self._dc.copy()

    @property
    def stats(self) -> DelayStats:
        """Accumulated delay statistics (live object)."""
        return self._stats

    def front_ledger_totals(self) -> np.ndarray:
        """Jobs held by the central FIFO ledgers (length ``J``).

        Equals :attr:`front` for physical schedulers; non-physical
        actions can inflate the scalar queues with phantom jobs the
        ledgers never contain.  Used by :mod:`repro._contracts` to check
        the two layers stay in lock-step.
        """
        totals = np.zeros_like(self._front)
        for jj, ledger in enumerate(self._front_ledger):
            totals[jj] = sum(batch[1] for batch in ledger)
        return totals

    def dc_ledger_totals(self) -> np.ndarray:
        """Jobs held by the per-site FIFO ledgers (``(N, J)``)."""
        totals = np.zeros_like(self._dc)
        for (i, jj), ledger in self._dc_ledger.items():
            totals[i, jj] = sum(batch[1] for batch in ledger)
        return totals

    def total_backlog(self) -> float:
        """Sum of all queue lengths (jobs)."""
        return float(self._front.sum() + self._dc.sum())

    def backlog_work(self) -> float:
        """Total backlog expressed in units of work."""
        d = self._cluster.demands
        return float(np.dot(self._front, d) + np.dot(self._dc.sum(axis=0), d))

    def lyapunov(self) -> float:
        """Quadratic Lyapunov function ``L(Theta(t))`` of eq. (26)."""
        return float(0.5 * np.sum(self._front**2) + 0.5 * np.sum(self._dc**2))

    def max_queue_length(self) -> float:
        """The largest individual queue length (for Theorem 1a checks)."""
        front_max = float(self._front.max()) if self._front.size else 0.0
        dc_max = float(self._dc.max()) if self._dc.size else 0.0
        return max(front_max, dc_max)

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def clip_to_content(self, action: Action) -> Action:
        """Return a *physical* version of *action*: never overdraw a queue.

        Routing of each type is reduced (largest senders last) so the
        total routed does not exceed ``Q_j(t)``, keeping integrality.
        Service is clipped to the data center queue contents.  A call
        that reduces either adds one to the stats counter
        ``sim.clip.route`` or ``sim.clip.serve``; a call that reduces
        nothing returns *action* itself.
        """
        serve_over = (action.serve > self._dc).any()
        excess = action.route.sum(axis=0) - np.floor(self._front + 1e-9)
        route_over = (excess > 0).any()
        if not (serve_over or route_over):
            return action
        h = action.serve
        if serve_over:
            stats_registry().counter_add("sim.clip.serve")
            h = np.minimum(h, self._dc)
        if route_over:
            stats_registry().counter_add("sim.clip.route")
        r = np.array(action.route)
        for j in np.flatnonzero(excess > 0):
            excess_j = excess[j]
            order = np.argsort(-r[:, j])
            for i in order:
                take = min(r[i, j], excess_j)
                r[i, j] -= take
                excess_j -= take
                if excess_j <= 0:
                    break
        return Action(r, h, action.busy)

    def evict_dc(self, dc: int) -> np.ndarray:
        """Evict every job queued at site *dc*; return per-type counts.

        Used by the fault injector at outage onset: the site's scalar
        queues are zeroed and its FIFO ledgers cleared without recording
        any service (the jobs were *not* completed).  The caller owns
        re-admission — evicted work re-enters the central queues through
        the ordinary arrival path of eq. (12), typically with a backoff
        (see :class:`~repro.faults.injector.RequeuePolicy`), so the
        queue dynamics stay exactly the paper's.

        Returns the ledger-based per-type counts (equal to the scalar
        queue contents for physical schedulers).
        """
        if not 0 <= dc < self._cluster.num_datacenters:
            raise IndexError(
                f"dc must be in [0, {self._cluster.num_datacenters}), got {dc}"
            )
        j_count = self._cluster.num_job_types
        counts = np.zeros(j_count)
        for jj in range(j_count):
            ledger = self._dc_ledger[(dc, jj)]
            counts[jj] = sum(batch[1] for batch in ledger)
            ledger.clear()
        self._dc[dc] = 0.0
        return counts

    @checked_step
    @timed("queues.step")
    def step(self, action: Action, arrivals: np.ndarray, t: int) -> dict:
        """Advance one slot: apply service, routing, then arrivals.

        With ``REPRO_CONTRACTS=1`` the post-state is verified against
        the queue invariants (non-negativity, ledger/scalar lock-step)
        after every call; see :mod:`repro._contracts`.

        Parameters
        ----------
        action:
            The slot decision ``z(t)``.
        arrivals:
            Length-``J`` vector ``a_j(t)`` of new jobs this slot.
        t:
            The slot index (used for delay bookkeeping).

        Returns
        -------
        dict
            ``{"served": (N, J) array of jobs actually completed,
            "routed": (N, J) array of jobs actually moved}`` — these
            equal ``h`` / ``r`` exactly for physical actions.
        """
        arrivals = np.asarray(arrivals, dtype=np.float64)
        if arrivals.shape != self._front.shape:
            raise ValueError(
                f"arrivals must have shape {self._front.shape}, got {arrivals.shape}"
            )
        if np.any(arrivals < 0):
            raise ValueError("arrivals must be non-negative")

        served = self._apply_service(action.serve, t)
        routed = self._apply_routing(action.route, t)
        self._apply_arrivals(arrivals, t)
        return {"served": served, "routed": routed}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    # The ledgers and delay histograms hold Python floats (``tolist``,
    # ``float``), never numpy scalars: same values, far cheaper pickles.
    def _apply_service(self, h: np.ndarray, t: int) -> np.ndarray:
        served = np.zeros_like(self._dc)
        for i, row in enumerate(h.tolist()):
            for jj, want in enumerate(row):
                if want <= _EPS:
                    continue
                got = self._drain_ledger(self._dc_ledger[(i, jj)], want, t, i, jj)
                served[i, jj] = got
        # Scalar update follows eq. (13)'s max[. , 0] exactly.
        self._dc = np.maximum(self._dc - h, 0.0)
        return served

    def _apply_routing(self, r: np.ndarray, t: int) -> np.ndarray:
        routed = np.zeros_like(r)
        for jj in range(r.shape[1]):
            total_want = r[:, jj].sum()
            if total_want <= _EPS:
                continue
            available = self._front[jj]
            drained = self._drain_front_ledger(
                jj, float(min(total_want, available)), t
            )
            # Allocate the really-drained jobs to sites proportionally to
            # the requested split (exactly r for physical actions).
            for i, share in enumerate((r[:, jj] / total_want).tolist()):
                count = drained * share
                if count <= _EPS:
                    continue
                self._dc_ledger[(i, jj)].append([float(t), count])
                routed[i, jj] = count
        # Scalar updates follow eqs. (12)-(13) exactly (including any
        # phantom jobs a non-physical action would create).
        self._front = np.maximum(self._front - r.sum(axis=0), 0.0)
        self._dc = self._dc + r
        return routed

    def _apply_arrivals(self, arrivals: np.ndarray, t: int) -> None:
        for jj, count in enumerate(arrivals):
            if count > _EPS:
                self._front_ledger[jj].append([float(t), float(count)])
        self._front = self._front + arrivals

    def _drain_front_ledger(self, job_type: int, want: float, t: int) -> float:
        ledger = self._front_ledger[job_type]
        drained = 0.0
        while want > _EPS and ledger:
            batch = ledger[0]
            take = min(batch[1], want)
            batch[1] -= take
            want -= take
            drained += take
            self._stats.record_routed(job_type, take, t - batch[0])
            if batch[1] <= _EPS:
                ledger.popleft()
        return drained

    def _drain_ledger(
        self,
        ledger: Deque[List[float]],
        want: float,
        t: int,
        dc: int,
        job_type: int,
    ) -> float:
        drained = 0.0
        while want > _EPS and ledger:
            batch = ledger[0]
            take = min(batch[1], want)
            batch[1] -= take
            want -= take
            drained += take
            self._stats.record_served(dc, job_type, take, t - batch[0])
            if batch[1] <= _EPS:
                ledger.popleft()
        return drained
