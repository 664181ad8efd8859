"""Scheduler interface shared by GreFar and every baseline.

A scheduler observes the slot state ``x(t)`` and the queue network
``Theta(t)`` at the *beginning* of each slot and returns an
:class:`~repro.model.action.Action`; the simulator then applies the
queue dynamics (12)-(13).  Schedulers must be *online*: decisions may
depend only on what they are handed this slot (the lookahead baseline
receives its future window explicitly at construction, which is the
point of the comparison in Theorem 1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.constraints import parallelism_service_bounds
from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.queues import QueueNetwork, whole_jobs
from repro.model.state import ClusterState
from repro.optimize.slot_problem import SlotServiceProblem
from repro.resilient.supervisor import solve_service

__all__ = ["Scheduler", "routable_sites", "route_greedily", "serve_eagerly", "service_upper_bounds"]


def service_upper_bounds(
    cluster: Cluster,
    state: ClusterState,
    dc_queue_lengths: np.ndarray,
    physical: bool = True,
) -> np.ndarray:
    """Effective per-slot upper bounds on the service decision ``h``.

    Intersects the eq. (5) bounds ``h_ij^max``, the queue contents (when
    running physically), and the Section III-B parallelism bounds.
    Shared by GreFar and every eager baseline.
    """
    bounds = cluster.max_service_matrix()
    if physical:
        bounds = np.minimum(bounds, dc_queue_lengths)
    if any(jt.max_parallelism is not None for jt in cluster.job_types):
        bounds = np.minimum(
            bounds, parallelism_service_bounds(cluster, state, dc_queue_lengths)
        )
    return bounds


def serve_eagerly(
    t: int, cluster: Cluster, state: ClusterState, dc: np.ndarray, route: np.ndarray,
    open_sites: np.ndarray | None = None,
) -> Action:
    """The eager baselines' action: route *route*, and serve all the supervised
    greedy backend will at ``V = 0`` at the sites *open_sites* marks (default all)."""
    h_upper = service_upper_bounds(cluster, state, dc)
    if open_sites is not None:
        h_upper = h_upper * open_sites[:, np.newaxis]
    problem = SlotServiceProblem(cluster, state, dc, h_upper, v=0.0)
    h = solve_service(problem, primary="greedy", slot=t)
    return Action(route, h, problem.busy_for(h))


class Scheduler(ABC):
    """Base class for slot-by-slot schedulers."""

    #: Human-readable name used in experiment output.
    name: str = "scheduler"

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._last_good_state: tuple | None = None

    @abstractmethod
    def decide(self, t: int, state: ClusterState, queues: QueueNetwork) -> Action:
        """Return the action ``z(t)`` for slot *t*."""

    def reset(self) -> None:
        """Clear any internal state before a fresh simulation run.

        Subclasses that override this must call ``super().reset()`` so
        the degraded-mode memory of :meth:`prepare_state` is cleared
        too.
        """
        self._last_good_state = None

    # ------------------------------------------------------------------
    # Degraded mode: last-known-good substitution for missing signals
    # ------------------------------------------------------------------
    def prepare_state(self, state: ClusterState) -> ClusterState:
        """Fill missing (NaN) signals with last-known-good values.

        Under fault injection the observed state may carry missing
        entries — a stale price feed, a partitioned site (see
        :mod:`repro.faults`).  Shipped schedulers call this at the top
        of :meth:`decide`; with a fully observed state it stores the
        snapshot and returns it *unchanged* (same object), so the
        fault-free path is untouched.

        Substitution is entry-wise: each missing entry takes the most
        recent cleanly observed value for that entry.  Before any clean
        observation exists the fallback is fail-safe — zero availability
        (schedule nothing there) and the largest currently visible
        price (assume the dark site is expensive).
        """
        availability = state.availability
        prices = state.prices
        miss_a = np.isnan(availability)
        miss_p = np.isnan(prices)
        if not (miss_a.any() or miss_p.any()):
            self._last_good_state = (availability, prices)
            return state
        last = getattr(self, "_last_good_state", None)
        if last is None:
            finite = prices[~miss_p]
            fallback_price = float(finite.max()) if finite.size else 1.0
            base_a = np.zeros_like(availability)
            base_p = np.full_like(prices, fallback_price)
        else:
            base_a, base_p = last
        filled_a = np.where(miss_a, base_a, availability)
        filled_p = np.where(miss_p, base_p, prices)
        # Remember the filled view so a longer blackout keeps the same
        # substitution rather than decaying to the fail-safe defaults.
        self._last_good_state = (filled_a, filled_p)
        return ClusterState(filled_a, filled_p)


def routable_sites(cluster: Cluster, capacities: np.ndarray) -> np.ndarray:
    """``(N, J)``: the eligible (site, type) pairs at sites with observed capacity.

    The degraded-mode rule: no work is routed to a dark or partitioned
    site, where it could only sit (or be evicted) until the fault clears.
    """
    return cluster.eligibility_matrix() & (capacities > 0.0)[:, np.newaxis]


def route_greedily(
    cluster: Cluster, front: np.ndarray, keys: np.ndarray, open_sites: np.ndarray
) -> np.ndarray:
    """Route whole jobs out of the central queue, lowest key first.

    Jobs of type ``j`` go to the sites *open_sites* ``(N, J)`` marks (it
    must exclude ineligible pairs) in increasing order of ``keys[i, j]``,
    ties by site index, each site taking at most ``r_ij^max``, until
    ``whole_jobs(Q_j)`` are placed.  The bounds and budget are whole
    numbers, so the cumulative sum is exact.

    GreFar passes its backpressure coefficient and the sites where it is
    negative; the eager baselines pass the site backlogs ``q_ij`` and
    :func:`routable_sites`.  Returns the read-only ``(N, J)`` routing.
    """
    order = np.where(open_sites, keys, np.inf).argsort(axis=0, kind="stable")
    columns = np.arange(keys.shape[1])
    bounds = np.where(open_sites, cluster.max_route_matrix(), 0.0)[order, columns]
    filled = bounds.cumsum(axis=0)
    budget = whole_jobs(front)
    route = np.empty(keys.shape)
    route[order, columns] = np.minimum(filled, budget) - np.minimum(filled - bounds, budget)
    route.flags.writeable = False
    return route
