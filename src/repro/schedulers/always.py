"""The "Always" baseline (Section VI-B3).

Always schedules jobs immediately whenever there are resources
available: every queued job is routed to an eligible site at once
(fewest-backlog first) and every site serves as much of its backlog as
its available capacity allows, regardless of the electricity price.
Most jobs are therefore served in the slot after they arrive — the
expected average data center delay of one the paper reports — but the
energy cost ignores price variation entirely.

Implementation note: "serve as much as possible, most-backlogged types
first" is exactly the ``V = 0`` slot problem, so Always reuses the
greedy backend with ``V = 0`` (every queued job has positive marginal
value, energy has zero weight).
"""

from __future__ import annotations


from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.queues import QueueNetwork
from repro.model.state import ClusterState
from repro.schedulers.base import Scheduler, routable_sites, route_greedily, serve_eagerly

__all__ = ["AlwaysScheduler"]


class AlwaysScheduler(Scheduler):
    """Schedule and serve everything as soon as resources allow."""

    def __init__(self, cluster: Cluster) -> None:
        super().__init__(cluster)
        self.name = "Always"

    def decide(self, t: int, state: ClusterState, queues: QueueNetwork) -> Action:
        state = self.prepare_state(state)
        dc = queues.dc
        open_sites = routable_sites(self.cluster, state.capacities(self.cluster))
        route = route_greedily(self.cluster, queues.front, dc, open_sites)
        return serve_eagerly(t, self.cluster, state, dc, route)
