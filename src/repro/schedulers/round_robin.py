"""Round-robin routing baseline.

Cycles each job type's placements over its eligible data centers in a
fixed rotation, serving eagerly like "Always".  A deterministic cousin
of :class:`~repro.schedulers.random_dc.RandomRoutingScheduler` for the
placement ablation.
"""

from __future__ import annotations

import numpy as np

from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.queues import QueueNetwork, whole_jobs
from repro.model.state import ClusterState
from repro.schedulers.base import Scheduler, serve_eagerly

__all__ = ["RoundRobinScheduler"]


class RoundRobinScheduler(Scheduler):
    """Rotate placements over eligible sites; serve eagerly."""

    def __init__(self, cluster: Cluster) -> None:
        super().__init__(cluster)
        self._cursor = np.zeros(cluster.num_job_types, dtype=np.int64)
        self.name = "RoundRobin"

    def reset(self) -> None:
        super().reset()
        self._cursor[:] = 0

    def decide(self, t: int, state: ClusterState, queues: QueueNetwork) -> Action:
        state = self.prepare_state(state)
        front = queues.front
        dc = queues.dc
        cluster = self.cluster
        n, j_count = dc.shape
        route = np.zeros((n, j_count))
        max_route = cluster.max_route_matrix()
        for j in range(j_count):
            budget = int(whole_jobs(front[j]))
            if budget <= 0:
                continue
            eligible = sorted(cluster.job_types[j].eligible_dcs)
            while budget > 0:
                i = eligible[self._cursor[j] % len(eligible)]
                self._cursor[j] += 1
                take = min(budget, int(max_route[i, j] - route[i, j]))
                if take <= 0:
                    # All eligible sites at their bound: stop trying.
                    if all(route[s, j] >= max_route[s, j] for s in eligible):
                        break
                    continue
                route[i, j] += take
                budget -= take

        return serve_eagerly(t, cluster, state, dc, route)
