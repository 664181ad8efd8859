"""Random-routing baseline: Always-style service with random placement.

Routes every queued job to a uniformly random eligible data center,
ignoring both backlogs and energy efficiency, then serves greedily like
"Always".  Used in ablation benchmarks to isolate how much of GreFar's
saving comes from *where* jobs run versus *when* they run.
"""

from __future__ import annotations

import numpy as np

from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.queues import QueueNetwork, whole_jobs
from repro.model.state import ClusterState
from repro.schedulers.base import Scheduler, serve_eagerly

__all__ = ["RandomRoutingScheduler"]


class RandomRoutingScheduler(Scheduler):
    """Route uniformly at random over eligible sites; serve eagerly."""

    def __init__(self, cluster: Cluster, seed: int = 0) -> None:
        super().__init__(cluster)
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self.name = "RandomRouting"

    def reset(self) -> None:
        super().reset()
        self._rng = np.random.default_rng(self._seed)

    def decide(self, t: int, state: ClusterState, queues: QueueNetwork) -> Action:
        # Degraded-mode substitution only; placement stays deliberately
        # blind to capacity (that is what this baseline isolates).
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
            picks = self._rng.choice(eligible, size=budget)
            counts = np.bincount(picks, minlength=n).astype(np.float64)
            route[:, j] = np.minimum(counts, max_route[:, j])

        return serve_eagerly(t, cluster, state, dc, route)
