"""Static price-threshold baseline (an ablation, not from the paper).

Serves a site's backlog at full speed whenever the local electricity
price is at or below a fixed threshold, and idles otherwise.  This is
the "obvious" way to chase cheap electricity; unlike GreFar it has no
queue feedback, so its delay is unbounded whenever prices stay high for
long stretches — which is precisely the failure mode the Lyapunov
queue-length term prevents.
"""

from __future__ import annotations

from repro._validation import require_non_negative
from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.queues import QueueNetwork
from repro.model.state import ClusterState
from repro.schedulers.base import Scheduler, routable_sites, route_greedily, serve_eagerly

__all__ = ["PriceThresholdScheduler"]


class PriceThresholdScheduler(Scheduler):
    """Serve only when the local price is at or below *threshold*."""

    def __init__(self, cluster: Cluster, threshold: float) -> None:
        super().__init__(cluster)
        require_non_negative(threshold, "threshold")
        self.threshold = float(threshold)
        self.name = f"PriceThreshold({threshold:g})"

    def decide(self, t: int, state: ClusterState, queues: QueueNetwork) -> Action:
        state = self.prepare_state(state)
        dc = queues.dc
        open_sites = routable_sites(self.cluster, state.capacities(self.cluster))
        route = route_greedily(self.cluster, queues.front, dc, open_sites)
        cheap = state.prices <= self.threshold
        return serve_eagerly(t, self.cluster, state, dc, route, open_sites=cheap)
