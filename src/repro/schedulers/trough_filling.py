"""Adaptive price-quantile baseline ("trough filling").

Inspired by the geographic trough-filling line of work the paper cites
([7], Xu & Liu): serve a site's backlog whenever its current price sits
in the cheapest *q*-quantile of a trailing window, and force a drain
whenever a site's backlog exceeds a cap (otherwise a long expensive
stretch would starve jobs indefinitely — exactly the failure mode
GreFar's queue-length feedback handles automatically).

Unlike GreFar this baseline needs tuning (quantile, window, backlog
cap) and offers no optimality or delay guarantee; it exists for the
comparison benchmarks.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro._validation import require_in_range, require_integer, require_positive
from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.queues import QueueNetwork
from repro.model.state import ClusterState
from repro.schedulers.base import Scheduler, routable_sites, route_greedily, serve_eagerly

__all__ = ["TroughFillingScheduler"]


class TroughFillingScheduler(Scheduler):
    """Serve when the local price is in its trailing cheap quantile.

    Parameters
    ----------
    cluster:
        Static system description.
    quantile:
        Serve while the current price is at or below this quantile of
        the trailing window (e.g. 0.3 = the cheapest 30% of recent
        hours).
    window:
        Trailing window length in slots (default one week of hours).
    max_backlog_work:
        Per-site backlog (work units) beyond which the site serves
        regardless of price.
    """

    def __init__(
        self,
        cluster: Cluster,
        quantile: float = 0.3,
        window: int = 168,
        max_backlog_work: float = 500.0,
    ) -> None:
        super().__init__(cluster)
        require_in_range(quantile, 0.0, 1.0, "quantile")
        require_integer(window, "window", minimum=2)
        require_positive(max_backlog_work, "max_backlog_work")
        self.quantile = float(quantile)
        self.window = int(window)
        self.max_backlog_work = float(max_backlog_work)
        self._history = [deque(maxlen=window) for _ in range(cluster.num_datacenters)]
        self.name = f"TroughFilling(q={quantile:g})"

    def reset(self) -> None:
        super().reset()
        for hist in self._history:
            hist.clear()

    def decide(self, t: int, state: ClusterState, queues: QueueNetwork) -> Action:
        state = self.prepare_state(state)
        cluster = self.cluster
        dc = queues.dc
        route = route_greedily(
            cluster, queues.front, dc, routable_sites(cluster, state.capacities(cluster))
        )

        serve_site = np.zeros(cluster.num_datacenters, dtype=bool)
        backlog_work = dc @ cluster.demands
        for i in range(cluster.num_datacenters):
            hist = self._history[i]
            price = float(state.prices[i])
            if len(hist) >= 2:
                threshold = float(np.quantile(np.fromiter(hist, float), self.quantile))
            else:
                threshold = price  # no history yet: behave like Always
            if price <= threshold or backlog_work[i] > self.max_backlog_work:
                serve_site[i] = True
            hist.append(price)

        return serve_eagerly(t, cluster, state, dc, route, open_sites=serve_site)
