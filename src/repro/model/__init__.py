"""System model: servers, data centers, jobs, cluster, state, queues.

This subpackage implements Section III of the paper — everything static
(:class:`Cluster` and its parts), the time-varying state snapshot
(:class:`ClusterState`), the scheduler decision (:class:`Action`) and
the queueing substrate with the exact dynamics of eqs. (12)-(13)
(:class:`QueueNetwork`).
"""

from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.datacenter import DataCenter
from repro.model.job import Account, JobType
from repro.model.pricing import LinearPricing, PricingModel, TieredPricing
from repro.model.queues import DelayStats, QueueNetwork
from repro.model.server import ServerClass
from repro.model.state import ClusterState

__all__ = [
    "Account",
    "Action",
    "Cluster",
    "ClusterState",
    "DataCenter",
    "DelayStats",
    "JobType",
    "LinearPricing",
    "PricingModel",
    "QueueNetwork",
    "ServerClass",
    "TieredPricing",
]
