"""System model: servers, data centers, jobs, cluster, state, queues.

This subpackage implements Section III of the paper — everything static
(:class:`Cluster` and its parts), the time-varying state snapshot
(:class:`ClusterState`), the scheduler decision (:class:`Action`) and
the queueing substrate with the exact dynamics of eqs. (12)-(13)
(:class:`QueueNetwork`).
"""

from repro import _export_table

__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "Action": ".action",
        "Cluster": ".cluster",
        "DataCenter": ".datacenter",
        "Account": ".job",
        "JobType": ".job",
        "LinearPricing": ".pricing",
        "PricingModel": ".pricing",
        "TieredPricing": ".pricing",
        "DelayStats": ".queues",
        "QueueNetwork": ".queues",
        "ServerClass": ".server",
        "ClusterState": ".state",
    },
)
