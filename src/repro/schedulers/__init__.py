"""Schedulers: GreFar's baselines, the offline comparator, and the registry.

:mod:`repro.schedulers.registry` is the **scheduler registry**: a
declarative name -> factory table that lets a scheduler be described by
``(name, kwargs)`` alone (:func:`build_scheduler`).
"""

from repro import _export_table

__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "AlwaysScheduler": ".always",
        "Scheduler": ".base",
        "route_greedily": ".base",
        "service_upper_bounds": ".base",
        "LookaheadPolicy": ".lookahead",
        "LookaheadSolution": ".lookahead",
        "PriceThresholdScheduler": ".price_threshold",
        "RandomRoutingScheduler": ".random_dc",
        "RecedingHorizonScheduler": ".receding_horizon",
        "SchedulerEntry": ".registry",
        "build_scheduler": ".registry",
        "scheduler_entry": ".registry",
        "scheduler_names": ".registry",
        "RoundRobinScheduler": ".round_robin",
        "TroughFillingScheduler": ".trough_filling",
    },
)
