"""Fault injection and resilience measurement (``repro.faults``).

The subsystem splits every faulted run into a *ground truth* stream
(what the dynamics and cost accounting use) and an *observed* stream
(what the scheduler sees), so outages, partial capacity crashes, stale
price feeds and network partitions are all representable:

>>> from repro import FaultInjector, FaultSchedule, Simulator
>>> schedule = FaultSchedule.single_outage(dc=1, start=150, duration=60)
>>> injector = FaultInjector(scenario.cluster, schedule)
>>> result = Simulator(scenario, scheduler, injector=injector).run()

See ``docs/RESILIENCE.md`` for the fault model and degraded-mode
semantics.
"""

from repro.faults.events import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    RandomFaultProcess,
)
from repro.faults.injector import FaultInjector, RequeuePolicy
from repro.faults.resilience import FaultImpact, ResilienceObserver, ResilienceReport

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultImpact",
    "FaultInjector",
    "FaultSchedule",
    "RandomFaultProcess",
    "RequeuePolicy",
    "ResilienceObserver",
    "ResilienceReport",
]
