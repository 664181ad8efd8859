"""The scheduler registry: a declarative name -> factory table.

A scheduler described by ``(name, kwargs)`` alone is what makes
:class:`~repro.runner.spec.RunSpec` picklable — worker processes
rebuild the exact scheduler from the spec instead of receiving a live
object — and what the CLI uses in place of a hand-rolled ``if`` chain.

Factories are stored as dotted paths and imported on first build, so a
run loads only the scheduler it uses.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Tuple

from repro.schedulers.base import Scheduler

__all__ = ["SchedulerEntry", "build_scheduler", "scheduler_entry", "scheduler_names"]


@dataclass(frozen=True)
class SchedulerEntry:
    """One registry row: where the class lives and what it accepts.

    ``params`` is the accepted constructor keyword surface beyond the
    mandatory ``cluster`` argument; :func:`build_scheduler` rejects
    anything outside it so a typo'd spec fails loudly instead of being
    silently swallowed by ``**kwargs``.
    """

    name: str
    module: str
    qualname: str
    params: Tuple[str, ...] = ()
    description: str = ""

    def load(self) -> type:
        """Import and return the scheduler class."""
        return getattr(importlib.import_module(self.module), self.qualname)


_REGISTRY: dict = {
    entry.name: entry
    for entry in (
        SchedulerEntry(
            name="grefar",
            module="repro.core.grefar",
            qualname="GreFarScheduler",
            params=("v", "beta", "fairness", "physical", "pricing"),
            description="the paper's online drift-plus-penalty scheduler",
        ),
        SchedulerEntry(
            name="always",
            module="repro.schedulers.always",
            qualname="AlwaysScheduler",
            description="schedule immediately whenever resources allow",
        ),
        SchedulerEntry(
            name="threshold",
            module="repro.schedulers.price_threshold",
            qualname="PriceThresholdScheduler",
            params=("threshold",),
            description="serve only while the local price is below a threshold",
        ),
        SchedulerEntry(
            name="random",
            module="repro.schedulers.random_dc",
            qualname="RandomRoutingScheduler",
            params=("seed",),
            description="route uniformly at random among eligible sites",
        ),
        SchedulerEntry(
            name="roundrobin",
            module="repro.schedulers.round_robin",
            qualname="RoundRobinScheduler",
            description="cycle deterministically through eligible sites",
        ),
        SchedulerEntry(
            name="trough",
            module="repro.schedulers.trough_filling",
            qualname="TroughFillingScheduler",
            params=("quantile", "window", "max_backlog_work"),
            description="serve during the cheapest price troughs",
        ),
        SchedulerEntry(
            name="mpc",
            module="repro.schedulers.receding_horizon",
            qualname="RecedingHorizonScheduler",
            params=("window", "replan_every", "forecast", "period"),
            description="receding-horizon model-predictive baseline",
        ),
    )
}


def scheduler_names() -> list:
    """Registered scheduler names, sorted."""
    return sorted(_REGISTRY)


def scheduler_entry(name: str) -> SchedulerEntry:
    """The registry row for *name* (raises ``ValueError`` if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {scheduler_names()}"
        ) from None


def build_scheduler(name: str, cluster, **kwargs) -> Scheduler:
    """Construct the scheduler *name* on *cluster* from keyword config.

    This is the single factory the CLI, the experiments and the
    :mod:`repro.runner` worker processes all share, so a scheduler
    described by ``(name, kwargs)`` means the same thing everywhere.
    """
    entry = scheduler_entry(name)
    unknown = sorted(set(kwargs) - set(entry.params))
    if unknown:
        raise ValueError(
            f"scheduler {name!r} does not accept {unknown}; "
            f"accepted parameters: {sorted(entry.params)}"
        )
    return entry.load()(cluster, **kwargs)
