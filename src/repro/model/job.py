"""Job and account model: Section III-B of the paper.

Jobs are characterized by the tuple ``{d, D, rho}`` — service demand
(work), the set of eligible data centers (where the job's data lives),
and the originating account.  Jobs with (approximately) the same tuple
are grouped into one of ``J`` *job types*; arrivals are counted per
type per slot as ``a_j(t)`` and are only assumed bounded (eq. (1)).

Jobs are fully parallelizable and preemptible: a job can be suspended
and resumed, so the per-slot "number of type-j jobs processed"
``h_ij(t)`` may be fractional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable

from repro._validation import (
    require_in_range,
    require_integer,
    require_non_negative,
    require_positive,
)

__all__ = ["Account", "JobType"]


@dataclass(frozen=True)
class Account:
    """An organization/user group sharing the data centers (one of ``M``).

    Parameters
    ----------
    name:
        Human-readable account name.
    fair_share:
        The weighting parameter ``gamma_m`` of eq. (3): the desired
        fraction of total computing resource allocated to this account.
        Must lie in ``[0, 1]``; the shares of all accounts in a cluster
        conventionally sum to one (checked by
        :class:`repro.model.cluster.Cluster`).
    """

    name: str
    fair_share: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("Account.name must be a non-empty string")
        require_in_range(self.fair_share, 0.0, 1.0, "fair_share")


@dataclass(frozen=True)
class JobType:
    """One of the ``J`` job types: ``y_j = {d_j, D_j, rho_j}`` plus bounds.

    Parameters
    ----------
    name:
        Human-readable type name.
    demand:
        Service demand ``d_j > 0`` in units of work (processor cycles,
        normalized as in Section VI-A).
    eligible_dcs:
        The set ``D_j`` of data center indices this type may be routed
        to (where its data is stored).  Non-empty.
    account:
        Index ``rho_j`` of the originating account.
    max_arrivals:
        ``a_j^max`` of eq. (1): per-slot arrival bound.
    max_route:
        ``r_ij^max`` of eq. (4): per-slot, per-DC routing bound.
    max_service:
        ``h_ij^max`` of eq. (5): per-slot, per-DC service bound (in
        jobs, possibly fractional).
    max_parallelism:
        Optional cap on the number of servers that may process one job
        simultaneously (Section III-B: "it may be possible that only a
        certain number of servers can process a job in parallel").
        ``None`` (default) means fully parallelizable, as in the paper's
        base model.
    memory:
        Memory held per job while it is being processed (footnote 3:
        the service demand extends "from a scalar to a vector in which
        each element corresponds to one type of demand").  Zero
        (default) reproduces the paper's scalar-demand base model.
    """

    name: str
    demand: float
    eligible_dcs: FrozenSet[int]
    account: int
    max_arrivals: int = field(default=1_000)
    max_route: int = field(default=1_000)
    max_service: float = field(default=1_000.0)
    max_parallelism: float = field(default=None)
    memory: float = field(default=0.0)

    def __init__(
        self,
        name: str,
        demand: float,
        eligible_dcs: Iterable[int],
        account: int,
        max_arrivals: int = 1_000,
        max_route: int = 1_000,
        max_service: float = 1_000.0,
        max_parallelism: float | None = None,
        memory: float = 0.0,
    ) -> None:
        if not name:
            raise ValueError("JobType.name must be a non-empty string")
        require_positive(demand, "demand")
        dcs = frozenset(int(i) for i in eligible_dcs)
        if not dcs:
            raise ValueError("eligible_dcs must be non-empty")
        if any(i < 0 for i in dcs):
            raise ValueError("eligible_dcs indices must be non-negative")
        require_integer(account, "account", minimum=0)
        require_integer(max_arrivals, "max_arrivals", minimum=1)
        require_integer(max_route, "max_route", minimum=1)
        require_positive(max_service, "max_service")
        if max_parallelism is not None:
            require_positive(max_parallelism, "max_parallelism")
        require_non_negative(memory, "memory")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "demand", float(demand))
        object.__setattr__(self, "eligible_dcs", dcs)
        object.__setattr__(self, "account", int(account))
        object.__setattr__(self, "max_arrivals", int(max_arrivals))
        object.__setattr__(self, "max_route", int(max_route))
        object.__setattr__(self, "max_service", float(max_service))
        object.__setattr__(
            self,
            "max_parallelism",
            float(max_parallelism) if max_parallelism is not None else None,
        )
        object.__setattr__(self, "memory", float(memory))

    def work_of(self, count: float) -> float:
        """Total work represented by *count* jobs of this type."""
        require_non_negative(count, "count")
        return count * self.demand
