"""Data center model: Section III-A of the paper.

A :class:`DataCenter` is a named site holding some maximum number of
servers of each global server class.  The *time-varying* part of a data
center (how many of those servers are currently available for batch
work, and the local electricity price) lives in
:class:`repro.model.state.DataCenterState` — this module only describes
the static plant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._validation import (
    ValueEquality,
    as_float_array,
    require_non_negative_array,
)
from repro.model.server import ServerClass

__all__ = ["DataCenter"]


@dataclass(frozen=True, eq=False)
class DataCenter(ValueEquality):
    """Static description of one of the ``N`` geographically distributed sites.

    Parameters
    ----------
    name:
        Human-readable site name (e.g. ``"dc-west"``).
    max_servers:
        Length-``K`` vector: the number of servers of each global
        :class:`~repro.model.server.ServerClass` physically present at
        this site.  Availability ``n_ik(t)`` can never exceed this.
    location:
        Optional free-form location tag, used only for display.
    memory_capacity:
        Memory available for concurrently-processing jobs (footnote 3's
        vector-demand extension).  ``inf`` (default) reproduces the
        paper's scalar-demand base model.
    ingress_cost:
        Cost per unit of *work* routed into this site (the bandwidth
        cost dimension of Buchbinder et al. [2], which the paper cites
        as complementary).  Zero (default) reproduces the base model.
    """

    name: str
    max_servers: np.ndarray
    location: str = field(default="")
    memory_capacity: float = field(default=float("inf"))
    ingress_cost: float = field(default=0.0)

    def __init__(
        self,
        name: str,
        max_servers: Sequence[float],
        location: str = "",
        memory_capacity: float = float("inf"),
        ingress_cost: float = 0.0,
    ) -> None:
        if not name:
            raise ValueError("DataCenter.name must be a non-empty string")
        arr = as_float_array(max_servers, "max_servers")
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("max_servers must be a non-empty 1-D sequence")
        require_non_negative_array(arr, "max_servers")
        if not memory_capacity > 0:
            raise ValueError(
                f"memory_capacity must be positive (inf allowed), got {memory_capacity}"
            )
        if ingress_cost < 0 or not np.isfinite(ingress_cost):
            raise ValueError(
                f"ingress_cost must be finite and non-negative, got {ingress_cost}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "max_servers", arr)
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "memory_capacity", float(memory_capacity))
        object.__setattr__(self, "ingress_cost", float(ingress_cost))

    @property
    def num_server_classes(self) -> int:
        """Number of global server classes this site is dimensioned for."""
        return int(self.max_servers.size)

    def max_capacity(self, server_classes: Sequence[ServerClass]) -> float:
        """Peak work capacity per slot if every server is available.

        This is ``sum_k max_servers[k] * s_k`` — an upper bound on
        ``sum_k n_ik(t) * s_k`` for every ``t``.
        """
        if len(server_classes) != self.num_server_classes:
            raise ValueError(
                f"expected {self.num_server_classes} server classes, got {len(server_classes)}"
            )
        speeds = np.array([c.speed for c in server_classes])
        return float(np.dot(self.max_servers, speeds))

    def validate_availability(self, availability: np.ndarray) -> np.ndarray:
        """Check an ``n_i(t)`` vector against the plant limits and return it."""
        if availability.shape != self.max_servers.shape:
            raise ValueError(
                f"availability must have shape {self.max_servers.shape}, got {availability.shape}"
            )
        require_non_negative_array(availability, "availability")
        if np.any(availability > self.max_servers + 1e-9):
            raise ValueError(
                f"availability {availability} exceeds plant capacity {self.max_servers} "
                f"at data center {self.name!r}"
            )
        return availability
