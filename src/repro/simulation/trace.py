"""Scenarios: bundled arrival / availability / price traces.

A :class:`Scenario` is everything a simulation run consumes besides the
scheduler — the paper's "three-day trace" of Fig. 1 and the 2000-hour
evaluation runs are instances.  Scenarios can be generated from the
workload models, saved to ``.npz`` and reloaded bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from repro._validation import ValueEquality, is_sealed
from repro.model.cluster import Cluster
from repro.model.environment import SlotEnvironment
from repro.model.state import ClusterState
from repro.workloads.availability import AvailabilityModel
from repro.workloads.cosmos import CosmosWorkload
from repro.workloads.prices import PriceModel

__all__ = ["Scenario"]


def _frozen(arr: np.ndarray) -> np.ndarray:
    """*arr* sealed: kept if no writable array reaches it, else a read-only copy."""
    if not is_sealed(arr):
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Scenario(ValueEquality):
    """A complete simulation input: who arrives, what is up, what power costs.

    The three arrays are validated once and kept read-only, so one
    scenario can be shared by any number of runs.  Two scenarios are
    equal when their clusters and arrays are.

    The first :meth:`state_at` call builds the queue-independent inputs
    of every slot (:class:`~repro.model.environment.SlotEnvironment`),
    which all runs over the scenario then share.  It is a cache: pickles
    and equality leave it out.

    Attributes
    ----------
    cluster:
        Static system description.
    arrivals:
        ``(T, J)`` arrival counts ``a_j(t)``.
    availability:
        ``(T, N, K)`` availability ``n_ik(t)``.
    prices:
        ``(T, N)`` electricity prices ``phi_i(t)``.
    """

    cluster: Cluster
    arrivals: np.ndarray
    availability: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        arrivals = np.asarray(self.arrivals, dtype=np.float64)
        availability = np.asarray(self.availability, dtype=np.float64)
        prices = np.asarray(self.prices, dtype=np.float64)
        horizon = arrivals.shape[0]
        cluster = self.cluster
        if arrivals.shape != (horizon, cluster.num_job_types):
            raise ValueError(
                f"arrivals must have shape (T, {cluster.num_job_types}), "
                f"got {arrivals.shape}"
            )
        expected = (horizon, cluster.num_datacenters, cluster.num_server_classes)
        if availability.shape != expected:
            raise ValueError(
                f"availability must have shape {expected}, got {availability.shape}"
            )
        if prices.shape != (horizon, cluster.num_datacenters):
            raise ValueError(
                f"prices must have shape (T, {cluster.num_datacenters}), "
                f"got {prices.shape}"
            )
        for name, arr in (
            ("arrivals", arrivals),
            ("availability", availability),
            ("prices", prices),
        ):
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"{name} must be finite and non-negative")
        object.__setattr__(self, "arrivals", _frozen(arrivals))
        object.__setattr__(self, "availability", _frozen(availability))
        object.__setattr__(self, "prices", _frozen(prices))

    def __getstate__(self) -> dict:
        # The slot table is a cache: it stays out of pickles, like Cluster's.
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writable and held by nothing else.
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    @property
    def horizon(self) -> int:
        """Number of slots ``t_end``."""
        return int(self.arrivals.shape[0])

    def state_at(self, t: int) -> ClusterState:
        """The :class:`ClusterState` snapshot ``x(t)``: read-only views, not copies.

        It holds row *t* of the scenario's slot table.
        """
        if not 0 <= t < self.horizon:
            raise IndexError(f"slot {t} outside horizon [0, {self.horizon})")
        table = self.__dict__.get("_environment")
        if table is None:
            table = SlotEnvironment(self.cluster, self.availability, self.prices)
            object.__setattr__(self, "_environment", table)
        return ClusterState._from_trace(self.availability[t], self.prices[t], table, t)

    def arrival_work(self) -> np.ndarray:
        """Total arriving work per slot (length ``T``)."""
        return self.arrivals @ self.cluster.demands

    def truncated(self, horizon: int) -> "Scenario":
        """A copy limited to the first *horizon* slots."""
        if not 0 < horizon <= self.horizon:
            raise ValueError(f"horizon must be in (0, {self.horizon}], got {horizon}")
        return Scenario(
            cluster=self.cluster,
            arrivals=self.arrivals[:horizon],
            availability=self.availability[:horizon],
            prices=self.prices[:horizon],
        )

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        cluster: Cluster,
        horizon: int,
        seed: int = 0,
        workload: CosmosWorkload | None = None,
        price_model: PriceModel | None = None,
        availability_model: AvailabilityModel | None = None,
    ) -> "Scenario":
        """Generate a scenario from the workload substrates.

        Defaults mirror the paper's setup: a Cosmos-like workload with
        the cluster's fairness shares, Table-I-mean prices (when the
        cluster has three sites; otherwise unit means) and slackness-
        preserving availability.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        rng = np.random.default_rng(seed)
        if workload is None:
            workload = CosmosWorkload(cluster)
        if price_model is None:
            if cluster.num_datacenters == 3:
                means = [0.392, 0.433, 0.548]
            else:
                means = [1.0] * cluster.num_datacenters
            price_model = PriceModel(means)
        if availability_model is None:
            availability_model = AvailabilityModel(cluster)
        arrivals = workload.generate(horizon, rng)
        prices = price_model.generate(horizon, rng)
        availability = availability_model.generate(horizon, rng)
        return cls(
            cluster=cluster,
            arrivals=arrivals,
            availability=availability,
            prices=prices,
        )

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist the trace arrays to an ``.npz`` file.

        The cluster itself is not serialized — pair the file with the
        factory that built the cluster (e.g. ``repro.scenarios``).
        """
        np.savez_compressed(
            Path(path),
            arrivals=self.arrivals,
            availability=self.availability,
            prices=self.prices,
        )

    @classmethod
    def load(cls, cluster: Cluster, path: str | Path) -> "Scenario":
        """Reload a trace saved with :meth:`save` for the same cluster."""
        with np.load(Path(path)) as data:
            return cls(
                cluster=cluster,
                arrivals=data["arrivals"],
                availability=data["availability"],
                prices=data["prices"],
            )
