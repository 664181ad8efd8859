"""Time-varying cluster state: ``x(t) = {n_i(t), phi_i(t)}`` for all sites.

The paper makes *no* distributional assumption on the state process —
it may be non-stationary and adversarial — and GreFar only ever observes
the current slot's state.  :class:`ClusterState` is therefore a plain
immutable snapshot; the stochastic generators live in
:mod:`repro.workloads`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._validation import ValueEquality, require_non_negative_array
from repro.model.cluster import Cluster
from repro.model.environment import SlotEnvironment

__all__ = ["ClusterState"]


@dataclass(frozen=True, eq=False)
class ClusterState(ValueEquality):
    """Snapshot of the data center states for one scheduling slot.

    Parameters
    ----------
    availability:
        ``(N, K)`` matrix: ``availability[i, k]`` is ``n_ik(t)``, the
        number of class-``k`` servers available for batch work at site
        ``i`` during the slot.
    prices:
        Length-``N`` vector of electricity prices ``phi_i(t)``.
    missing_ok:
        If True, NaN entries are permitted and mean "signal missing"
        (a stale price feed, a partitioned site).  Such *observed*
        states are produced by :class:`~repro.faults.injector.FaultInjector`;
        schedulers substitute last-known-good values via
        :meth:`~repro.schedulers.base.Scheduler.prepare_state` before
        using them.  Ground-truth states never carry NaN.

    Its queue-independent slot inputs are one row of a
    :class:`~repro.model.environment.SlotEnvironment`
    (:meth:`environment`), a cache left out of pickles and equality.
    A state built without ``missing_ok`` records that it is complete,
    so :attr:`has_missing` need not scan it.
    """

    availability: np.ndarray
    prices: np.ndarray
    #: Known to hold no NaN: set when a validated state is built, left out of pickles.
    _complete = False

    def __init__(
        self,
        availability: np.ndarray,
        prices: Sequence[float],
        missing_ok: bool = False,
    ) -> None:
        avail = np.asarray(availability, dtype=np.float64)
        price = np.asarray(prices, dtype=np.float64)
        if avail.ndim != 2:
            raise ValueError(f"availability must be a 2-D (N, K) array, got ndim={avail.ndim}")
        if price.ndim != 1:
            raise ValueError(f"prices must be a 1-D length-N array, got ndim={price.ndim}")
        if avail.shape[0] != price.shape[0]:
            raise ValueError(
                f"availability has {avail.shape[0]} sites but prices has {price.shape[0]}"
            )
        if missing_ok:
            for name, arr in (("availability", avail), ("prices", price)):
                finite_or_nan = np.isfinite(arr) | np.isnan(arr)
                if not np.all(finite_or_nan):
                    raise ValueError(f"{name} must contain only finite or NaN values")
                if np.any(arr < 0):  # NaN compares False: only real negatives trip
                    raise ValueError(f"{name} must be element-wise non-negative")
        else:
            require_non_negative_array(avail, "availability")
            require_non_negative_array(price, "prices")
        avail = avail.copy()
        price = price.copy()
        avail.setflags(write=False)
        price.setflags(write=False)
        object.__setattr__(self, "availability", avail)
        object.__setattr__(self, "prices", price)
        object.__setattr__(self, "_complete", not missing_ok)

    @classmethod
    def _from_trace(
        cls, availability: np.ndarray, prices: np.ndarray, table: SlotEnvironment | None = None,
        t: int = 0,
    ) -> "ClusterState":
        """Slot *t* of a validated, sealed trace, whose slot table is *table*.

        No validation, no copy: only
        :meth:`~repro.simulation.trace.Scenario.state_at` calls this, with
        read-only views of its sealed arrays, so the cached row can never
        go stale.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "availability", availability)
        object.__setattr__(state, "prices", prices)
        object.__setattr__(state, "_complete", True)
        if table is not None:
            object.__setattr__(state, "_slot", (table, t, table.capacities[t]))
        return state

    def __getstate__(self) -> dict:
        # The slot-table link stays out of pickles.
        return {"availability": self.availability, "prices": self.prices}

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writable and held by nothing else.
        for name, arr in state.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def num_datacenters(self) -> int:
        """``N`` for this snapshot."""
        return int(self.availability.shape[0])

    # ------------------------------------------------------------------
    # Missing-signal introspection (observed states under faults)
    # ------------------------------------------------------------------
    @property
    def missing_prices(self) -> np.ndarray:
        """Boolean length-``N`` mask of missing (NaN) price signals."""
        return np.isnan(self.prices)

    @property
    def missing_availability(self) -> np.ndarray:
        """Boolean ``(N, K)`` mask of missing (NaN) availability signals."""
        return np.isnan(self.availability)

    @property
    def has_missing(self) -> bool:
        """True if any signal in this snapshot is missing.

        A validated or trace state is complete by construction; only a
        ``missing_ok`` or unpickled state is scanned for NaN.
        """
        return not self._complete and bool(
            np.isnan(self.prices).any() or np.isnan(self.availability).any()
        )

    @property
    def num_server_classes(self) -> int:
        """``K`` for this snapshot."""
        return int(self.availability.shape[1])

    def capacities(self, cluster: Cluster) -> np.ndarray:
        """Per-site work capacity ``sum_k n_ik(t) * s_k`` (length ``N``, read-only)."""
        return self._row(cluster)[2]

    def total_resource(self, cluster: Cluster) -> float:
        """``R(t) = sum_i sum_k n_ik(t) * s_k``: systemwide resource (eq. 3)."""
        table, t, _ = self._row(cluster)
        return float(table.total_resource[t])

    def environment(self, cluster: Cluster) -> tuple:
        """``(table, t)``: this slot is row *t* of the :class:`SlotEnvironment` *table*.

        A state from :meth:`~repro.simulation.trace.Scenario.state_at`
        holds its scenario's table; any other (or another cluster) builds
        a length-1 table on first use.
        """
        table, t, _ = self._row(cluster)
        return table, t

    def _row(self, cluster: Cluster) -> tuple:
        # (table, t, capacities row): one row view per state, handed out each call.
        cached = self.__dict__.get("_slot")
        if cached is None or cached[0].cluster is not cluster:
            self._check_dims(cluster)
            table = SlotEnvironment(cluster, self.availability[None], self.prices[None])
            cached = (table, 0, table.capacities[0])
            object.__setattr__(self, "_slot", cached)
        return cached

    def validate_for(self, cluster: Cluster) -> "ClusterState":
        """Check that the snapshot is feasible for *cluster* plant limits."""
        self._check_dims(cluster)
        for i, dc in enumerate(cluster.datacenters):
            dc.validate_availability(self.availability[i])
        return self

    def _check_dims(self, cluster: Cluster) -> None:
        if self.num_datacenters != cluster.num_datacenters:
            raise ValueError(
                f"state has {self.num_datacenters} sites, cluster has "
                f"{cluster.num_datacenters}"
            )
        if self.num_server_classes != cluster.num_server_classes:
            raise ValueError(
                f"state has {self.num_server_classes} server classes, cluster has "
                f"{cluster.num_server_classes}"
            )
