"""Scheduler actions: ``z(t) = {r_ij(t), h_ij(t), b_ik(t)}`` (Section III-C2).

An :class:`Action` is what any scheduler returns for one slot:

* ``route`` — ``r_ij(t)``: how many type-``j`` jobs to send from the
  central queue to data center ``i`` (integer-valued, eq. (4) bounded);
* ``serve`` — ``h_ij(t)``: how many type-``j`` jobs to process at data
  center ``i`` (fractional allowed, jobs are preemptible, eq. (5));
* ``busy`` — ``b_ik(t)``: how many class-``k`` servers to run busy at
  data center ``i`` (fractional allowed, ``<= n_ik(t)``).

The feasibility coupling is eq. (11): the work served cannot exceed the
work capacity of the busy servers,
``sum_j h_ij d_j <= sum_k b_ik s_k <= sum_k n_ik s_k``.

The slot arithmetic below (work per site and per account, energy cost
per site, the capacity test) serves both the solver and the recorder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import ValueEquality, is_sealed
from repro.model.cluster import Cluster
from repro.model.state import ClusterState

__all__ = ["Action", "account_work", "energy_per_site", "within"]

_FEAS_TOL = 1e-6
#: Read as unsigned integers, the float64 bit patterns at or above this
#: are +inf, NaN or carry a sign bit (negatives, ``-0.0``); below it lie
#: exactly the finite values with ``np.signbit`` unset.
_PLAIN_LIMIT = np.uint64(0x7FF0000000000000)


def _owned(values, name: str) -> np.ndarray:
    """One of :class:`Action`'s arrays: checked, ``float64`` and sealed.

    The ownership contract: the array returned is C-contiguous, read-only
    and no writable array reaches its memory (:func:`is_sealed`), so the
    ``Action`` cannot change after it is built.  An input that already
    meets it is kept as is; any other input is copied.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("route, serve and busy must all be 2-D arrays")
    if arr.size and arr.view(np.uint64).max() >= _PLAIN_LIMIT:
        # Something is not a finite value with a clear sign bit.
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must contain only finite values")
        if (arr < -_FEAS_TOL).any():
            raise ValueError(f"{name} must be element-wise non-negative")
        arr = np.clip(arr, 0.0, None)  # a fresh array; -0.0 becomes +0.0
    elif not (arr.flags.c_contiguous and is_sealed(arr)):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def account_work(cluster: Cluster, serve: np.ndarray) -> np.ndarray:
    """Per-account work ``r_m(t) = sum_i sum_{j: rho_j = m} h_ij d_j`` of eq. (3)."""
    per_type = serve.sum(axis=0) * cluster.demands
    return np.bincount(
        cluster.account_of_type, weights=per_type, minlength=cluster.num_accounts
    )


def energy_per_site(prices: np.ndarray, draws: np.ndarray, pricing=None) -> np.ndarray:
    """Per-site cost of power *draws*: ``phi_i(t) draw_i``, or priced by *pricing*."""
    if pricing is None:
        return prices * draws
    return np.array(
        [pricing.total_cost(float(draw), float(price)) for draw, price in zip(draws, prices)]
    )


def within(used: np.ndarray, limit: np.ndarray, tol: float) -> bool:
    """True if ``used <= limit`` at every site, at relative and absolute *tol*."""
    return bool((used <= limit * (1.0 + tol) + tol).all())


@dataclass(frozen=True, eq=False)
class Action(ValueEquality):
    """One slot's scheduling decision ``z(t)``.

    All three arrays are held read-only as ``float64``.  An input that is
    already sealed (read-only, C-contiguous ``float64`` that no writable
    array can reach, see :func:`~repro._validation.is_sealed`) is kept
    as is; any other input is copied first.  Entries in ``[-1e-6, 0]`` (``-0.0``
    included) are stored as ``+0.0``; NaN, infinity and anything more
    negative raise ``ValueError``.  Use :meth:`validate` to check
    feasibility against a cluster and state.

    Two actions are equal when their arrays are.  :meth:`work_served`
    and :meth:`account_work` are computed at most once per action and
    cluster; that cache takes no part in equality or pickles.
    """

    route: np.ndarray
    serve: np.ndarray
    busy: np.ndarray

    def __init__(self, route: np.ndarray, serve: np.ndarray, busy: np.ndarray) -> None:
        r = _owned(route, "route")
        h = _owned(serve, "serve")
        b = _owned(busy, "busy")
        if r.shape != h.shape:
            raise ValueError(
                f"route shape {r.shape} and serve shape {h.shape} must both be (N, J)"
            )
        if b.shape[0] != r.shape[0]:
            raise ValueError(
                f"busy has {b.shape[0]} sites but route has {r.shape[0]}"
            )
        object.__setattr__(self, "route", r)
        object.__setattr__(self, "serve", h)
        object.__setattr__(self, "busy", b)

    def __getstate__(self) -> dict:
        return {"route": self.route, "serve": self.serve, "busy": self.busy}

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writable and held by nothing else.
        for name, arr in state.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def idle(cls, cluster: Cluster) -> "Action":
        """The all-zeros action: route nothing, serve nothing, all idle."""
        n, j, k = (
            cluster.num_datacenters,
            cluster.num_job_types,
            cluster.num_server_classes,
        )
        return cls(np.zeros((n, j)), np.zeros((n, j)), np.zeros((n, k)))

    @classmethod
    def _sealed(
        cls,
        cluster: Cluster,
        route: np.ndarray,
        serve: np.ndarray,
        busy: np.ndarray,
        loads: np.ndarray,
    ) -> "Action":
        """An action on these very arrays, unchecked, with *loads* as its :meth:`work_served`.

        For a producer whose arrays already meet :func:`_owned`'s contract
        (sealed, finite, non-negative ``float64`` with no ``-0.0``), so the
        checked constructor would keep them as they are, and whose *loads*
        is ``serve @ cluster.demands``.  GreFar's decisions are built so.
        """
        action = object.__new__(cls)
        object.__setattr__(action, "route", route)
        object.__setattr__(action, "serve", serve)
        object.__setattr__(action, "busy", busy)
        loads.flags.writeable = False
        object.__setattr__(action, "_work", (cluster, loads))
        return action

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def work_served(self, cluster: Cluster) -> np.ndarray:
        """Per-site work processed: ``sum_j h_ij * d_j`` (length ``N``, read-only)."""
        return self._derived("_work", cluster, lambda c, h: h @ c.demands)

    def account_work(self, cluster: Cluster) -> np.ndarray:
        """Work processed per account (:func:`account_work`; read-only)."""
        return self._derived("_account", cluster, account_work)

    def _derived(self, name: str, cluster: Cluster, compute) -> np.ndarray:
        cached = self.__dict__.get(name)
        if cached is None or cached[0] is not cluster:
            value = compute(cluster, self.serve)
            value.flags.writeable = False
            cached = (cluster, value)
            object.__setattr__(self, name, cached)
        return cached[1]

    def capacity_used(self, cluster: Cluster) -> np.ndarray:
        """Per-site capacity provided by busy servers: ``sum_k b_ik s_k``."""
        return self.busy @ cluster.speeds

    def energy_cost(self, cluster: Cluster, state: ClusterState, pricing=None) -> float:
        """Total electricity cost ``e(t)`` (eq. 2): the sum of :meth:`energy_cost_per_site`."""
        return float(np.sum(self.energy_cost_per_site(cluster, state, pricing)))

    def energy_cost_per_site(
        self, cluster: Cluster, state: ClusterState, pricing=None
    ) -> np.ndarray:
        """Per-site electricity cost ``e_i(t)`` (:func:`energy_per_site`)."""
        return energy_per_site(state.prices, self.busy @ cluster.active_powers, pricing)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self,
        cluster: Cluster,
        state: ClusterState,
        tol: float = 1e-6,
    ) -> "Action":
        """Check all paper constraints; return ``self`` or raise ``ValueError``.

        Checks performed:

        * dimensions match the cluster;
        * ``r_ij`` and ``h_ij`` are zero outside the eligibility sets
          ``D_j`` and within their bounds (eqs. (4), (5));
        * ``r_ij`` is integer-valued (jobs cannot be split across sites);
        * ``0 <= b_ik <= n_ik(t)``;
        * served work fits inside busy capacity (eq. (11)).
        """
        n, j, k = (
            cluster.num_datacenters,
            cluster.num_job_types,
            cluster.num_server_classes,
        )
        if self.route.shape != (n, j):
            raise ValueError(f"route must have shape {(n, j)}, got {self.route.shape}")
        if self.busy.shape != (n, k):
            raise ValueError(f"busy must have shape {(n, k)}, got {self.busy.shape}")

        elig = cluster.eligibility_matrix()
        if np.any(self.route[~elig] > tol):
            raise ValueError("route sends jobs to ineligible data centers")
        if np.any(self.serve[~elig] > tol):
            raise ValueError("serve processes jobs at ineligible data centers")
        if np.any(np.abs(self.route - np.round(self.route)) > tol):
            raise ValueError("route must be integer-valued (jobs cannot be split)")
        if np.any(self.route > cluster.max_route_matrix() + tol):
            raise ValueError("route exceeds the r_ij^max bound (eq. 4)")
        if np.any(self.serve > cluster.max_service_matrix() + tol):
            raise ValueError("serve exceeds the h_ij^max bound (eq. 5)")
        if np.any(self.busy > state.availability + tol):
            raise ValueError("busy exceeds available servers n_ik(t)")

        work = self.work_served(cluster)
        cap = self.capacity_used(cluster)
        if np.any(work > cap + tol * (1.0 + cap)):
            bad = int(np.argmax(work - cap))
            raise ValueError(
                f"served work {work[bad]:.6f} exceeds busy capacity {cap[bad]:.6f} "
                f"at data center index {bad} (eq. 11 violated)"
            )
        mem_caps = cluster.memory_capacities
        if cluster.has_memory_constraints:
            used = self.serve @ cluster.memory_demands
            if not within(used, mem_caps, tol):
                bad = int(np.argmax(used - mem_caps))
                raise ValueError(
                    f"memory used {used[bad]:.6f} exceeds capacity "
                    f"{mem_caps[bad]:.6f} at data center index {bad}"
                )
        return self
