"""Server availability substrate.

Section VI-A: "The (random) server availability is chosen such that it
satisfies the slackness conditions (20)-(22)."  Availability changes
because of failures, software upgrades and interference from
interactive workloads; here it follows a bounded mean-reverting random
walk between a configurable floor fraction and the full plant, which
keeps total capacity comfortably above the peak load (the slackness
prerequisite of Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import require_in_range, require_non_negative
from repro.model.cluster import Cluster

__all__ = ["AvailabilityModel", "apply_capacity_faults"]


def apply_capacity_faults(availability: np.ndarray, events) -> np.ndarray:
    """Apply capacity faults to a ``(T, N, K)`` availability trace.

    *events* is any iterable of :class:`~repro.faults.events.FaultEvent`
    (duck-typed on ``kind`` / ``dc`` / ``start`` / ``end`` /
    ``capacity_factor``); only capacity kinds (``outage`` /
    ``capacity_loss``) have an effect.  Returns a new array — the
    ground-truth availability a faulted scenario would show — leaving
    the input untouched.  Overlapping faults on one site combine by
    taking the most severe factor.
    """
    availability = np.asarray(availability, dtype=np.float64)
    if availability.ndim != 3:
        raise ValueError(
            f"availability must be a (T, N, K) trace, got ndim={availability.ndim}"
        )
    out = availability.copy()
    horizon, n, _ = out.shape
    for event in events:
        factor = event.capacity_factor
        if factor >= 1.0:
            continue
        if not 0 <= event.dc < n:
            raise ValueError(f"event targets data center {event.dc}, trace has {n}")
        lo = min(max(event.start, 0), horizon)
        hi = min(event.end, horizon)
        if lo < hi:
            np.minimum(
                out[lo:hi, event.dc, :],
                availability[lo:hi, event.dc, :] * factor,
                out=out[lo:hi, event.dc, :],
            )
    return out


@dataclass(frozen=True)
class AvailabilityModel:
    """Bounded random-walk availability ``n_ik(t)`` for a cluster.

    Parameters
    ----------
    cluster:
        The plant being modelled (gives the per-site per-class maxima).
    floor_fraction:
        Minimum fraction of the plant that is always available.  With
        the default 0.7 and a plant provisioned above peak load, the
        slackness conditions hold throughout.
    step_fraction:
        Maximum per-slot relative change of each availability entry
        (how fast interactive load / failures move).
    integer_counts:
        If True (default), availability is rounded to whole servers.
    """

    cluster: Cluster
    floor_fraction: float = 0.7
    step_fraction: float = 0.05
    integer_counts: bool = True

    def __post_init__(self) -> None:
        require_in_range(self.floor_fraction, 0.0, 1.0, "floor_fraction")
        require_non_negative(self.step_fraction, "step_fraction")

    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        """Return a ``(horizon, N, K)`` availability tensor."""
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        maxima = np.stack([dc.max_servers for dc in self.cluster.datacenters])
        n, k = maxima.shape
        floor = self.floor_fraction * maxima

        # Start somewhere in the feasible band.
        frac = rng.uniform(self.floor_fraction, 1.0, size=(n, k))
        level = frac * maxima
        # All the drift in one draw: the same numbers as one (N, K) draw per slot.
        out = rng.uniform(-1.0, 1.0, size=(horizon, n, k)) * self.step_fraction * maxima
        for t in range(horizon):
            # out[t] holds slot t's drift; the walk overwrites it with the level.
            np.add(level, out[t], out=out[t])
            np.maximum(out[t], floor, out=out[t])
            level = np.minimum(out[t], maxima, out=out[t])
        return np.round(out, out=out) if self.integer_counts else out

    def min_capacity(self) -> float:
        """Lower bound on systemwide capacity under this model.

        Useful for checking the slackness condition (22): the workload's
        peak work per slot must stay below this value.
        """
        maxima = np.stack([dc.max_servers for dc in self.cluster.datacenters])
        if self.integer_counts:
            floor_counts = np.floor(self.floor_fraction * maxima)
        else:
            floor_counts = self.floor_fraction * maxima
        return float(np.sum(floor_counts @ self.cluster.speeds))
