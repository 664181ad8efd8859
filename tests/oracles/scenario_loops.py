"""Per-slot loop forms of the scenario generators' vectorised passes.

:meth:`CosmosWorkload._admission_control` now finds the over-cap slots
in one pass and :meth:`AvailabilityModel.generate` draws all its drift at
once.  These are the loops they replaced, written as methods so a test
can patch them in; a generated :class:`~repro.simulation.trace.Scenario`
must come out ``==`` either way.
"""

from __future__ import annotations

import numpy as np

__all__ = ["admission_control_loop", "availability_generate_loop"]


def admission_control_loop(workload, arrivals: np.ndarray, rng: np.random.Generator) -> None:
    """Thin any slot whose total arriving work exceeds the cap, one slot at a time."""
    demands = workload.cluster.demands
    cap = workload.max_total_work
    for t in range(arrivals.shape[0]):
        work = float(arrivals[t] @ demands)
        while work > cap:
            contributions = arrivals[t] * demands
            jitter = rng.random(len(contributions)) * 1e-6
            j = int(np.argmax(contributions + jitter))
            if arrivals[t, j] <= 0:
                break
            arrivals[t, j] -= 1
            work -= demands[j]


def availability_generate_loop(model, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """The bounded random walk with one ``(N, K)`` drift draw per slot."""
    maxima = np.stack([dc.max_servers for dc in model.cluster.datacenters])
    n, k = maxima.shape
    floor = model.floor_fraction * maxima
    out = np.empty((horizon, n, k))
    frac = rng.uniform(model.floor_fraction, 1.0, size=(n, k))
    level = frac * maxima
    for t in range(horizon):
        drift = rng.uniform(-1.0, 1.0, size=(n, k)) * model.step_fraction * maxima
        level = np.clip(level + drift, floor, maxima)
        out[t] = np.round(level) if model.integer_counts else level
    return out
