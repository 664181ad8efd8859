"""The per-slot checks as they were before each fact was checked once.

* :class:`ClipThenCheckSupervisor` — a :class:`SupervisedSolver` whose
  attempt clips every finite answer, compares the clip with the
  original, recomputes the loads and runs ``is_feasible`` on the clip.
* :func:`busy_counts_array_checks` — ``busy_counts`` validating the
  loads with whole-array numpy calls before its Python pass.
* :class:`ScanningFill` — ``Scheduler.prepare_state`` scanning every
  state for NaN.

The fast paths in ``src/`` must agree with them bit for bit, with the
same failures, messages and counters; ``tests/test_slot_oracles.py``
and ``tests/test_faults.py`` check that.
"""

from __future__ import annotations

import numpy as np

from repro._contracts import ContractViolation, contracts_enabled
from repro.model.state import ClusterState
from repro.obs.registry import stats_registry
from repro.optimize.slot_problem import SolverFailure
from repro.resilient.supervisor import SupervisedSolver, _Failure

__all__ = ["ClipThenCheckSupervisor", "ScanningFill", "busy_counts_array_checks"]

_WORK_EPS = 1e-12


class ClipThenCheckSupervisor(SupervisedSolver):
    """A supervisor whose attempt clips, compares and re-verifies every answer."""

    def _attempt(self, problem, backend):
        try:
            raw = backend(problem)
        except SolverFailure as exc:
            return _Failure("raised", str(exc))
        except Exception as exc:  # noqa: BLE001 - supervision boundary
            return _Failure("raised", f"{type(exc).__name__}: {exc}")
        raw = np.asarray(raw, dtype=np.float64)
        if raw.shape != problem.h_upper.shape:
            return _Failure(
                "infeasible",
                f"shape {raw.shape} != {problem.h_upper.shape}",
            )
        if not np.isfinite(raw).all():
            return _Failure("non-finite", "backend returned NaN/Inf entries")
        h = problem.clip_feasible(raw)
        if (h != raw).any():
            stats_registry().counter_add("resilient.clip.changed")
        loads = problem.loads(h)
        loads.flags.writeable = False
        if not problem.is_feasible(h, loads=loads):
            return _Failure("infeasible", "clipped solution violates constraints")
        if contracts_enabled() and not np.allclose(
            problem.clip_feasible(h), h, rtol=0.0, atol=1e-9
        ):
            raise ContractViolation("clip_feasible is not idempotent here")
        return h, loads


def busy_counts_array_checks(cluster, supply, loads, totals=None) -> np.ndarray:
    """``busy_counts`` with its load checks as whole-array numpy calls."""
    if totals is None:
        totals = supply.sum(axis=1)
    if np.any(loads < -_WORK_EPS):
        raise ValueError(f"site loads must be non-negative, got {loads}")
    over = loads > totals * (1.0 + 1e-9) + 1e-9
    if np.any(over):
        i = int(np.argmax(over))
        raise ValueError(
            f"requested capacity {loads[i]} exceeds site total {totals[i]} at site {i}"
        )
    speeds = cluster.speeds.tolist()
    order = cluster.class_order.tolist()
    busy = [[0.0] * len(speeds) for _ in range(supply.shape[0])]
    for row, caps, load, total in zip(busy, supply.tolist(), loads.tolist(), totals.tolist()):
        remaining = min(load, total) if load > 0.0 else 0.0  # NaN serves nothing
        for cap, k in zip(caps, order):
            take = min(cap, remaining)
            if take > _WORK_EPS:
                row[k] = take / speeds[k]
            remaining -= take
    out = np.array(busy, dtype=np.float64) if busy else np.zeros((0, len(speeds)))
    out.flags.writeable = False
    return out


class ScanningFill:
    """Last-known-good substitution that scans every state for NaN."""

    def __init__(self) -> None:
        self._last_good_state = None

    def prepare_state(self, state: ClusterState) -> ClusterState:
        availability = state.availability
        prices = state.prices
        miss_a = np.isnan(availability)
        miss_p = np.isnan(prices)
        if not (miss_a.any() or miss_p.any()):
            self._last_good_state = (availability, prices)
            return state
        last = getattr(self, "_last_good_state", None)
        if last is None:
            finite = prices[~miss_p]
            fallback_price = float(finite.max()) if finite.size else 1.0
            base_a = np.zeros_like(availability)
            base_p = np.full_like(prices, fallback_price)
        else:
            base_a, base_p = last
        filled_a = np.where(miss_a, base_a, availability)
        filled_p = np.where(miss_p, base_p, prices)
        self._last_good_state = (filled_a, filled_p)
        return ClusterState(filled_a, filled_p)
