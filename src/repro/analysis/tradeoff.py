"""Energy/fairness/delay tradeoff curves across control parameters.

The paper's central claim is a *tunable* tradeoff: sweeping the
cost-delay parameter ``V`` trades energy for delay (Theorem 1), and
sweeping the energy-fairness parameter ``beta`` trades energy for
fairness.  Both sweeps are the same thing — a list of ``(V, beta)``
operating points — so they share one spec-list helper over the
:mod:`repro.runner` engine and differ only in which axis varies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.runner.cache import default_cache
from repro.runner.engine import run_many
from repro.runner.spec import RunSpec
from repro.simulation.trace import Scenario

__all__ = ["TradeoffPoint", "sweep_points", "sweep_v", "sweep_beta"]


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of a control-parameter sweep."""

    v: float
    beta: float
    avg_energy_cost: float
    avg_fairness: float
    avg_total_delay: float
    avg_dc_delay: tuple
    max_queue_length: float


def _point_from_summary(v: float, beta: float, summary) -> TradeoffPoint:
    return TradeoffPoint(
        v=v,
        beta=beta,
        avg_energy_cost=summary.avg_energy_cost,
        avg_fairness=summary.avg_fairness,
        avg_total_delay=summary.avg_total_delay,
        avg_dc_delay=summary.avg_dc_delay,
        max_queue_length=summary.max_queue_length,
    )


def sweep_points(
    scenario: Scenario,
    points: Sequence[tuple],
    horizon: int | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> list:
    """Run GreFar at each ``(v, beta)`` point; one :class:`TradeoffPoint` each.

    This is the shared core of :func:`sweep_v` and :func:`sweep_beta`:
    one spec per operating point, fanned out through
    :func:`repro.runner.run_many` (``jobs`` workers, optional result
    cache keyed by the scenario's content).
    """
    points = list(points)
    if not points:
        raise ValueError("points must be non-empty")
    specs = [
        RunSpec(
            scenario=None,
            scheduler="grefar",
            scheduler_kwargs={"v": float(v), "beta": float(beta)},
            horizon=horizon,
        )
        for v, beta in points
    ]
    results = run_many(
        specs,
        jobs=jobs,
        cache=default_cache() if use_cache else None,
        scenario=scenario,
    )
    return [
        _point_from_summary(v, beta, result.summary)
        for (v, beta), result in zip(points, results)
    ]


def sweep_v(
    scenario: Scenario,
    v_values: Sequence[float],
    beta: float = 0.0,
    horizon: int | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> list:
    """Run GreFar for each ``V``; return one :class:`TradeoffPoint` each."""
    if not v_values:
        raise ValueError("v_values must be non-empty")
    return sweep_points(
        scenario,
        [(v, beta) for v in v_values],
        horizon=horizon,
        jobs=jobs,
        use_cache=use_cache,
    )


def sweep_beta(
    scenario: Scenario,
    beta_values: Sequence[float],
    v: float = 7.5,
    horizon: int | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> list:
    """Run GreFar for each ``beta``; return one :class:`TradeoffPoint` each."""
    if not beta_values:
        raise ValueError("beta_values must be non-empty")
    return sweep_points(
        scenario,
        [(v, beta) for beta in beta_values],
        horizon=horizon,
        jobs=jobs,
        use_cache=use_cache,
    )
