"""Fig. 5: one-day schedule snapshot in DC #1 (V = 7.5, beta = 0).

The paper's figure overlays DC #1's hourly electricity price with the
work both schedulers process there during a single day: "Always"
schedules without regard to price, while GreFar concentrates work in
the cheap hours and avoids the expensive ones.

We quantify the visual with the correlation between DC #1's price and
the work GreFar/Always schedule there over the day: GreFar's should be
clearly more negative.  (A warm-up period runs first so the snapshot
shows steady-state behaviour, as the paper's mid-trace day does.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import ValueEquality
from repro.analysis.tables import format_table
from repro.runner import RunSpec, ScenarioSpec, default_cache, run_many
from repro.simulation.trace import Scenario

__all__ = ["Fig5Result", "run", "main"]


@dataclass(frozen=True, eq=False)
class Fig5Result(ValueEquality):
    """The snapshot series and their price correlations."""

    prices_dc1: np.ndarray  # (window,)
    grefar_work_dc1: np.ndarray
    always_work_dc1: np.ndarray
    grefar_price_correlation: float
    always_price_correlation: float


def _correlation(a: np.ndarray, b: np.ndarray) -> float:
    if np.std(a) < 1e-12 or np.std(b) < 1e-12:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def run(
    warmup: int = 96,
    window: int = 24,
    seed: int = 0,
    v: float = 7.5,
    scenario: Scenario | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> Fig5Result:
    """Simulate warmup + window slots; extract the DC #1 day snapshot."""
    horizon = warmup + window
    if scenario is None:
        scenario_spec = ScenarioSpec(kind="paper", horizon=horizon, seed=seed)
    else:
        scenario_spec = None
    specs = [
        RunSpec(
            scenario=scenario_spec,
            scheduler="grefar",
            scheduler_kwargs={"v": float(v), "beta": 0.0},
            horizon=horizon,
            collect=("work_per_dc_series", "scenario.prices"),
        ),
        RunSpec(
            scenario=scenario_spec,
            scheduler="always",
            horizon=horizon,
            collect=("work_per_dc_series",),
        ),
    ]
    grefar, always = run_many(
        specs,
        jobs=jobs,
        cache=default_cache() if use_cache else None,
        scenario=scenario,
    )

    sl = slice(warmup, horizon)
    prices = grefar.series["scenario.prices"][sl, 0]
    g_work = grefar.series["work_per_dc_series"][sl, 0]
    a_work = always.series["work_per_dc_series"][sl, 0]
    return Fig5Result(
        prices_dc1=prices,
        grefar_work_dc1=g_work,
        always_work_dc1=a_work,
        grefar_price_correlation=_correlation(prices, g_work),
        always_price_correlation=_correlation(prices, a_work),
    )


def main(
    warmup: int = 96,
    window: int = 24,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
) -> Fig5Result:
    """Run and print the snapshot plus price/work correlations."""
    result = run(
        warmup=warmup, window=window, seed=seed, jobs=jobs, use_cache=use_cache
    )
    rows = [
        (t + 1, result.prices_dc1[t], result.grefar_work_dc1[t], result.always_work_dc1[t])
        for t in range(len(result.prices_dc1))
    ]
    print(
        format_table(
            ["Hour", "Price DC#1", "GreFar work", "Always work"],
            rows,
            title="Fig. 5: one-day schedule snapshot in DC #1 (beta=0, V=7.5)",
        )
    )
    print(
        f"\nprice/work correlation: GreFar {result.grefar_price_correlation:+.3f}, "
        f"Always {result.always_price_correlation:+.3f}"
    )
    return result


if __name__ == "__main__":
    main()
