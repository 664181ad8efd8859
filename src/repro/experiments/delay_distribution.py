"""Delay distributions per V: the tails behind Fig. 2's means.

The paper reports *average* delays; an operator signing an SLO cares
about tails.  Theorem 1a's hard O(V) queue bound implies delays have a
bounded tail, and this experiment measures it: p50 / p95 / p99 data
center delay for each V, alongside the mean.

Expected structure: every percentile grows with V (the same tradeoff,
wherever you look on the distribution), and the p99/mean ratio stays
moderate — deferral under GreFar is systematic (price-driven), not a
lottery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.tables import format_table
from repro.runner.cache import default_cache
from repro.runner.engine import run_many
from repro.runner.spec import RunSpec, ScenarioSpec
from repro.simulation.trace import Scenario

__all__ = ["DelayDistributionResult", "run", "main"]


@dataclass(frozen=True)
class DelayDistributionResult:
    """Delay percentiles per cost-delay parameter."""

    v_values: tuple
    mean: tuple
    p50: tuple
    p95: tuple
    p99: tuple
    max_queue: tuple


def run(
    horizon: int = 800,
    seed: int = 0,
    v_values: Sequence[float] = (0.1, 2.5, 7.5, 20.0),
    scenario: Scenario | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> DelayDistributionResult:
    """Measure data-center delay percentiles for each V."""
    if scenario is None:
        scenario_spec = ScenarioSpec(kind="paper", horizon=horizon, seed=seed)
    else:
        scenario_spec = None
        horizon = scenario.horizon
    specs = [
        RunSpec(
            scenario=scenario_spec,
            scheduler="grefar",
            scheduler_kwargs={"v": float(v), "beta": 0.0},
            horizon=horizon,
            collect=("delay_percentiles",),
        )
        for v in v_values
    ]
    results = run_many(
        specs,
        jobs=jobs,
        cache=default_cache() if use_cache else None,
        scenario=scenario,
    )
    mean, p50, p95, p99, max_queue = [], [], [], [], []
    for result in results:
        percentiles = result.series["delay_percentiles"]
        mean.append(percentiles["mean"])
        p50.append(percentiles["p50"])
        p95.append(percentiles["p95"])
        p99.append(percentiles["p99"])
        max_queue.append(result.summary.max_queue_length)
    return DelayDistributionResult(
        v_values=tuple(v_values),
        mean=tuple(mean),
        p50=tuple(p50),
        p95=tuple(p95),
        p99=tuple(p99),
        max_queue=tuple(max_queue),
    )


def main(
    horizon: int = 800,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
) -> DelayDistributionResult:
    """Run and print the per-V delay distribution table."""
    result = run(horizon=horizon, seed=seed, jobs=jobs, use_cache=use_cache)
    rows = [
        (
            f"V={v:g}",
            result.mean[i],
            result.p50[i],
            result.p95[i],
            result.p99[i],
            result.max_queue[i],
        )
        for i, v in enumerate(result.v_values)
    ]
    print(
        format_table(
            ["", "Mean", "p50", "p95", "p99", "Max queue"],
            rows,
            title=f"DC delay distribution per V over {horizon} slots (beta=0)",
        )
    )
    return result


if __name__ == "__main__":
    main()
