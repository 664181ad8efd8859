"""Fig. 1: three-day trace of electricity prices and arrived work.

The paper's figure shows (top) hourly electricity prices for the three
data centers over 72 hours and (bottom) the total work of arrived jobs
per organization.  The qualitative features this experiment verifies:

* prices vary hour-to-hour and differ across sites, with the Table I
  ordering of means (DC3 > DC2 > DC1);
* per-organization work is highly time-dependent (diurnal swing) and
  sporadic (organizations have near-silent stretches), i.e. clearly
  non-stationary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import ValueEquality
from repro.analysis.tables import format_table
from repro.runner import RunSpec, ScenarioSpec, default_cache, run_many

__all__ = ["Fig1Result", "run", "main"]


@dataclass(frozen=True, eq=False)
class Fig1Result(ValueEquality):
    """The two panels of Fig. 1 plus summary statistics."""

    prices: np.ndarray  # (72, N)
    org_work: np.ndarray  # (72, M)
    price_means: tuple
    price_cv: tuple  # coefficient of variation per site
    org_peak_to_mean: tuple
    org_silent_fraction: tuple  # fraction of hours below 10% of org mean


def run(
    horizon: int = 72,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = False,
) -> Fig1Result:
    """Generate the 72-hour trace and compute the shape statistics.

    A scenario-only :class:`~repro.runner.RunSpec`: the runner hands
    back the price panel and the per-organization work panel without
    simulating anything.
    """
    spec = RunSpec(
        scenario=ScenarioSpec(kind="paper", horizon=horizon, seed=seed),
        scheduler=None,
        collect=("scenario.prices", "scenario.org_work"),
    )
    result = run_many(
        [spec], jobs=jobs, cache=default_cache() if use_cache else None
    )[0]
    prices = result.series["scenario.prices"]
    org_work = result.series["scenario.org_work"]

    means = prices.mean(axis=0)
    stds = prices.std(axis=0)
    cv = tuple(float(s / m) for s, m in zip(stds, means))

    peak_to_mean = []
    silent = []
    for m in range(org_work.shape[1]):
        series = org_work[:, m]
        mean = float(series.mean())
        peak_to_mean.append(float(series.max()) / mean if mean > 0 else 0.0)
        silent.append(float(np.mean(series < 0.1 * mean)) if mean > 0 else 1.0)

    return Fig1Result(
        prices=prices,
        org_work=org_work,
        price_means=tuple(float(m) for m in means),
        price_cv=cv,
        org_peak_to_mean=tuple(peak_to_mean),
        org_silent_fraction=tuple(silent),
    )


def main(
    horizon: int = 72,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
) -> Fig1Result:
    """Run and print the Fig. 1 shape summary."""
    result = run(horizon=horizon, seed=seed, jobs=jobs, use_cache=use_cache)
    price_rows = [
        (f"DC#{i + 1}", result.price_means[i], result.price_cv[i])
        for i in range(len(result.price_means))
    ]
    print(
        format_table(
            ["Site", "Mean price", "Coeff of variation"],
            price_rows,
            title="Fig. 1 (top): hourly electricity prices",
        )
    )
    org_rows = [
        (
            f"Org#{m + 1}",
            float(result.org_work[:, m].mean()),
            result.org_peak_to_mean[m],
            result.org_silent_fraction[m],
        )
        for m in range(result.org_work.shape[1])
    ]
    print()
    print(
        format_table(
            ["Org", "Mean work/h", "Peak/mean", "Silent frac"],
            org_rows,
            title="Fig. 1 (bottom): arrived work per organization",
        )
    )
    return result


if __name__ == "__main__":
    main()
