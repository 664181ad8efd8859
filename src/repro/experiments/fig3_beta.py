"""Fig. 3: impact of the energy-fairness parameter beta (V = 7.5).

Reproduces the three panels comparing beta = 0 against beta = 100:
(a) running-average energy cost, (b) running-average fairness score,
(c) running-average delay in DC #1.

Expected shape (Section VI-B2): with beta = 100 the fairness score is
clearly higher while the energy cost increases only marginally, and the
average delay *decreases* — the quadratic fairness function (eq. 3)
rewards utilization, so GreFar serves some jobs even when prices are
not very low.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.tables import format_table
from repro.runner.cache import default_cache
from repro.runner.engine import run_many
from repro.runner.spec import RunSpec, ScenarioSpec
from repro.simulation.trace import Scenario

__all__ = ["Fig3Result", "run", "main"]


@dataclass(frozen=True)
class Fig3Result:
    """Per-beta running-average series and final values."""

    v: float
    beta_values: tuple
    energy_series: tuple
    fairness_series: tuple
    delay_dc1_series: tuple
    final_energy: tuple
    final_fairness: tuple
    final_delay_dc1: tuple


def run(
    horizon: int = 2000,
    seed: int = 0,
    v: float = 7.5,
    beta_values: Sequence[float] = (0.0, 100.0),
    scenario: Scenario | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> Fig3Result:
    """Run GreFar for each beta on a common scenario."""
    if scenario is None:
        scenario_spec = ScenarioSpec(kind="paper", horizon=horizon, seed=seed)
    else:
        scenario_spec = None
        horizon = scenario.horizon
    specs = [
        RunSpec(
            scenario=scenario_spec,
            scheduler="grefar",
            scheduler_kwargs={"v": float(v), "beta": float(beta)},
            horizon=horizon,
            collect=("energy_series", "fairness_series", "dc_delay_series:0"),
        )
        for beta in beta_values
    ]
    results = run_many(
        specs,
        jobs=jobs,
        cache=default_cache() if use_cache else None,
        scenario=scenario,
    )
    energy = [r.series["energy_series"] for r in results]
    fairness = [r.series["fairness_series"] for r in results]
    delay1 = [r.series["dc_delay_series:0"] for r in results]
    return Fig3Result(
        v=v,
        beta_values=tuple(beta_values),
        energy_series=tuple(energy),
        fairness_series=tuple(fairness),
        delay_dc1_series=tuple(delay1),
        final_energy=tuple(float(s[-1]) for s in energy),
        final_fairness=tuple(float(s[-1]) for s in fairness),
        final_delay_dc1=tuple(float(s[-1]) for s in delay1),
    )


def main(
    horizon: int = 2000,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
) -> Fig3Result:
    """Run and print the Fig. 3 endpoint values per beta."""
    result = run(horizon=horizon, seed=seed, jobs=jobs, use_cache=use_cache)
    rows = [
        (
            f"beta={b:g}",
            result.final_energy[i],
            result.final_fairness[i],
            result.final_delay_dc1[i],
        )
        for i, b in enumerate(result.beta_values)
    ]
    print(
        format_table(
            ["", "Energy (a)", "Fairness (b)", "Delay DC#1 (c)"],
            rows,
            precision=4,
            title=f"Fig. 3: GreFar with V={result.v:g} over {horizon} slots",
        )
    )
    return result


if __name__ == "__main__":
    main()
