"""Fig. 2: minimizing energy cost with different V (beta = 0).

Reproduces the three panels: (a) running-average energy cost, (b)
running-average delay in DC #1 and (c) in DC #2, for the paper's four
cost-delay parameters V in {0.1, 2.5, 7.5, 20} over 2000 hourly slots.

Expected shape (Section VI-B1): a greater V yields lower average energy
cost at the expense of larger queueing delay — the four curves are
ordered monotonically in both panels (energy decreasing in V, delay
increasing in V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


from repro.analysis.tables import format_table
from repro.runner.cache import default_cache
from repro.runner.engine import run_many
from repro.runner.spec import RunSpec, ScenarioSpec
from repro.simulation.trace import Scenario

__all__ = ["Fig2Result", "PAPER_V_VALUES", "run", "main"]

#: The paper's four cost-delay parameters.
PAPER_V_VALUES = (0.1, 2.5, 7.5, 20.0)


@dataclass(frozen=True)
class Fig2Result:
    """Per-V running-average series and final values."""

    v_values: tuple
    energy_series: tuple  # one array per V (panel a)
    delay_dc1_series: tuple  # panel b
    delay_dc2_series: tuple  # panel c
    final_energy: tuple
    final_delay_dc1: tuple
    final_delay_dc2: tuple


def run(
    horizon: int = 2000,
    seed: int = 0,
    v_values: Sequence[float] = PAPER_V_VALUES,
    scenario: Scenario | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> Fig2Result:
    """Run the V sweep on a common scenario and collect the Fig. 2 series."""
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
            collect=("energy_series", "dc_delay_series:0", "dc_delay_series:1"),
        )
        for v in v_values
    ]
    results = run_many(
        specs,
        jobs=jobs,
        cache=default_cache() if use_cache else None,
        scenario=scenario,
    )
    energy = [r.series["energy_series"] for r in results]
    delay1 = [r.series["dc_delay_series:0"] for r in results]
    delay2 = [r.series["dc_delay_series:1"] for r in results]
    return Fig2Result(
        v_values=tuple(v_values),
        energy_series=tuple(energy),
        delay_dc1_series=tuple(delay1),
        delay_dc2_series=tuple(delay2),
        final_energy=tuple(float(s[-1]) for s in energy),
        final_delay_dc1=tuple(float(s[-1]) for s in delay1),
        final_delay_dc2=tuple(float(s[-1]) for s in delay2),
    )


def main(
    horizon: int = 2000,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
) -> Fig2Result:
    """Run and print the Fig. 2 endpoint values per V."""
    result = run(horizon=horizon, seed=seed, jobs=jobs, use_cache=use_cache)
    rows = [
        (
            f"V={v:g}",
            result.final_energy[i],
            result.final_delay_dc1[i],
            result.final_delay_dc2[i],
        )
        for i, v in enumerate(result.v_values)
    ]
    print(
        format_table(
            ["", "Avg energy cost (a)", "Delay DC#1 (b)", "Delay DC#2 (c)"],
            rows,
            title=f"Fig. 2: GreFar with beta=0 over {horizon} slots",
        )
    )
    spread = 1.0 - result.final_energy[-1] / result.final_energy[0]
    print(f"\nEnergy saving of V={result.v_values[-1]:g} vs V={result.v_values[0]:g}: "
          f"{spread:.1%}")
    return result


if __name__ == "__main__":
    main()
