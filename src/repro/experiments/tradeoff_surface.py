"""The (V, beta) tradeoff surface: the paper's "tunable system" claim.

Section I promises "a tunable system with the flexibility to meet
different business requirements": V trades energy for delay, beta
trades energy for fairness.  This experiment maps the whole control
surface — a grid of (V, beta) operating points with energy, fairness
and delay at each — so an operator can pick the point their SLOs allow.

Expected monotone structure (asserted by the benchmark): along the V
axis (beta fixed) energy falls and delay rises; along the beta axis
(V fixed) fairness improves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._validation import ValueEquality
from repro.analysis.tables import format_table
from repro.runner import RunSpec, ScenarioSpec, default_cache, run_many
from repro.simulation.trace import Scenario

__all__ = ["SurfaceResult", "run", "main"]

DEFAULT_V_GRID = (0.5, 7.5, 30.0)
DEFAULT_BETA_GRID = (0.0, 100.0, 300.0)


@dataclass(frozen=True, eq=False)
class SurfaceResult(ValueEquality):
    """The tradeoff surface: grids plus per-point metric matrices."""

    v_grid: tuple
    beta_grid: tuple
    energy: np.ndarray  # (len(v), len(beta))
    fairness: np.ndarray
    delay: np.ndarray

    def point(self, vi: int, bi: int) -> dict:
        """Metrics at one grid point."""
        return {
            "v": self.v_grid[vi],
            "beta": self.beta_grid[bi],
            "energy": float(self.energy[vi, bi]),
            "fairness": float(self.fairness[vi, bi]),
            "delay": float(self.delay[vi, bi]),
        }


def run(
    horizon: int = 600,
    seed: int = 0,
    v_grid: Sequence[float] = DEFAULT_V_GRID,
    beta_grid: Sequence[float] = DEFAULT_BETA_GRID,
    scenario: Scenario | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> SurfaceResult:
    """Evaluate GreFar at every (V, beta) grid point on one scenario."""
    if scenario is None:
        scenario_spec = ScenarioSpec(kind="paper", horizon=horizon, seed=seed)
    else:
        scenario_spec = None
        horizon = scenario.horizon
    points = [(vi, bi) for vi in range(len(v_grid)) for bi in range(len(beta_grid))]
    specs = [
        RunSpec(
            scenario=scenario_spec,
            scheduler="grefar",
            scheduler_kwargs={
                "v": float(v_grid[vi]),
                "beta": float(beta_grid[bi]),
            },
            horizon=horizon,
        )
        for vi, bi in points
    ]
    results = run_many(
        specs,
        jobs=jobs,
        cache=default_cache() if use_cache else None,
        scenario=scenario,
    )
    energy = np.zeros((len(v_grid), len(beta_grid)))
    fairness = np.zeros_like(energy)
    delay = np.zeros_like(energy)
    for (vi, bi), result in zip(points, results):
        summary = result.summary
        energy[vi, bi] = summary.avg_energy_cost
        fairness[vi, bi] = summary.avg_fairness
        delay[vi, bi] = summary.avg_total_delay
    return SurfaceResult(
        v_grid=tuple(v_grid),
        beta_grid=tuple(beta_grid),
        energy=energy,
        fairness=fairness,
        delay=delay,
    )


def main(
    horizon: int = 600,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
) -> SurfaceResult:
    """Run and print the control surface."""
    result = run(horizon=horizon, seed=seed, jobs=jobs, use_cache=use_cache)
    rows = []
    for vi, v in enumerate(result.v_grid):
        for bi, beta in enumerate(result.beta_grid):
            p = result.point(vi, bi)
            rows.append(
                (f"{v:g}", f"{beta:g}", p["energy"], p["fairness"], p["delay"])
            )
    print(
        format_table(
            ["V", "beta", "Energy", "Fairness", "Delay"],
            rows,
            precision=4,
            title=f"GreFar (V, beta) tradeoff surface over {horizon} slots",
        )
    )
    return result


if __name__ == "__main__":
    main()
