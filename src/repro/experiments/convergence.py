"""Empirical O(1/V) convergence: fit the cost gap against 1/V.

Theorem 1b says GreFar's time-average cost exceeds the T-step lookahead
optimum by at most ``(B + D(T-1)) / V``.  This experiment measures the
*actual* gap for a geometric ladder of V values and fits
``gap(V) ~ a + b / V`` by least squares: the fit quality and a
near-zero asymptote ``a`` are the empirical signature of the theorem
(much tighter than the worst-case constants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.tables import format_table
from repro.runner.cache import default_cache
from repro.runner.engine import run_many
from repro.runner.spec import RunSpec
from repro.scenarios import paper_scenario
from repro.schedulers.lookahead import LookaheadPolicy
from repro.simulation.trace import Scenario

__all__ = ["ConvergenceResult", "run", "main"]


@dataclass(frozen=True)
class ConvergenceResult:
    """Measured cost gaps and the a + b/V fit."""

    v_values: tuple
    lookahead_cost: float
    grefar_costs: tuple
    gaps: tuple
    fit_asymptote: float  # a
    fit_slope: float  # b
    fit_r_squared: float

    @property
    def gap_monotone_decreasing(self) -> bool:
        """The robust empirical signature: gap(V) falls as V grows.

        The ``a + b/V`` fit is descriptive; at practical V the system is
        often pre-asymptotic (the gap still shrinking roughly linearly
        in log V), so monotonicity — not fit quality — is the check the
        benchmark asserts.  A small per-step tolerance (5%) absorbs the
        low-V noise bump where backpressure's spatial drift briefly
        offsets the still-tiny temporal savings (also visible in the
        paper-shape Fig. 2 sweep at V=2.5), while the endpoints must
        show a strict overall decline.
        """
        steps_ok = all(
            g2 <= g1 * 1.05 + 1e-9 for g1, g2 in zip(self.gaps, self.gaps[1:])
        )
        return steps_ok and self.gaps[-1] < self.gaps[0]


def run(
    horizon: int = 480,
    lookahead: int = 24,
    seed: int = 0,
    v_values: Sequence[float] = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
    scenario: Scenario | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> ConvergenceResult:
    """Measure gap(V) against the lookahead optimum and fit a + b/V."""
    if scenario is None:
        scenario = paper_scenario(horizon=horizon, seed=seed)
    else:
        horizon = scenario.horizon
    if horizon % lookahead != 0:
        raise ValueError(
            f"horizon {horizon} must be a multiple of lookahead {lookahead}"
        )
    policy = LookaheadPolicy(
        scenario.cluster,
        scenario.arrivals,
        scenario.availability,
        scenario.prices,
        lookahead=lookahead,
    )
    optimum = policy.solve().mean_cost

    specs = [
        RunSpec(
            scenario=None,
            scheduler="grefar",
            scheduler_kwargs={"v": float(v)},
            horizon=horizon,
        )
        for v in v_values
    ]
    results = run_many(
        specs,
        jobs=jobs,
        cache=default_cache() if use_cache else None,
        scenario=scenario,
    )
    costs = [r.summary.avg_energy_cost for r in results]
    gaps = np.array(costs) - optimum

    # Least-squares fit gap = a + b * (1/V).
    inv_v = 1.0 / np.asarray(v_values, dtype=np.float64)
    design = np.column_stack([np.ones_like(inv_v), inv_v])
    (a, b), residuals, _, _ = np.linalg.lstsq(design, gaps, rcond=None)
    predicted = design @ np.array([a, b])
    ss_res = float(np.sum((gaps - predicted) ** 2))
    ss_tot = float(np.sum((gaps - gaps.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 1e-12 else 1.0

    return ConvergenceResult(
        v_values=tuple(v_values),
        lookahead_cost=float(optimum),
        grefar_costs=tuple(float(c) for c in costs),
        gaps=tuple(float(g) for g in gaps),
        fit_asymptote=float(a),
        fit_slope=float(b),
        fit_r_squared=float(r_squared),
    )


def main(
    horizon: int = 480,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
) -> ConvergenceResult:
    """Run and print the convergence table and fit."""
    result = run(horizon=horizon, seed=seed, jobs=jobs, use_cache=use_cache)
    rows = [
        (f"{v:g}", result.grefar_costs[i], result.gaps[i])
        for i, v in enumerate(result.v_values)
    ]
    print(
        format_table(
            ["V", "GreFar cost", "Gap to lookahead"],
            rows,
            title=(
                f"O(1/V) convergence (lookahead optimum "
                f"{result.lookahead_cost:.3f})"
            ),
        )
    )
    print(
        f"\nfit: gap(V) = {result.fit_asymptote:.3f} + "
        f"{result.fit_slope:.3f}/V   (R^2 = {result.fit_r_squared:.3f})"
    )
    return result


if __name__ == "__main__":
    main()
