"""Section VI-B1's in-text result: work distribution across data centers.

"When V = 7.5 and beta = 100, ... the average work per time step
scheduled to data centers #1, #2, and #3 are 33.967, 48.502 and 14.770,
respectively.  In other words, more work is processed in data centers
that incur lower energy costs."

The absolute split depends on the proprietary trace; the claim to
reproduce is the *ordering*: the per-slot work shares are inversely
ordered with the Table I average energy cost per unit work
(DC#2: 0.346 < DC#1: 0.392 < DC#3: 0.572, hence work
DC#2 > DC#1 > DC#3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_table
from repro.runner.cache import default_cache
from repro.runner.engine import run_many
from repro.runner.spec import RunSpec, ScenarioSpec
from repro.scenarios import paper_cluster
from repro.simulation.trace import Scenario

__all__ = ["WorkDistributionResult", "PAPER_WORK_SPLIT", "run", "main"]

#: The paper's reported per-DC average work per slot.
PAPER_WORK_SPLIT = (33.967, 48.502, 14.770)


@dataclass(frozen=True)
class WorkDistributionResult:
    """Average per-slot work per data center and cost ordering check."""

    v: float
    beta: float
    avg_work_per_dc: tuple
    cost_per_unit_work: tuple
    ordering_matches_cost: bool


def run(
    horizon: int = 2000,
    seed: int = 0,
    v: float = 7.5,
    beta: float = 100.0,
    scenario: Scenario | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> WorkDistributionResult:
    """Measure the average work per slot GreFar sends to each site."""
    if scenario is None:
        scenario_spec = ScenarioSpec(kind="paper", horizon=horizon, seed=seed)
        cluster = paper_cluster()
    else:
        scenario_spec = None
        horizon = scenario.horizon
        cluster = scenario.cluster
    spec = RunSpec(
        scenario=scenario_spec,
        scheduler="grefar",
        scheduler_kwargs={"v": float(v), "beta": float(beta)},
        horizon=horizon,
        collect=("scenario.price_mean",),
    )
    result = run_many(
        [spec],
        jobs=jobs,
        cache=default_cache() if use_cache else None,
        scenario=scenario,
    )[0]
    work = tuple(result.summary.avg_work_per_dc)
    price_means = result.series["scenario.price_mean"]

    costs = []
    for i in range(cluster.num_datacenters):
        server = cluster.server_classes[i]
        avg_price = float(price_means[i])
        costs.append(avg_price * server.energy_per_unit_work)

    # More work should go where energy cost per unit work is lower.
    work_order = tuple(np.argsort(np.argsort([-w for w in work])))
    cost_order = tuple(np.argsort(np.argsort(costs)))
    return WorkDistributionResult(
        v=v,
        beta=beta,
        avg_work_per_dc=work,
        cost_per_unit_work=tuple(costs),
        ordering_matches_cost=work_order == cost_order,
    )


def main(
    horizon: int = 2000,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
) -> WorkDistributionResult:
    """Run and print the work distribution next to the paper's."""
    result = run(horizon=horizon, seed=seed, jobs=jobs, use_cache=use_cache)
    rows = [
        (
            f"DC#{i + 1}",
            result.avg_work_per_dc[i],
            result.cost_per_unit_work[i],
            PAPER_WORK_SPLIT[i],
        )
        for i in range(len(result.avg_work_per_dc))
    ]
    print(
        format_table(
            ["", "Avg work/slot", "Cost per unit work", "Paper work/slot"],
            rows,
            title=(
                f"Work distribution (V={result.v:g}, beta={result.beta:g}): "
                "cheaper sites get more work"
            ),
        )
    )
    print(f"\nwork ordering matches inverse cost ordering: {result.ordering_matches_cost}")
    return result


if __name__ == "__main__":
    main()
