"""Theorem 1 verification: queue bound O(V) and cost gap O(1/V).

For a scenario satisfying the slackness conditions this experiment

* runs GreFar for a range of V and records the largest queue length
  ever observed, checking it against the analytic bound ``V C3 / delta``
  (eq. 23);
* solves the optimal T-step lookahead policy on the same trace and
  checks GreFar's time-average cost against
  ``lookahead + (B + D(T-1)) / V`` (eq. 24).

The analytic constants are worst-case, so the measured values should
sit well inside the bounds; the qualitative trends (max queue grows
with V, cost gap shrinks with V) are asserted by the benchmarks.

To keep the constants meaningful the boundedness parameters are taken
from the *trace* (measured ``a_j^max``) and the cluster's routing and
service bounds; the price cap is the trace maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.tables import format_table
from repro.core.bounds import TheoremConstants
from repro.core.slackness import check_slackness
from repro.runner.cache import default_cache
from repro.runner.engine import run_many
from repro.runner.spec import RunSpec
from repro.scenarios import paper_scenario
from repro.schedulers.lookahead import LookaheadPolicy
from repro.simulation.trace import Scenario

__all__ = ["Theorem1Result", "run", "main"]


@dataclass(frozen=True)
class Theorem1Result:
    """Bound checks for a V sweep against the T-step lookahead policy."""

    v_values: tuple
    delta: float
    lookahead: int
    lookahead_cost: float
    grefar_costs: tuple
    cost_bounds: tuple  # lookahead_cost + (B + D(T-1)) / V
    max_queues: tuple
    queue_bounds: tuple  # V * C3 / delta
    queue_bound_holds: bool
    cost_bound_holds: bool


def run(
    horizon: int = 240,
    lookahead: int = 24,
    seed: int = 0,
    v_values: Sequence[float] = (1.0, 2.5, 5.0, 10.0, 20.0),
    scenario: Scenario | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> Theorem1Result:
    """Verify both Theorem 1 bounds on one trace."""
    if scenario is None:
        scenario = paper_scenario(horizon=horizon, seed=seed)
    else:
        horizon = scenario.horizon
    if horizon % lookahead != 0:
        raise ValueError(
            f"horizon {horizon} must be a multiple of lookahead {lookahead}"
        )
    cluster = scenario.cluster

    slack = check_slackness(cluster, scenario.arrivals, scenario.availability)
    if not slack.feasible:
        raise RuntimeError(
            "scenario violates the slackness conditions; Theorem 1 does not apply"
        )
    delta = slack.max_delta

    constants = TheoremConstants.from_scenario(
        cluster,
        max_arrivals=scenario.arrivals.max(axis=0),
        price_cap=float(scenario.prices.max()),
        beta=0.0,
    )

    policy = LookaheadPolicy(
        cluster,
        scenario.arrivals,
        scenario.availability,
        scenario.prices,
        lookahead=lookahead,
        beta=0.0,
    )
    lookahead_cost = policy.solve().mean_cost

    queue_bounds = [constants.queue_bound(v, delta) for v in v_values]
    # With REPRO_CONTRACTS=1 each spec's Theorem 1a bound is asserted
    # live at every slot instead of only on the run's final maximum.
    specs = [
        RunSpec(
            scenario=None,
            scheduler="grefar",
            scheduler_kwargs={"v": float(v), "beta": 0.0},
            queue_bound=float(bound) if np.isfinite(bound) else None,
        )
        for v, bound in zip(v_values, queue_bounds)
    ]
    results = run_many(
        specs,
        jobs=jobs,
        cache=default_cache() if use_cache else None,
        scenario=scenario,
    )
    grefar_costs = [r.summary.avg_combined_cost for r in results]
    max_queues = [r.summary.max_queue_length for r in results]
    cost_bounds = [
        lookahead_cost + constants.cost_gap(v, lookahead) for v in v_values
    ]

    queue_ok = all(q <= b + 1e-6 for q, b in zip(max_queues, queue_bounds))
    cost_ok = all(g <= b + 1e-6 for g, b in zip(grefar_costs, cost_bounds))
    return Theorem1Result(
        v_values=tuple(v_values),
        delta=delta,
        lookahead=lookahead,
        lookahead_cost=lookahead_cost,
        grefar_costs=tuple(grefar_costs),
        cost_bounds=tuple(cost_bounds),
        max_queues=tuple(max_queues),
        queue_bounds=tuple(queue_bounds),
        queue_bound_holds=queue_ok,
        cost_bound_holds=cost_ok,
    )


def main(
    horizon: int = 240,
    lookahead: int = 24,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
) -> Theorem1Result:
    """Run and print the bound checks per V."""
    result = run(
        horizon=horizon, lookahead=lookahead, seed=seed, jobs=jobs, use_cache=use_cache
    )
    rows = [
        (
            f"V={v:g}",
            result.grefar_costs[i],
            result.cost_bounds[i],
            result.max_queues[i],
            result.queue_bounds[i],
        )
        for i, v in enumerate(result.v_values)
    ]
    print(
        format_table(
            ["", "GreFar cost", "Cost bound (24)", "Max queue", "Queue bound (23)"],
            rows,
            title=(
                f"Theorem 1 checks: T={result.lookahead}-step lookahead cost "
                f"{result.lookahead_cost:.3f}, delta={result.delta:.2f}"
            ),
        )
    )
    print(f"\nqueue bound holds: {result.queue_bound_holds}; "
          f"cost bound holds: {result.cost_bound_holds}")
    return result


if __name__ == "__main__":
    main()
