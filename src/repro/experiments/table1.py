"""Table I: server configuration and electricity price per data center.

Reproduces the four columns of Table I — normalized speed, power,
average electricity price and the derived *average energy cost per unit
work* (``price * p_k / s_k``) — for the paper's three data centers.
Speed/power are configuration; the average price is measured from a
generated price trace so the whole pipeline is exercised.

Paper values: speeds 1.00/0.75/1.15, powers 1.00/0.60/1.20, average
prices 0.392/0.433/0.548, energy cost per unit work 0.392/0.346/0.572.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.runner.cache import default_cache
from repro.runner.engine import run_many
from repro.runner.spec import RunSpec, ScenarioSpec
from repro.scenarios import paper_cluster

__all__ = ["Table1Result", "run", "main"]

#: Table I reference values: (speed, power, avg price, cost per unit work).
PAPER_TABLE1 = (
    (1.00, 1.00, 0.392, 0.392),
    (0.75, 0.60, 0.433, 0.346),
    (1.15, 1.20, 0.548, 0.572),
)


@dataclass(frozen=True)
class Table1Result:
    """Measured Table I rows."""

    speeds: tuple
    powers: tuple
    avg_prices: tuple
    cost_per_unit_work: tuple

    def rows(self) -> list:
        """Rows in the paper's column order (one per data center)."""
        return [
            (
                f"#{i + 1}",
                self.speeds[i],
                self.powers[i],
                self.avg_prices[i],
                self.cost_per_unit_work[i],
            )
            for i in range(len(self.speeds))
        ]


def run(
    horizon: int = 2000,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = False,
) -> Table1Result:
    """Generate a price trace and compute the Table I rows.

    A scenario-only :class:`~repro.runner.RunSpec` (no scheduler):
    the runner materializes the trace and returns the per-site mean
    price, which is all the table needs beyond static configuration.
    """
    spec = RunSpec(
        scenario=ScenarioSpec(kind="paper", horizon=horizon, seed=seed),
        scheduler=None,
        collect=("scenario.price_mean",),
    )
    result = run_many(
        [spec], jobs=jobs, cache=default_cache() if use_cache else None
    )[0]
    price_means = result.series["scenario.price_mean"]

    cluster = paper_cluster()
    speeds = []
    powers = []
    prices = []
    costs = []
    for i in range(cluster.num_datacenters):
        # Each paper site houses exactly one server class (class i).
        server = cluster.server_classes[i]
        avg_price = float(price_means[i])
        speeds.append(server.speed)
        powers.append(server.active_power)
        prices.append(avg_price)
        costs.append(avg_price * server.energy_per_unit_work)
    return Table1Result(
        speeds=tuple(speeds),
        powers=tuple(powers),
        avg_prices=tuple(prices),
        cost_per_unit_work=tuple(costs),
    )


def main(
    horizon: int = 2000,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
) -> Table1Result:
    """Run and print Table I next to the paper's values."""
    result = run(horizon=horizon, seed=seed, jobs=jobs, use_cache=use_cache)
    rows = []
    for measured, reference in zip(result.rows(), PAPER_TABLE1):
        rows.append((*measured, *reference[2:]))
    print(
        format_table(
            ["DC", "Speed", "Power", "AvgPrice", "Cost/Work", "Paper AvgPrice", "Paper Cost/Work"],
            rows,
            title="Table I: server configuration and electricity price",
        )
    )
    return result


if __name__ == "__main__":
    main()
