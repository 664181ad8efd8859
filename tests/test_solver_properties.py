"""Deep property tests on the solver machinery.

* The greedy solution matches brute-force grid search on tiny problems.
* The merged marginal-cost curve prices exactly what ``energy_cost``
  charges (curve/evaluator consistency).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.cluster import Cluster
from repro.model.datacenter import DataCenter
from repro.model.job import Account, JobType
from repro.model.pricing import TieredPricing
from repro.model.server import ServerClass
from repro.model.state import ClusterState
from repro.optimize import SlotServiceProblem, solve_greedy


def _tiny_cluster(demand=1.0):
    return Cluster(
        server_classes=(ServerClass(name="s", speed=1.0, active_power=1.0),),
        datacenters=(DataCenter(name="d", max_servers=[6]),),
        job_types=(
            JobType(name="a", demand=demand, eligible_dcs=(0,), account=0,
                    max_arrivals=10, max_route=10, max_service=10.0),
            JobType(name="b", demand=2 * demand, eligible_dcs=(0,), account=0,
                    max_arrivals=10, max_route=10, max_service=10.0),
        ),
        accounts=(Account(name="m", fair_share=1.0),),
    )


class TestGreedyVsBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=0.05, max_value=1.5),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_greedy_optimal_on_grid(self, q0, q1, price, v):
        """Exhaustive grid search cannot beat the greedy solution."""
        cluster = _tiny_cluster()
        state = ClusterState(np.array([[6.0]]), [price])
        problem = SlotServiceProblem(
            cluster=cluster,
            state=state,
            queue_weights=np.array([[q0, q1]]),
            h_upper=np.array([[4.0, 3.0]]),
            v=v,
        )
        h_greedy = solve_greedy(problem)
        best = problem.objective(h_greedy)
        grid = np.linspace(0, 4, 9)
        for h0 in grid:
            for h1 in np.linspace(0, 3, 7):
                h = np.array([[h0, h1]])
                if not problem.is_feasible(h):
                    continue
                assert best <= problem.objective(h) + 1e-7

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_greedy_optimal_on_grid_with_tiers(self, q0, q1, price):
        """Same brute-force check under tiered pricing."""
        cluster = _tiny_cluster()
        state = ClusterState(np.array([[6.0]]), [price])
        problem = SlotServiceProblem(
            cluster=cluster,
            state=state,
            queue_weights=np.array([[q0, q1]]),
            h_upper=np.array([[4.0, 3.0]]),
            v=3.0,
            pricing=TieredPricing(boundaries=(2.0,), multipliers=(1.0, 3.0)),
        )
        h_greedy = solve_greedy(problem)
        best = problem.objective(h_greedy)
        for h0 in np.linspace(0, 4, 9):
            for h1 in np.linspace(0, 3, 7):
                h = np.array([[h0, h1]])
                if not problem.is_feasible(h):
                    continue
                assert best <= problem.objective(h) + 1e-7


class TestSegmentConsistency:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_segments_integrate_to_energy_cost(self, seed, load_fraction):
        """Summing the merged marginal-cost curve up to a load equals the
        evaluator's energy cost at that load (single-type probe)."""
        cluster = _tiny_cluster()
        rng = np.random.default_rng(seed)
        state = ClusterState(np.array([[6.0]]), [float(rng.uniform(0.1, 1.0))])
        pricing = TieredPricing(boundaries=(2.5,), multipliers=(1.0, 2.0))
        problem = SlotServiceProblem(
            cluster=cluster,
            state=state,
            queue_weights=np.ones((1, 2)),
            h_upper=np.array([[10.0, 0.0]]),
            v=1.0,
            pricing=pricing,
        )
        load = load_fraction * problem.site_capacity(0)
        # Integrate the curve up to `load`.
        integrated = 0.0
        remaining = load
        for width, unit_cost in problem.marginal_cost_segments(0):
            take = min(width, remaining)
            integrated += take * unit_cost
            remaining -= take
            if remaining <= 1e-12:
                break
        h = np.array([[load / cluster.demands[0], 0.0]])
        assert problem.energy_cost(h) == pytest.approx(integrated, abs=1e-7)
