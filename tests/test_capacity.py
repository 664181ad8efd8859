"""Unit + property tests for the cheapest-first supply walk.

``supply_matrix`` lays out each site's work capacity by server class,
cheapest work first; ``busy_counts`` fills it cheapest-first.  The
minimum power ``P_i(c)`` of a site is the power of those busy counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.pricing import LinearPricing, TieredPricing
from repro.model.state import ClusterState
from repro.optimize.slot_problem import SlotServiceProblem, busy_counts, supply_matrix
from repro.scenarios import paper_cluster, small_cluster


def _supply(availability):
    cluster = small_cluster()
    return cluster, supply_matrix(cluster, np.asarray(availability, dtype=float))


def _site_busy(cluster, supply, site, load):
    loads = np.zeros(supply.shape[0])
    loads[site] = load
    return busy_counts(cluster, supply, loads)[site]


def _min_power(cluster, supply, site, load):
    return float(_site_busy(cluster, supply, site, load) @ cluster.active_powers)


class TestOrdering:
    def test_cheapest_class_first(self):
        # "efficient": 0.5/0.8 = 0.625 per work; "fast": 1.0 per work.
        cluster = small_cluster()
        assert cluster.class_order[0] == 1  # efficient first
        unit_powers = (cluster.active_powers / cluster.speeds)[cluster.class_order]
        assert unit_powers[0] == pytest.approx(0.625)
        assert unit_powers[1] == pytest.approx(1.0)

    def test_total_capacity(self):
        _, supply = _supply([[10, 10], [5, 0]])
        totals = supply.sum(axis=1)
        assert totals[0] == pytest.approx(10 * 1.0 + 10 * 0.8)
        assert totals[1] == pytest.approx(5.0)


class TestMinPower:
    def test_zero_capacity_zero_power(self):
        cluster, supply = _supply([[10, 10], [10, 10]])
        assert _min_power(cluster, supply, 0, 0.0) == pytest.approx(0.0)

    def test_fills_cheapest_first(self):
        cluster, supply = _supply([[10, 10], [10, 10]])
        # 4 units of work fit entirely on efficient servers (8 capacity).
        assert _min_power(cluster, supply, 0, 4.0) == pytest.approx(4.0 * 0.625)

    def test_spills_to_next_class(self):
        cluster, supply = _supply([[10, 10], [10, 10]])
        # 10 units: 8 on efficient (0.625/w), 2 on fast (1.0/w).
        assert _min_power(cluster, supply, 0, 10.0) == pytest.approx(8 * 0.625 + 2 * 1.0)

    def test_rejects_over_capacity(self):
        cluster, supply = _supply([[10, 10], [10, 10]])
        with pytest.raises(ValueError, match="exceeds site total"):
            _min_power(cluster, supply, 0, 100.0)

    def test_rejects_negative(self):
        cluster, supply = _supply([[10, 10], [10, 10]])
        with pytest.raises(ValueError, match="non-negative"):
            _min_power(cluster, supply, 0, -1.0)


class TestBusyCounts:
    def test_busy_counts_achieve_capacity_and_power(self):
        cluster, supply = _supply([[10, 10], [10, 10]])
        speeds = cluster.speeds
        powers = cluster.active_powers
        # (load, power): efficient servers (0.625 per work, 8 work) first.
        for cap, power in [(0.0, 0.0), (3.0, 1.875), (8.0, 5.0), (12.5, 9.5), (18.0, 15.0)]:
            busy = _site_busy(cluster, supply, 0, cap)
            assert float(busy @ speeds) == pytest.approx(cap)
            assert float(busy @ powers) == pytest.approx(power)

    def test_busy_counts_respect_availability(self):
        cluster, supply = _supply([[3, 2], [10, 10]])
        busy = busy_counts(cluster, supply, supply.sum(axis=1))
        np.testing.assert_array_less(busy, np.array([[3, 2], [10, 10]]) + 1e-9)


class TestSubgradient:
    def test_marginal_segments_skip_empty(self):
        cluster = small_cluster()
        problem = SlotServiceProblem(
            cluster=cluster,
            state=ClusterState(np.array([[10.0, 0.0], [10.0, 10.0]]), [1.0, 1.0]),
            queue_weights=np.zeros((2, 2)),
            h_upper=np.zeros((2, 2)),
            v=1.0,
        )
        segments = problem.marginal_cost_segments(0)
        assert len(segments) == 1
        assert segments[0][1] == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10), min_size=2, max_size=2),
    st.floats(min_value=0.0, max_value=18.0),
)
def test_min_power_is_convex_and_increasing(avail, cap):
    cluster, supply = _supply([avail, [1, 1]])
    cap = min(cap, float(supply[0].sum()))
    mid = cap / 2
    full = _min_power(cluster, supply, 0, cap)
    half = _min_power(cluster, supply, 0, mid)
    # Increasing.
    assert full >= half - 1e-9
    # Midpoint convexity: P(c/2) <= (P(0) + P(c)) / 2.
    assert half <= 0.5 * full + 1e-9


def _reference_busy(cluster, availability, loads):
    """The per-site cheapest-first loop ``busy_counts`` vectorizes over sites."""
    unit = cluster.active_powers / cluster.speeds
    order = np.argsort(unit, kind="stable")
    busy = np.zeros((len(loads), cluster.num_server_classes))
    for i, load in enumerate(loads):
        caps = availability[i, order] * cluster.speeds[order]
        remaining = min(max(float(load), 0.0), float(caps.sum()))
        for k, cap in zip(order, caps):
            take = min(cap, remaining)
            if take > 1e-12:
                busy[i, k] = take / cluster.speeds[k]
            remaining -= take
            if remaining <= 1e-12:
                break
    return busy


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=1.0),
    st.booleans(),
)
def test_busy_counts_match_per_site_walk(seed, fill, paper):
    """Same arithmetic in the same order: equal to the last bit."""
    cluster = paper_cluster() if paper else small_cluster()
    rng = np.random.default_rng(seed)
    availability = np.stack(
        [np.floor(dc.max_servers * rng.uniform(0.0, 1.0)) for dc in cluster.datacenters]
    )
    supply = supply_matrix(cluster, availability)
    loads = fill * rng.uniform(0.0, 1.0, size=cluster.num_datacenters) * supply.sum(axis=1)
    expected = _reference_busy(cluster, availability, loads)
    np.testing.assert_array_equal(busy_counts(cluster, supply, loads), expected)


def _reference_energy_cost(problem, h):
    """Per-site minimum power summed as ``work * p_k / s_k``, cheapest first.

    The slow reference for ``energy_cost``: it walks each site's classes
    in order of energy per work and charges each stretch of work at that
    class's unit power, then prices the site power.
    """
    cluster = problem.cluster
    unit = cluster.active_powers / cluster.speeds
    order = np.argsort(unit, kind="stable")
    total = 0.0
    for i, load in enumerate(h @ cluster.demands):
        caps = problem.state.availability[i, order] * cluster.speeds[order]
        remaining = min(float(load), float(caps.sum()))
        power = 0.0
        for cap, unit_power in zip(caps, unit[order]):
            take = min(cap, remaining)
            power += take * unit_power
            remaining -= take
            if remaining <= 1e-12:
                break
        total += problem.pricing.total_cost(power, float(problem.state.prices[i]))
    return total


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=1.0),
    st.booleans(),
    st.booleans(),
)
def test_energy_cost_matches_min_power_reference(seed, fill, paper, tiered):
    """``energy_cost`` prices ``busy_for(h) @ p``; it agrees with the
    per-site min-power walk to 1e-9 relative (summation order only)."""
    cluster = paper_cluster() if paper else small_cluster()
    rng = np.random.default_rng(seed)
    availability = np.stack(
        [np.floor(dc.max_servers * rng.uniform(0.0, 1.0)) for dc in cluster.datacenters]
    )
    n, j = cluster.num_datacenters, cluster.num_job_types
    problem = SlotServiceProblem(
        cluster=cluster,
        state=ClusterState(availability, rng.uniform(0.05, 1.0, size=n)),
        queue_weights=np.zeros((n, j)),
        h_upper=np.full((n, j), np.inf),
        v=1.0,
        pricing=(
            TieredPricing(boundaries=(3.0, 8.0), multipliers=(1.0, 2.0, 5.0))
            if tiered
            else LinearPricing()
        ),
    )
    h = problem.clip_feasible(
        fill * rng.uniform(0.0, 1.0, size=(n, j)) * problem.site_capacities()[:, None]
    )
    expected = _reference_energy_cost(problem, h)
    assert problem.energy_cost(h) == pytest.approx(expected, rel=1e-9, abs=1e-12)
