"""Unit + property tests for the per-site supply curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.state import ClusterState
from repro.optimize.capacity import build_supply_curves
from repro.scenarios import small_cluster


def _curves(availability, prices=(0.4, 0.5)):
    cluster = small_cluster()
    state = ClusterState(np.asarray(availability, dtype=float), list(prices))
    return cluster, build_supply_curves(cluster, state)


class TestOrdering:
    def test_cheapest_class_first(self):
        # "efficient": 0.5/0.8 = 0.625 per work; "fast": 1.0 per work.
        _, curves = _curves([[10, 10], [10, 10]])
        curve = curves[0]
        assert curve.class_order[0] == 1  # efficient first
        assert curve.unit_powers[0] == pytest.approx(0.625)
        assert curve.unit_powers[1] == pytest.approx(1.0)

    def test_total_capacity(self):
        _, curves = _curves([[10, 10], [5, 0]])
        assert curves[0].total_capacity == pytest.approx(10 * 1.0 + 10 * 0.8)
        assert curves[1].total_capacity == pytest.approx(5.0)


class TestMinPower:
    def test_zero_capacity_zero_power(self):
        _, curves = _curves([[10, 10], [10, 10]])
        assert curves[0].min_power(0.0) == pytest.approx(0.0)

    def test_fills_cheapest_first(self):
        _, curves = _curves([[10, 10], [10, 10]])
        # 4 units of work fit entirely on efficient servers (8 capacity).
        assert curves[0].min_power(4.0) == pytest.approx(4.0 * 0.625)

    def test_spills_to_next_class(self):
        _, curves = _curves([[10, 10], [10, 10]])
        # 10 units: 8 on efficient (0.625/w), 2 on fast (1.0/w).
        assert curves[0].min_power(10.0) == pytest.approx(8 * 0.625 + 2 * 1.0)

    def test_rejects_over_capacity(self):
        _, curves = _curves([[10, 10], [10, 10]])
        with pytest.raises(ValueError):
            curves[0].min_power(100.0)

    def test_rejects_negative(self):
        _, curves = _curves([[10, 10], [10, 10]])
        with pytest.raises(ValueError):
            curves[0].min_power(-1.0)


class TestBusyCounts:
    def test_busy_counts_achieve_capacity_and_power(self):
        cluster, curves = _curves([[10, 10], [10, 10]])
        speeds = cluster.speeds
        powers = cluster.active_powers
        for cap in [0.0, 3.0, 8.0, 12.5, 18.0]:
            busy = curves[0].busy_counts(cap, 2, speeds)
            assert float(busy @ speeds) == pytest.approx(cap)
            assert float(busy @ powers) == pytest.approx(curves[0].min_power(cap))

    def test_busy_counts_respect_availability(self):
        cluster, curves = _curves([[3, 2], [10, 10]])
        busy = curves[0].busy_counts(curves[0].total_capacity, 2, cluster.speeds)
        assert busy[0] <= 3 + 1e-9
        assert busy[1] <= 2 + 1e-9


class TestSubgradient:
    def test_marginal_segments_skip_empty(self):
        _, curves = _curves([[10, 0], [10, 10]])
        segments = curves[0].marginal_segments()
        assert len(segments) == 1
        assert segments[0][1] == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10), min_size=2, max_size=2),
    st.floats(min_value=0.0, max_value=18.0),
)
def test_min_power_is_convex_and_increasing(avail, cap):
    _, curves = _curves([avail, [1, 1]])
    curve = curves[0]
    total = curve.total_capacity
    cap = min(cap, total)
    mid = cap / 2
    # Increasing.
    assert curve.min_power(cap) >= curve.min_power(mid) - 1e-9
    # Midpoint convexity: P(c/2) <= (P(0) + P(c)) / 2.
    assert curve.min_power(mid) <= 0.5 * curve.min_power(cap) + 1e-9
