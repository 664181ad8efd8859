"""Unit + property tests for the fairness functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grefar import GreFarScheduler
from repro.fairness import (
    AlphaFairness,
    JainFairness,
    MaxMinFairness,
    QuadraticFairness,
)
from repro.obs.registry import stats_registry
from repro.scenarios import small_scenario
from repro.simulation.simulator import Simulator

SHARES = np.array([0.4, 0.3, 0.15, 0.15])
R = 100.0

ALL_FUNCTIONS = [
    QuadraticFairness(),
    AlphaFairness(alpha=0.5),
    AlphaFairness(alpha=1.0),
    AlphaFairness(alpha=2.0),
    JainFairness(),
    MaxMinFairness(),
]


@st.composite
def allocations(draw):
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=R, allow_nan=False),
            min_size=4,
            max_size=4,
        )
    )
    return np.array(values)


class TestQuadratic:
    def test_ideal_allocation_scores_zero(self):
        f = QuadraticFairness()
        assert f.score(SHARES * R, R, SHARES) == pytest.approx(0.0)

    def test_idle_scores_negative_sum_of_squares(self):
        f = QuadraticFairness()
        assert f.score(np.zeros(4), R, SHARES) == pytest.approx(-np.sum(SHARES**2))

    def test_score_is_nonpositive(self):
        f = QuadraticFairness()
        rng = np.random.default_rng(0)
        for _ in range(50):
            alloc = rng.uniform(0, R, size=4)
            assert f.score(alloc, R, SHARES) <= 1e-12

    def test_gradient_matches_numerical(self):
        f = QuadraticFairness()
        alloc = np.array([10.0, 20.0, 5.0, 1.0])
        grad = f.gradient(alloc, R, SHARES)
        eps = 1e-5
        for m in range(4):
            bump = alloc.copy()
            bump[m] += eps
            numerical = (f.score(bump, R, SHARES) - f.score(alloc, R, SHARES)) / eps
            assert grad[m] == pytest.approx(numerical, abs=1e-6)

    def test_rejects_bad_inputs(self):
        f = QuadraticFairness()
        with pytest.raises(ValueError):
            f.score(np.zeros(3), R, SHARES)  # shape mismatch
        with pytest.raises(ValueError):
            f.score(np.zeros(4), 0.0, SHARES)  # zero resource
        with pytest.raises(ValueError):
            f.score(-np.ones(4), R, SHARES)  # negative allocation


class TestAlphaFair:
    def test_log_case_at_alpha_one(self):
        f = AlphaFairness(alpha=1.0, epsilon=1e-3)
        alloc = SHARES * R
        expected = np.sum(SHARES * np.log(SHARES + 1e-3))
        assert f.score(alloc, R, SHARES) == pytest.approx(expected)

    def test_monotone_in_allocation(self):
        f = AlphaFairness(alpha=2.0)
        low = f.score(np.array([1.0, 1, 1, 1]), R, SHARES)
        high = f.score(np.array([10.0, 10, 10, 10]), R, SHARES)
        assert high > low

    def test_gradient_positive(self):
        f = AlphaFairness(alpha=1.0)
        grad = f.gradient(np.array([5.0, 5, 5, 5]), R, SHARES)
        assert np.all(grad > 0)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            AlphaFairness(alpha=-1.0)

    def test_rejects_zero_epsilon(self):
        with pytest.raises(ValueError):
            AlphaFairness(epsilon=0.0)


class TestJain:
    def test_perfectly_proportional_scores_one(self):
        f = JainFairness()
        assert f.score(SHARES * 50.0, R, SHARES) == pytest.approx(1.0)

    def test_single_account_hog_scores_one_over_m(self):
        f = JainFairness()
        alloc = np.array([50.0, 0.0, 0.0, 0.0])
        assert f.score(alloc, R, SHARES) == pytest.approx(0.25)

    def test_zero_allocation_scores_one_over_m(self):
        f = JainFairness()
        assert f.score(np.zeros(4), R, SHARES) == pytest.approx(0.25)

    def test_range(self):
        f = JainFairness()
        rng = np.random.default_rng(1)
        for _ in range(50):
            alloc = rng.uniform(0, R, size=4)
            score = f.score(alloc, R, SHARES)
            assert 0.0 < score <= 1.0 + 1e-12


class TestMaxMin:
    def test_proportional_ratio(self):
        f = MaxMinFairness()
        assert f.score(SHARES * R, R, SHARES) == pytest.approx(1.0)

    def test_starved_account_scores_zero(self):
        f = MaxMinFairness()
        alloc = np.array([40.0, 30.0, 15.0, 0.0])
        assert f.score(alloc, R, SHARES) == pytest.approx(0.0)

    def test_zero_share_accounts_ignored(self):
        f = MaxMinFairness()
        shares = np.array([1.0, 0.0])
        alloc = np.array([50.0, 0.0])
        assert f.score(alloc, 100.0, shares) == pytest.approx(0.5)

    def test_subgradient_on_worst_account(self):
        f = MaxMinFairness()
        alloc = np.array([40.0, 30.0, 1.0, 15.0])
        grad = f.gradient(alloc, R, SHARES)
        assert grad[2] > 0
        assert grad[0] == grad[1] == grad[3] == 0.0


class TestConcavityProperties:
    @settings(max_examples=40, deadline=None)
    @given(allocations(), allocations(), st.floats(min_value=0.0, max_value=1.0))
    def test_concavity_along_segments(self, a, b, lam):
        """f(lam a + (1-lam) b) >= lam f(a) + (1-lam) f(b) for concave scores."""
        for fn in [QuadraticFairness(), AlphaFairness(alpha=1.0), MaxMinFairness()]:
            mid = lam * a + (1 - lam) * b
            lhs = fn.score(mid, R, SHARES)
            rhs = lam * fn.score(a, R, SHARES) + (1 - lam) * fn.score(b, R, SHARES)
            assert lhs >= rhs - 1e-8

    @settings(max_examples=40, deadline=None)
    @given(allocations())
    def test_ideal_allocation_is_quadratic_maximizer(self, alloc):
        fn = QuadraticFairness()
        ideal = fn.ideal_allocation(R, SHARES)
        assert fn.score(ideal, R, SHARES) >= fn.score(alloc, R, SHARES) - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(allocations())
    def test_gradients_are_finite(self, alloc):
        for fn in ALL_FUNCTIONS:
            grad = fn.gradient(alloc, R, SHARES)
            assert np.all(np.isfinite(grad))


class TestUncertifiedSolves:
    def test_only_jain_is_not_concave(self):
        assert [fn.concave for fn in ALL_FUNCTIONS] == [True, True, True, True, False, True]

    @pytest.mark.parametrize("fairness, per_slot", [(JainFairness(), 1), (QuadraticFairness(), 0)])
    def test_beta_run_counts_each_jain_solve(self, fairness, per_slot):
        """A Frank-Wolfe gap through Jain's index certifies nothing, so
        every lit beta > 0 slot counts as ``solve.qp.uncertified``."""
        scenario = small_scenario(horizon=30, seed=2)
        cluster = scenario.cluster
        assert all(scenario.state_at(t).total_resource(cluster) > 0 for t in range(30))
        stats = stats_registry()
        before = stats.counter("solve.qp.uncertified")
        scheduler = GreFarScheduler(cluster, v=5.0, beta=50.0, fairness=fairness)
        Simulator(scenario, scheduler).run()
        assert stats.counter("solve.qp.uncertified") - before == 30 * per_slot
