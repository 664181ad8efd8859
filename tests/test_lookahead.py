"""Tests for the T-step lookahead policy (Theorem 1's comparator)."""

import numpy as np
import pytest

from repro.fairness import JainFairness
from repro.obs.registry import stats_registry
from repro.schedulers.lookahead import LookaheadPolicy
from repro.scenarios import small_scenario
from tests.oracles.slsqp import solve_frame_slsqp


@pytest.fixture(scope="module")
def scn():
    return small_scenario(horizon=48, seed=5)


def _policy(scn, lookahead, beta=0.0):
    return LookaheadPolicy(
        scn.cluster,
        scn.arrivals,
        scn.availability,
        scn.prices,
        lookahead=lookahead,
        beta=beta,
    )


class TestConstruction:
    def test_rejects_bad_horizon_multiple(self, scn):
        with pytest.raises(ValueError, match="multiple"):
            _policy(scn, lookahead=7)

    def test_rejects_bad_lookahead(self, scn):
        with pytest.raises(ValueError):
            _policy(scn, lookahead=0)

    def test_rejects_negative_beta(self, scn):
        with pytest.raises(ValueError):
            _policy(scn, lookahead=12, beta=-1.0)

    def test_rejects_shape_mismatch(self, scn):
        with pytest.raises(ValueError):
            LookaheadPolicy(
                scn.cluster,
                scn.arrivals[:, :1],
                scn.availability,
                scn.prices,
                lookahead=12,
            )


class TestSolutionFeasibility:
    def test_decisions_respect_capacity(self, scn):
        sol = _policy(scn, lookahead=12).solve()
        cluster = scn.cluster
        for t in range(scn.horizon):
            load = sol.service[t] @ cluster.demands
            cap = sol.busy[t] @ cluster.speeds
            assert np.all(load <= cap + 1e-6)
            assert np.all(sol.busy[t] <= scn.availability[t] + 1e-6)

    def test_aggregate_service_covers_arrivals(self, scn):
        lookahead = 12
        sol = _policy(scn, lookahead=lookahead).solve()
        frames = scn.horizon // lookahead
        for r in range(frames):
            sl = slice(r * lookahead, (r + 1) * lookahead)
            served = sol.service[sl].sum(axis=(0, 1))
            arrived = scn.arrivals[sl].sum(axis=0)
            assert np.all(served >= arrived - 1e-6)

    def test_service_respects_eligibility(self, scn):
        sol = _policy(scn, lookahead=12).solve()
        elig = scn.cluster.eligibility_matrix()
        assert np.all(sol.service[:, ~elig] <= 1e-9)


class TestOptimality:
    def test_mean_cost_is_frame_average(self, scn):
        sol = _policy(scn, lookahead=12).solve()
        assert sol.mean_cost == pytest.approx(float(sol.frame_costs.mean()))

    def test_longer_frames_cannot_cost_more(self, scn):
        """More lookahead = more flexibility = weakly lower optimal cost.

        (Exact when the frame boundaries nest, as with 12 | 24 | 48.)
        """
        costs = {
            t: _policy(scn, lookahead=t).solve().mean_cost for t in (12, 24, 48)
        }
        assert costs[24] <= costs[12] + 1e-6
        assert costs[48] <= costs[24] + 1e-6

    def test_costs_are_nonnegative(self, scn):
        sol = _policy(scn, lookahead=12).solve()
        assert np.all(sol.frame_costs >= -1e-9)

    def test_beta_zero_is_pure_energy(self, scn):
        """The beta = 0 frame cost equals the energy of its decisions."""
        sol = _policy(scn, lookahead=12).solve()
        cluster = scn.cluster
        total = 0.0
        for t in range(scn.horizon):
            total += float(scn.prices[t] @ (sol.busy[t] @ cluster.active_powers))
        assert sol.mean_cost * (scn.horizon // 12) == pytest.approx(
            total / 12, rel=1e-6
        )


class TestConvexFrames:
    def test_beta_positive_runs_and_is_feasible(self, scn):
        sol = _policy(scn, lookahead=12, beta=50.0).solve()
        cluster = scn.cluster
        for t in range(scn.horizon):
            load = sol.service[t] @ cluster.demands
            cap = sol.busy[t] @ cluster.speeds
            assert np.all(load <= cap + 1e-5)

    def test_beta_increases_combined_objective_vs_energy_only(self, scn):
        """With beta > 0 the optimal *energy* can only go up (fairness
        is traded against it), while the combined cost stays coherent."""
        base = _policy(scn, lookahead=12).solve()
        fair = _policy(scn, lookahead=12, beta=50.0).solve()
        cluster = scn.cluster

        def energy(sol):
            return sum(
                float(scn.prices[t] @ (sol.busy[t] @ cluster.active_powers))
                for t in range(scn.horizon)
            )

        assert energy(fair) >= energy(base) - 1e-6

    def test_frames_match_slsqp_within_certified_gap(self, scn):
        """Frank-Wolfe is never worse than the SLSQP reference or its own
        beta = 0 LP start, and closes its gap without hitting the cap."""
        lookahead = 12
        policy = _policy(scn, lookahead=lookahead, beta=50.0)
        stats = stats_registry()
        capped = stats.counter("solve.qp.capped")
        uncertified = stats.counter("solve.qp.uncertified")
        sol = policy.solve()
        assert stats.counter("solve.qp.capped") == capped
        assert stats.counter("solve.qp.uncertified") == uncertified
        for r, (cost, gap) in enumerate(zip(sol.frame_costs, sol.frame_gaps)):
            start_cost, slsqp_cost = solve_frame_slsqp(
                policy, r * lookahead, (r + 1) * lookahead
            )
            assert cost <= slsqp_cost + 1e-9 * max(1.0, abs(cost))
            assert cost <= start_cost
            assert 0.0 <= gap <= 1e-9 * max(1.0, abs(cost))

    def test_jain_frames_count_as_uncertified(self, scn):
        """Jain's index is not concave: each beta > 0 frame's gap through
        it certifies nothing and counts once."""
        stats = stats_registry()
        before = stats.counter("solve.qp.uncertified")
        LookaheadPolicy(
            scn.cluster, scn.arrivals[:2], scn.availability[:2], scn.prices[:2],
            lookahead=1, beta=50.0, fairness=JainFairness(),
        ).solve()
        assert stats.counter("solve.qp.uncertified") - before == 2

    def test_beta_zero_frames_have_no_gap(self, scn):
        sol = _policy(scn, lookahead=12).solve()
        np.testing.assert_array_equal(sol.frame_gaps, 0.0)

    def test_slot_without_capacity_serves_nothing(self, scn):
        """A full outage inside a beta > 0 frame: f is undefined there, so
        the slot takes no part in the fairness term and serves nothing."""
        availability = scn.availability[:12].copy()
        availability[3] = 0.0
        sol = LookaheadPolicy(
            scn.cluster, scn.arrivals[:12], availability, scn.prices[:12],
            lookahead=12, beta=50.0,
        ).solve()
        assert np.all(sol.service[3] == 0.0)
        assert sol.frame_gaps[0] <= 1e-9 * max(1.0, abs(sol.frame_costs[0]))
