"""Tests for the scenario presets (the paper's Table I setup)."""

import numpy as np
import pytest

from repro.core.slackness import check_slackness
from repro.scenarios import (
    PAPER_FAIR_SHARES,
    PAPER_PRICE_MEANS,
    paper_cluster,
    paper_scenario,
    small_cluster,
    small_scenario,
)
from repro.workloads.availability import AvailabilityModel
from repro.workloads.cosmos import CosmosWorkload
from tests.oracles.scenario_loops import admission_control_loop, availability_generate_loop


class TestPaperCluster:
    def test_dimensions(self):
        c = paper_cluster()
        assert c.num_datacenters == 3
        assert c.num_server_classes == 3
        assert c.num_accounts == 4
        assert c.num_job_types == 8

    def test_table1_server_parameters(self):
        c = paper_cluster()
        np.testing.assert_allclose(c.speeds, [1.00, 0.75, 1.15])
        np.testing.assert_allclose(c.active_powers, [1.00, 0.60, 1.20])

    def test_one_server_class_per_site(self):
        c = paper_cluster()
        for i, dc in enumerate(c.datacenters):
            nonzero = np.flatnonzero(dc.max_servers)
            np.testing.assert_array_equal(nonzero, [i])

    def test_fair_shares(self):
        c = paper_cluster()
        np.testing.assert_allclose(c.fair_shares, PAPER_FAIR_SHARES)

    def test_energy_cost_ordering(self):
        """Table I: DC#2 cheapest per unit work, DC#3 most expensive."""
        c = paper_cluster()
        unit = [
            PAPER_PRICE_MEANS[i] * c.server_classes[i].energy_per_unit_work
            for i in range(3)
        ]
        assert unit[1] < unit[0] < unit[2]

    def test_custom_job_demand(self):
        c = paper_cluster(job_demand=4.0)
        assert np.isclose(c.demands.mean(), 4.0, rtol=0.01)

    def test_rejects_bad_server_counts(self):
        with pytest.raises(ValueError):
            paper_cluster(server_counts=(10, 20))


class TestPaperScenario:
    def test_shapes(self):
        scn = paper_scenario(horizon=50, seed=0)
        assert scn.arrivals.shape == (50, 8)
        assert scn.availability.shape == (50, 3, 3)
        assert scn.prices.shape == (50, 3)

    def test_price_means_near_table1(self):
        scn = paper_scenario(horizon=2000, seed=0)
        means = scn.prices.mean(axis=0)
        np.testing.assert_allclose(means, PAPER_PRICE_MEANS, rtol=0.25)
        assert means[0] < means[1] < means[2]

    def test_mean_work_near_target(self):
        scn = paper_scenario(horizon=2000, seed=0)
        assert scn.arrival_work().mean() == pytest.approx(95.0, rel=0.2)

    def test_slackness_holds(self):
        scn = paper_scenario(horizon=500, seed=0)
        report = check_slackness(scn.cluster, scn.arrivals, scn.availability)
        assert report.feasible
        assert report.max_delta > 0

    def test_slackness_holds_other_seeds(self):
        for seed in (1, 2):
            scn = paper_scenario(horizon=300, seed=seed)
            report = check_slackness(scn.cluster, scn.arrivals, scn.availability)
            assert report.feasible, f"seed {seed} violates slackness"

    def test_seed_determinism(self):
        a = paper_scenario(horizon=50, seed=5)
        b = paper_scenario(horizon=50, seed=5)
        np.testing.assert_array_equal(a.arrivals, b.arrivals)


class TestSmallPresets:
    def test_small_cluster_valid(self):
        c = small_cluster()
        assert c.num_datacenters == 2
        assert c.num_accounts == 2

    def test_small_scenario_runs(self):
        scn = small_scenario(horizon=30, seed=1)
        assert scn.horizon == 30

    def test_small_scenario_slackness(self):
        scn = small_scenario(horizon=200, seed=1)
        report = check_slackness(scn.cluster, scn.arrivals, scn.availability)
        assert report.feasible


class TestGeneratorsMatchLoopOracles:
    """The vectorised generator passes give the scenario their loops gave."""

    @pytest.mark.parametrize("seed", [1, 3, 7])
    @pytest.mark.parametrize(
        "build", [paper_scenario, small_scenario], ids=["paper", "small"]
    )
    def test_scenario_equals_loop_built(self, build, seed, monkeypatch):
        fast = build(horizon=2000, seed=seed)
        thinned = []

        def admission_control(workload, arrivals, rng):
            before = arrivals.copy()
            admission_control_loop(workload, arrivals, rng)
            thinned.append(not np.array_equal(before, arrivals))

        monkeypatch.setattr(CosmosWorkload, "_admission_control", admission_control)
        monkeypatch.setattr(AvailabilityModel, "generate", availability_generate_loop)
        assert build(horizon=2000, seed=seed) == fast
        # The cap binds, so the comparison covers the thinning draws.
        assert thinned == [True]

    def test_continuous_availability_equals_loop(self):
        model = AvailabilityModel(small_cluster(), integer_counts=False)
        fast = model.generate(300, np.random.default_rng(4))
        slow = availability_generate_loop(model, 300, np.random.default_rng(4))
        assert fast.tobytes() == slow.tobytes()
