"""Coverage for the remaining public seams not hit elsewhere."""

import numpy as np
import pytest

from repro.core.grefar import GreFarScheduler
from repro.model.action import Action
from repro.model.state import ClusterState
from repro.optimize.capacity import build_supply_curves
from repro.schedulers.base import route_greedily, service_upper_bounds
from repro.simulation.simulator import Simulator


class TestSupplyCurveErrors:
    def test_busy_counts_rejects_over_capacity(self, cluster, state):
        curve = build_supply_curves(cluster, state)[0]
        with pytest.raises(ValueError, match="exceeds site total"):
            curve.busy_counts(curve.total_capacity * 2, 2, cluster.speeds)

    def test_empty_site_curve(self, cluster):
        state = ClusterState(np.zeros((2, 2)), [0.4, 0.5])
        curve = build_supply_curves(cluster, state)[0]
        assert curve.total_capacity == 0.0
        assert curve.min_power(0.0) == 0.0
        assert curve.marginal_segments() == []


class TestRouteGreedilyPrefer:
    def test_prefer_overrides_backlog(self, cluster):
        front = np.array([2.0, 0.0])
        dc = np.array([[0.0, 0.0], [5.0, 0.0]])
        # Invert the preference: make site 1 look better despite backlog.
        prefer = np.array([[9.0, 0.0], [1.0, 0.0]])
        route = route_greedily(cluster, front, dc, prefer=prefer)
        assert route[1, 0] == pytest.approx(2.0)


class TestServiceUpperBounds:
    def test_literal_mode_ignores_queue_content(self, cluster, state):
        dc = np.zeros((2, 2))
        bounds = service_upper_bounds(cluster, state, dc, physical=False)
        # Without physical capping, bounds equal h_max (no parallelism caps).
        np.testing.assert_allclose(bounds, cluster.max_service_matrix())

    def test_physical_mode_caps_at_content(self, cluster, state):
        dc = np.full((2, 2), 1.5)
        bounds = service_upper_bounds(cluster, state, dc, physical=True)
        assert np.all(bounds <= 1.5 + 1e-9)


class TestGreFarSolverVariants:
    def test_qp_backend_at_beta_zero(self, scenario):
        scheduler = GreFarScheduler(scenario.cluster, v=5.0, solver="qp")
        result = Simulator(scenario, scheduler).run(15)
        greedy = Simulator(
            scenario, GreFarScheduler(scenario.cluster, v=5.0, solver="greedy")
        ).run(15)
        assert result.summary.avg_energy_cost == pytest.approx(
            greedy.summary.avg_energy_cost, rel=0.02
        )


class TestExperimentVariants:
    def test_fig3_custom_betas(self):
        from repro.experiments import fig3_beta

        result = fig3_beta.run(horizon=30, seed=0, beta_values=(0.0, 10.0, 50.0))
        assert len(result.final_fairness) == 3

    def test_theorem1_custom_vs(self):
        from repro.experiments import theorem1

        result = theorem1.run(horizon=48, lookahead=24, v_values=(3.0,))
        assert len(result.grefar_costs) == 1

    def test_table1_rows_structure(self):
        from repro.experiments import table1

        result = table1.run(horizon=50, seed=0)
        rows = result.rows()
        assert len(rows) == 3
        assert rows[0][0] == "#1"


class TestActionConstructionEdge:
    def test_tiny_negative_rounding_clipped(self, cluster):
        """Values within -1e-6 of zero (solver noise) are clipped, not
        rejected."""
        r = np.full((2, 2), -1e-9)
        a = Action(r, np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.all(a.route >= 0)

    def test_idle_energy_zero(self, cluster, state):
        assert Action.idle(cluster).energy_cost(cluster, state) == 0.0
