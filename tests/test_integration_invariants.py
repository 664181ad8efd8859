"""System-level invariants: Little's law, idle-power accounting, and
the empirical Theorem 1 queue bound on randomized slack scenarios and
on the paper scenario."""

import numpy as np
import pytest

from repro._contracts import queue_bound_observer
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import littles_law_delay
from repro.core.bounds import TheoremConstants
from repro.core.grefar import GreFarScheduler
from repro.core.objective import CostModel
from repro.core.slackness import check_slackness
from repro.model.cluster import Cluster
from repro.model.datacenter import DataCenter
from repro.model.job import Account, JobType
from repro.model.server import ServerClass
from repro.scenarios import paper_scenario, small_scenario
from repro.schedulers import AlwaysScheduler
from repro.simulation.simulator import Simulator
from repro.simulation.trace import Scenario


class TestLittlesLaw:
    def test_measured_delay_matches_littles_law(self):
        """Mean measured end-to-end delay ~ mean backlog / arrival rate."""
        scn = small_scenario(horizon=400, seed=8)
        result = Simulator(scn, GreFarScheduler(scn.cluster, v=20.0)).run()

        mean_backlog = float(np.mean(result.metrics.queue_total_series()))
        arrival_rate = result.summary.total_arrived_jobs / scn.horizon
        estimate = littles_law_delay(mean_backlog, arrival_rate)
        measured = result.summary.avg_total_delay
        # Little's law holds asymptotically; allow finite-horizon slack.
        assert measured == pytest.approx(estimate, rel=0.35)


class TestIdlePowerAccounting:
    def _cluster_with_idle(self):
        return Cluster(
            server_classes=(
                ServerClass(name="s", speed=1.0, active_power=1.0, idle_power=0.4),
            ),
            datacenters=(DataCenter(name="d", max_servers=[10]),),
            job_types=(
                JobType(name="j", demand=1.0, eligible_dcs=(0,), account=0),
            ),
            accounts=(Account(name="a", fair_share=1.0),),
        )

    def _scenario(self, cluster, horizon=20):
        rng = np.random.default_rng(2)
        return Scenario(
            cluster=cluster,
            arrivals=rng.integers(0, 3, size=(horizon, 1)).astype(float),
            availability=np.full((horizon, 1, 1), 10.0),
            prices=np.full((horizon, 1), 0.5),
        )

    def test_idle_energy_added(self):
        cluster = self._cluster_with_idle()
        scn = self._scenario(cluster)
        base = Simulator(
            scn, AlwaysScheduler(cluster), cost_model=CostModel()
        ).run()
        absolute = Simulator(
            scn,
            AlwaysScheduler(cluster),
            cost_model=CostModel(include_idle_power=True),
        ).run()
        # 10 servers x 0.4 idle x 0.5 price = 2.0 per slot, constant.
        extra = absolute.summary.avg_energy_cost - base.summary.avg_energy_cost
        assert extra == pytest.approx(2.0)

    def test_idle_accounting_preserves_rankings(self):
        """Adding idle power shifts every scheduler equally."""
        cluster = self._cluster_with_idle()
        scn = self._scenario(cluster, horizon=40)
        deltas = []
        for scheduler in (
            AlwaysScheduler(cluster),
            GreFarScheduler(cluster, v=10.0),
        ):
            base = Simulator(scn, scheduler, cost_model=CostModel()).run()
            absolute = Simulator(
                scn, scheduler, cost_model=CostModel(include_idle_power=True)
            ).run()
            deltas.append(
                absolute.summary.avg_energy_cost - base.summary.avg_energy_cost
            )
        assert deltas[0] == pytest.approx(deltas[1])


class TestEmpiricalQueueBound:
    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([1.0, 5.0, 20.0]),
    )
    def test_queue_bound_on_random_slack_scenarios(self, seed, v):
        """Theorem 1a on randomized scenarios that satisfy slackness."""
        scn = small_scenario(horizon=120, seed=seed)
        report = check_slackness(scn.cluster, scn.arrivals, scn.availability)
        if not report.feasible:
            return  # slackness is a prerequisite of the theorem
        constants = TheoremConstants.from_scenario(
            scn.cluster,
            max_arrivals=scn.arrivals.max(axis=0),
            price_cap=float(scn.prices.max()),
        )
        result = Simulator(scn, GreFarScheduler(scn.cluster, v=v)).run()
        bound = constants.queue_bound(v, report.max_delta)
        assert result.summary.max_queue_length <= bound

    @pytest.mark.parametrize("v", [0.1, 2.5, 7.5, 20.0])
    def test_queue_bound_on_the_paper_scenario(self, v):
        """Theorem 1a on the paper scenario, checked every slot.

        The bound ``V*C3/delta`` is loose by three orders of magnitude
        here (max queue ~96 against ~3e5), so it only catches a
        diverging queue, not a merely worse schedule.
        """
        scn = paper_scenario(horizon=300, seed=1)
        report = check_slackness(scn.cluster, scn.arrivals, scn.availability)
        assert report.feasible
        constants = TheoremConstants.from_scenario(
            scn.cluster,
            max_arrivals=scn.arrivals.max(axis=0),
            price_cap=float(scn.prices.max()),
        )
        bound = constants.queue_bound(v, report.max_delta)
        Simulator(
            scn,
            GreFarScheduler(scn.cluster, v=v),
            observers=[queue_bound_observer(bound, force=True)],
        ).run()
