"""Tests for the multi-resource (memory) extension of footnote 3."""

import numpy as np
import pytest

from repro.core.grefar import GreFarScheduler
from repro.fairness import AlphaFairness
from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.datacenter import DataCenter
from repro.model.job import Account, JobType
from repro.model.server import ServerClass
from repro.model.state import ClusterState
from repro.obs.registry import stats_registry
from repro.optimize import SlotServiceProblem, solve_lp, solve_qp
from repro.resilient.supervisor import SupervisedSolver
from repro.schedulers import AlwaysScheduler
from repro.simulation.simulator import Simulator
from repro.simulation.trace import Scenario


def _memory_cluster(mem_cap: float = 8.0) -> Cluster:
    """One site with tight memory; two types with different footprints."""
    return Cluster(
        server_classes=(ServerClass(name="s", speed=1.0, active_power=0.5),),
        datacenters=(
            DataCenter(name="d", max_servers=[30], memory_capacity=mem_cap),
        ),
        job_types=(
            JobType(name="lean", demand=1.0, eligible_dcs=(0,), account=0, memory=1.0),
            JobType(name="fat", demand=1.0, eligible_dcs=(0,), account=0, memory=4.0),
        ),
        accounts=(Account(name="a", fair_share=1.0),),
    )


def _problem(cluster, q, v=0.0):
    state = ClusterState(
        np.stack([dc.max_servers for dc in cluster.datacenters]), [0.3]
    )
    return SlotServiceProblem(
        cluster=cluster,
        state=state,
        queue_weights=np.asarray(q, dtype=float),
        h_upper=np.full((1, 2), 20.0),
        v=v,
    )


class TestModelFields:
    def test_defaults_reproduce_base_model(self, cluster):
        assert not cluster.has_memory_constraints
        np.testing.assert_allclose(cluster.memory_demands, 0.0)
        assert np.all(np.isinf(cluster.memory_capacities))

    def test_memory_cluster_flags(self):
        c = _memory_cluster()
        assert c.has_memory_constraints
        np.testing.assert_allclose(c.memory_demands, [1.0, 4.0])
        np.testing.assert_allclose(c.memory_capacities, [8.0])

    def test_job_type_rejects_negative_memory(self):
        with pytest.raises(ValueError):
            JobType(name="t", demand=1.0, eligible_dcs=[0], account=0, memory=-1.0)

    def test_datacenter_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            DataCenter(name="d", max_servers=[1], memory_capacity=0.0)


class TestSlotProblem:
    def test_memory_used(self):
        c = _memory_cluster()
        problem = _problem(c, [[5.0, 5.0]])
        h = np.array([[2.0, 1.5]])
        assert problem.memory_used(h)[0] == pytest.approx(2.0 + 6.0)

    def test_is_feasible_checks_memory(self):
        c = _memory_cluster(mem_cap=8.0)
        problem = _problem(c, [[5.0, 5.0]])
        assert problem.is_feasible(np.array([[4.0, 1.0]]))  # 8 memory
        assert not problem.is_feasible(np.array([[4.0, 2.0]]))  # 12 memory

    def test_clip_feasible_respects_memory(self):
        c = _memory_cluster(mem_cap=8.0)
        problem = _problem(c, [[5.0, 5.0]])
        clipped = problem.clip_feasible(np.array([[8.0, 8.0]]))
        assert problem.memory_used(clipped)[0] <= 8.0 + 1e-9


class TestSolvers:
    def test_lp_respects_memory(self):
        c = _memory_cluster(mem_cap=8.0)
        # High queue reward: without the memory cap the LP would serve
        # everything (v=0 means energy is free to spend).
        problem = _problem(c, [[5.0, 5.0]], v=0.0)
        h = solve_lp(problem)
        assert problem.memory_used(h)[0] <= 8.0 + 1e-6

    def test_lp_prefers_memory_efficient_work(self):
        c = _memory_cluster(mem_cap=8.0)
        # Equal queue reward per job: lean jobs give more reward per
        # memory unit, so they fill the cap first.
        problem = _problem(c, [[5.0, 5.0]], v=0.0)
        h = solve_lp(problem)
        assert h[0, 0] > h[0, 1]

    def test_qp_respects_memory(self):
        c = _memory_cluster(mem_cap=8.0)
        state = ClusterState(np.array([[30.0]]), [0.3])
        problem = SlotServiceProblem(
            cluster=c,
            state=state,
            queue_weights=np.array([[5.0, 5.0]]),
            h_upper=np.full((1, 2), 20.0),
            v=1.0,
            beta=50.0,
        )
        h = solve_qp(problem)
        assert problem.memory_used(h)[0] <= 8.0 + 1e-5

    def test_fairness_gradient_past_highs_infinity_still_solves(self):
        # alpha = 2 fairness at a site with 5e-13 work capacity: the LP
        # oracle's costs reach 1e20, which HiGHS reads as infinite, so
        # solve_lp scales them down by a power of two.
        cluster = Cluster(
            server_classes=(ServerClass(name="s", speed=1.0, active_power=1.0),),
            datacenters=(DataCenter(name="d", max_servers=[4], memory_capacity=3.0),),
            job_types=(
                JobType(name="a", demand=1.0, eligible_dcs=(0,), account=0, memory=1.0),
                JobType(name="b", demand=2.0, eligible_dcs=(0,), account=1, memory=2.5),
            ),
            accounts=(Account(name="x", fair_share=0.5), Account(name="y", fair_share=0.5)),
        )
        queues = np.full((1, 2), 3.0)
        problem = SlotServiceProblem(
            cluster=cluster,
            state=ClusterState([[5e-13]], [0.4]),
            queue_weights=queues,
            h_upper=queues + 1.0,
            v=0.5,
            beta=100.0,
            fairness=AlphaFairness(alpha=2.0),
        )
        stats = stats_registry()
        before = stats.counter("resilient.fallbacks")
        outcome = SupervisedSolver().solve(problem, primary="qp", slot=0)
        assert outcome.backend == "qp"
        assert stats.counter("resilient.fallbacks") == before
        assert problem.is_feasible(outcome.h)


class TestSchedulers:
    def _scenario(self, cluster, horizon=40):
        rng = np.random.default_rng(5)
        return Scenario(
            cluster=cluster,
            arrivals=rng.integers(0, 4, size=(horizon, 2)).astype(float),
            availability=np.full((horizon, 1, 1), 30.0),
            prices=rng.uniform(0.1, 0.6, size=(horizon, 1)),
        )

    def test_grefar_auto_uses_lp_and_validates(self):
        c = _memory_cluster(mem_cap=6.0)
        scn = self._scenario(c)
        result = Simulator(scn, GreFarScheduler(c, v=3.0), validate=True).run()
        assert result.summary.horizon == scn.horizon

    def test_always_respects_memory(self):
        c = _memory_cluster(mem_cap=6.0)
        scn = self._scenario(c)
        result = Simulator(scn, AlwaysScheduler(c), validate=True).run()
        # The memory cap slows fat jobs down: delays exceed the
        # unconstrained baseline's ~1 slot.
        assert result.summary.horizon == scn.horizon

    def test_action_validate_catches_memory_violation(self):
        c = _memory_cluster(mem_cap=4.0)
        state = ClusterState(np.array([[30.0]]), [0.3])
        h = np.array([[0.0, 2.0]])  # 8 memory > 4 cap
        b = np.array([[2.0]])
        action = Action(np.zeros((1, 2)), h, b)
        with pytest.raises(ValueError, match="memory"):
            action.validate(c, state)

    def test_memory_bound_reduces_throughput(self):
        """Same workload, tighter memory -> fewer jobs served early on."""
        loose = _memory_cluster(mem_cap=100.0)
        tight = _memory_cluster(mem_cap=3.0)
        horizon = 15
        arrivals = np.zeros((horizon, 2))
        arrivals[0] = [0.0, 10.0]  # burst of fat jobs
        def run(cluster):
            scn = Scenario(
                cluster=cluster,
                arrivals=arrivals,
                availability=np.full((horizon, 1, 1), 30.0),
                prices=np.full((horizon, 1), 0.1),
            )
            return Simulator(scn, AlwaysScheduler(cluster), validate=True).run()

        fast = run(loose).queues.stats.mean_dc_delay()
        slow = run(tight).queues.stats.mean_dc_delay()
        assert slow > fast
