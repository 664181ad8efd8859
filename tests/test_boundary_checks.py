"""Checks run where outside data comes in, and only there.

Inside one GreFar slot the code hands its own by-products on unchecked:
the supervisor's site loads feed the busy counts and the recorded work,
and Frank-Wolfe and the cost model call the fairness kernels directly.
These tests pin down that the boundary checks still fire, and that every
unchecked path computes exactly what its checked counterpart does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grefar import GreFarScheduler
from repro.fairness import AlphaFairness, JainFairness, MaxMinFairness, QuadraticFairness
from repro.model.queues import QueueNetwork
from repro.optimize.slot_problem import SlotServiceProblem
from repro.resilient import SupervisedSolver
from repro.scenarios import small_scenario

FAIRNESS = [
    QuadraticFairness(),
    AlphaFairness(alpha=0.5),
    AlphaFairness(alpha=1.0),
    AlphaFairness(alpha=2.0),
    JainFairness(),
    MaxMinFairness(),
]
FAIRNESS_IDS = ["quadratic", "alpha-0.5", "alpha-1", "alpha-2", "jain", "maxmin"]
SHARES = np.array([0.4, 0.3, 0.15, 0.15])


def _bits(arr) -> bytes:
    return np.asarray(arr, dtype=np.float64).tobytes()


def _overloaded_problem(cluster, state) -> SlotServiceProblem:
    """A slot whose box bounds ask for far more work than the sites hold."""
    shape = (cluster.num_datacenters, cluster.num_job_types)
    big = np.full(shape, 1e4)
    return SlotServiceProblem(cluster, state, big, big, v=1.0)


# ----------------------------------------------------------------------
# Supervisor: the one check of a backend's answer
# ----------------------------------------------------------------------
def test_infeasible_answer_is_an_incident_and_falls_back_to_greedy(
    cluster, state, monkeypatch
):
    # With the clip a no-op the over-capacity answer reaches the check.
    monkeypatch.setattr(SlotServiceProblem, "clip_feasible", lambda self, h: h)
    problem = _overloaded_problem(cluster, state)

    def everything(p):
        return p.h_upper

    outcome = SupervisedSolver().solve(problem, primary=everything, slot=5)
    assert outcome.degraded
    assert outcome.backend == "greedy"
    assert [i.reason for i in outcome.incidents] == ["infeasible"]
    assert outcome.incidents[0].slot == 5
    assert problem.is_feasible(outcome.h)


def test_outcome_carries_the_checked_loads(cluster, state):
    problem = _overloaded_problem(cluster, state)
    outcome = SupervisedSolver().solve(problem, primary="greedy")
    assert _bits(outcome.loads) == _bits(problem.loads(outcome.h))
    assert not outcome.loads.flags.writeable
    assert _bits(problem.busy_for(outcome.h, outcome.loads)) == _bits(
        problem.busy_for(outcome.h)
    )


# ----------------------------------------------------------------------
# GreFar: the public constructor's checks, the work it hands on
# ----------------------------------------------------------------------
def test_public_constructor_still_checks(cluster, state):
    shape = (cluster.num_datacenters, cluster.num_job_types)
    ok = np.ones(shape)
    with pytest.raises(ValueError, match="queue_weights must have shape"):
        SlotServiceProblem(cluster, state, np.ones((1, 1)), ok, v=1.0)
    with pytest.raises(ValueError, match="h_upper must have shape"):
        SlotServiceProblem(cluster, state, ok, np.ones(3), v=1.0)
    with pytest.raises(ValueError):
        SlotServiceProblem(cluster, state, ok, ok, v=-1.0)
    with pytest.raises(ValueError):
        SlotServiceProblem(cluster, state, ok, ok, v=1.0, beta=float("nan"))
    problem = SlotServiceProblem(cluster, state, ok, -ok, v=1.0)
    assert _bits(problem.h_upper) == _bits(np.zeros(shape))


@pytest.mark.parametrize("beta", [0.0, 100.0])
def test_grefar_action_records_the_supervisors_loads(beta):
    scenario = small_scenario(horizon=30, seed=4)
    cluster = scenario.cluster
    scheduler = GreFarScheduler(cluster, v=2.0, beta=beta)
    queues = QueueNetwork(cluster)
    for t in range(12):
        action = scheduler.decide(t, scenario.state_at(t), queues)
        work = action.work_served(cluster)
        assert work is action.work_served(cluster)
        assert _bits(work) == _bits(action.serve @ cluster.demands)
        queues.step(action, scenario.arrivals[t], t)


def test_work_cache_is_per_cluster(cluster):
    import pickle

    scenario = small_scenario(horizon=5, seed=1)
    scheduler = GreFarScheduler(cluster, v=1.0)
    action = scheduler.decide(0, scenario.state_at(0), QueueNetwork(cluster))
    twin = pickle.loads(pickle.dumps(cluster))
    assert twin == cluster and twin is not cluster
    first = action.work_served(cluster)
    assert action.work_served(twin) is not first
    assert _bits(action.work_served(twin)) == _bits(first)


# ----------------------------------------------------------------------
# Fairness: checked public methods, unchecked kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fairness", FAIRNESS, ids=FAIRNESS_IDS)
@pytest.mark.parametrize("method", ["score", "gradient"])
def test_public_fairness_methods_reject_bad_input(fairness, method):
    call = getattr(fairness, method)
    with pytest.raises(ValueError, match="shape"):
        call(np.ones(3), 10.0, SHARES)
    with pytest.raises(ValueError, match="non-negative"):
        call(np.array([1.0, -0.5, 1.0, 1.0]), 10.0, SHARES)
    for total in (0.0, -1.0):
        with pytest.raises(ValueError, match="total_resource"):
            call(np.ones(4), total, SHARES)


@pytest.mark.parametrize("fairness", FAIRNESS, ids=FAIRNESS_IDS)
@settings(max_examples=60, deadline=None)
@given(
    alloc=st.lists(st.floats(0.0, 1e3), min_size=4, max_size=4),
    total=st.floats(1e-3, 1e4),
)
def test_kernels_equal_checked_methods_bit_for_bit(fairness, alloc, total):
    alloc = np.array(alloc)
    assert _bits(fairness._score(alloc, total, SHARES)) == _bits(
        fairness.score(alloc, total, SHARES)
    )
    assert _bits(fairness._gradient(alloc, total, SHARES)) == _bits(
        fairness.gradient(alloc, total, SHARES)
    )
