"""Tests for the supervision layer (:mod:`repro.resilient`).

Four surfaces, one promise each:

* **supervisor** — a healthy solve is bitwise what the unsupervised call
  site produced; any backend failure degrades down the chain and ends,
  at worst, in the always-feasible zero action;
* **guards** — NaN/Inf/negative inputs are caught before
  :class:`ClusterState` construction under the raise/clamp/hold
  policies, with every repair counted;
* **checkpoint** — snapshots are atomic and schema-versioned, the
  history journal is appended once per save and survives a kill
  between append and snapshot, and a kill-and-resume run is
  bit-identical to an uninterrupted one;
* **chaos** — with the primary backend failing on a large fraction of
  slots the simulator still completes with a feasible action every slot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._contracts import ContractViolation
from repro.model.state import ClusterState
from repro.obs.registry import stats_registry
from repro.optimize import SolverFailure, solve_lp
from repro.optimize.slot_problem import SlotServiceProblem
from repro.resilient import (
    BACKENDS,
    CheckpointError,
    Checkpointer,
    ColumnHistory,
    FlakyBackend,
    GuardViolation,
    SimulationKilled,
    SupervisedSolver,
    chain_for,
    checkpoint_path,
    journal_path,
    load_checkpoint,
    run_chaos_drill,
    sanitize_state,
    sanitize_trace_arrays,
    save_checkpoint,
    solve_service,
    solve_zero,
)
from repro.resilient.checkpoint import CHECKPOINT_SCHEMA
from repro.scenarios import paper_scenario, small_cluster, small_scenario
from repro.schedulers import AlwaysScheduler
from repro.core.grefar import GreFarScheduler
from repro.simulation.metrics import MetricsCollector
from repro.simulation.simulator import Simulator

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without dev extras
    HAVE_HYPOTHESIS = False


def random_problem(seed: int, beta: float = 0.0) -> SlotServiceProblem:
    """A random feasible slot instance on the small cluster."""
    rng = np.random.default_rng(seed)
    scenario = small_scenario(horizon=8, seed=seed)
    cluster = scenario.cluster
    shape = (cluster.num_datacenters, cluster.num_job_types)
    return SlotServiceProblem(
        cluster=cluster,
        state=scenario.state_at(int(rng.integers(0, 8))),
        queue_weights=rng.uniform(0.0, 12.0, size=shape),
        h_upper=rng.uniform(0.0, 6.0, size=shape),
        v=float(rng.uniform(0.5, 15.0)),
        beta=float(beta),
    )


def _always_fail(problem):
    raise SolverFailure("boom", "synthetic failure", problem)


_always_fail.name = "boom"


# ----------------------------------------------------------------------
# Supervisor: healthy path is bitwise-unchanged
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["greedy", "lp", "qp"])
@pytest.mark.parametrize("seed", range(4))
def test_supervised_matches_direct_backend_bitwise(name, seed):
    beta = 50.0 if name == "qp" and seed % 2 else 0.0
    problem = random_problem(seed, beta=beta)
    direct = problem.clip_feasible(BACKENDS[name](problem))
    outcome = SupervisedSolver().solve(problem, primary=name, slot=seed)
    assert np.array_equal(outcome.h, direct)
    assert outcome.backend == name
    assert not outcome.degraded
    assert outcome.incidents == ()


def test_solve_service_matches_clipped_greedy():
    problem = random_problem(7)
    from repro.optimize import solve_greedy

    expected = problem.clip_feasible(solve_greedy(problem))
    assert np.array_equal(solve_service(problem, primary="greedy", slot=0), expected)


# ----------------------------------------------------------------------
# Supervisor: fallback semantics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode,reason", [("raise", "raised"), ("nan", "non-finite"), ("error", "raised")])
def test_flaky_primary_degrades_to_real_backend(mode, reason):
    problem = random_problem(1)
    flaky = FlakyBackend(backend="greedy", failure_rate=1.0, seed=0, mode=mode)
    stats = stats_registry()
    stats.reset("resilient.")
    solver = SupervisedSolver(chain=(flaky, "greedy", "zero"))
    outcome = solver.solve(problem, slot=3)
    assert outcome.degraded
    assert outcome.backend == "greedy"
    assert problem.is_feasible(outcome.h)
    assert len(outcome.incidents) == 1
    incident = outcome.incidents[0]
    assert incident.reason == reason
    assert incident.backend == "flaky-greedy"
    assert incident.slot == 3
    assert "slot 3" in incident.render()
    counters = stats.counters()
    assert counters["resilient.incidents"] == 1
    assert counters["resilient.failures.flaky-greedy"] == 1
    assert counters["resilient.fallbacks"] == 1
    assert counters["resilient.fallback.greedy"] == 1
    assert "resilient.zero_actions" not in counters


def test_chain_degrades_to_zero_action_terminal():
    problem = random_problem(2)
    stats = stats_registry()
    stats.reset("resilient.")
    solver = SupervisedSolver(chain=(_always_fail, _always_fail, "zero"))
    outcome = solver.solve(problem, slot=9)
    assert outcome.backend == "zero"
    assert outcome.degraded
    assert np.array_equal(outcome.h, np.zeros_like(problem.h_upper))
    assert problem.is_feasible(outcome.h)
    assert len(outcome.incidents) == 2
    counters = stats.counters()
    assert counters["resilient.zero_actions"] == 1
    assert counters["resilient.fallback.zero"] == 1


def test_exhausted_custom_chain_raises_solver_failure():
    solver = SupervisedSolver(chain=(_always_fail,))
    with pytest.raises(SolverFailure, match="every backend in chain"):
        solver.solve(random_problem(3))


def test_incident_log_is_capped_but_counters_are_exact(monkeypatch):
    monkeypatch.setattr("repro.resilient.supervisor.MAX_INCIDENTS", 3)
    problem = random_problem(5)
    stats = stats_registry()
    stats.reset("resilient.")
    solver = SupervisedSolver(chain=(_always_fail, "zero"))
    for _ in range(5):
        solver.solve(problem)
    assert solver.incident_count == 3
    assert stats.counters()["resilient.incidents"] == 5
    solver.clear_incidents()
    assert solver.incident_count == 0
    assert stats.counters()["resilient.incidents"] == 5


def test_unknown_backend_rejected_everywhere():
    with pytest.raises(ValueError, match="unknown solver backend"):
        chain_for("simplex")
    with pytest.raises(ValueError, match="unknown solver backend"):
        SupervisedSolver(chain=("greedy", "simplex"))
    with pytest.raises(ValueError, match="unknown solver backend"):
        SupervisedSolver().solve(random_problem(0), primary="simplex")
    with pytest.raises(ValueError, match="at least one entry"):
        SupervisedSolver(chain=())


def test_chain_for_callable_gets_standard_tail():
    assert chain_for(_always_fail) == (_always_fail, "greedy", "zero")
    assert chain_for("lp") == ("lp", "greedy", "zero")


def test_zero_backend_is_always_feasible():
    problem = random_problem(6)
    h = solve_zero(problem)
    assert problem.is_feasible(h)
    assert np.array_equal(problem.clip_feasible(h), h)


# ----------------------------------------------------------------------
# Supervisor: the one check, its clip counter, the idempotence contract
# ----------------------------------------------------------------------
def _oversized(problem):
    return problem.h_upper + 1.0


_oversized.name = "oversized"


def test_clip_changed_counts_altered_backend_results():
    problem = random_problem(10)
    stats = stats_registry()
    stats.reset("resilient.")
    SupervisedSolver().solve(problem, primary="greedy")
    assert "resilient.clip.changed" not in stats.counters()
    outcome = SupervisedSolver(chain=(_oversized, "zero")).solve(problem)
    assert outcome.backend == "oversized" and not outcome.degraded
    assert np.array_equal(outcome.h, problem.clip_feasible(_oversized(problem)))
    assert stats.counters()["resilient.clip.changed"] == 1


@pytest.mark.parametrize(
    "scenario_kind,beta",
    [("golden", 0.0), ("paper", 0.0), ("paper", 100.0)],
)
def test_healthy_runs_never_clip_a_backend_result(scenario_kind, beta):
    # The backends return feasible answers, so the supervisor's clip is
    # the identity on every slot of a healthy run.
    if scenario_kind == "golden":  # tests/test_golden_trace.py's run
        scenario, v = small_scenario(horizon=40, seed=11), 5.0
    else:
        scenario, v = paper_scenario(horizon=120, seed=0), 7.5
    stats = stats_registry()
    stats.reset("resilient.")
    scheduler = GreFarScheduler(scenario.cluster, v=v, beta=beta)
    Simulator(scenario, scheduler).run()
    assert scheduler.supervisor.incident_count == 0
    assert stats.counter("resilient.clip.changed") == 0


def test_non_idempotent_clip_is_a_contract_violation(monkeypatch):
    problem = random_problem(11)
    real_clip = SlotServiceProblem.clip_feasible

    def halving_clip(self, h):
        return 0.5 * real_clip(self, h)

    monkeypatch.setattr(SlotServiceProblem, "clip_feasible", halving_clip)
    monkeypatch.setenv("REPRO_CONTRACTS", "1")
    with pytest.raises(ContractViolation, match="not idempotent"):
        SupervisedSolver().solve(problem, primary="greedy")
    # Off the hot path: without contracts the clipped answer is served.
    monkeypatch.setenv("REPRO_CONTRACTS", "0")
    outcome = SupervisedSolver().solve(problem, primary="greedy")
    assert outcome.backend == "greedy" and not outcome.degraded


# ----------------------------------------------------------------------
# Typed SolverFailure from the real LP backend
# ----------------------------------------------------------------------
def test_lp_failure_is_typed_and_supervised(monkeypatch):
    problem = random_problem(8)

    class _FailedResult:
        success = False
        message = "numerical difficulties"
        x = None

    monkeypatch.setattr("repro.optimize.lp.linprog", lambda *a, **k: _FailedResult())
    with pytest.raises(SolverFailure) as excinfo:
        solve_lp(problem)
    assert excinfo.value.backend == "lp"
    # The supervisor absorbs the same failure and degrades to greedy.
    outcome = SupervisedSolver().solve(problem, primary="lp", slot=0)
    assert outcome.degraded
    assert outcome.backend == "greedy"
    assert outcome.incidents[0].reason == "raised"
    assert problem.is_feasible(outcome.h)


# ----------------------------------------------------------------------
# FlakyBackend mechanics
# ----------------------------------------------------------------------
def test_flaky_backend_is_deterministic_and_picklable():
    import pickle

    problem = random_problem(9)
    flaky = FlakyBackend(backend="greedy", failure_rate=0.5, seed=42)
    outcomes = []
    for _ in range(20):
        try:
            flaky(problem)
            outcomes.append(True)
        except SolverFailure:
            outcomes.append(False)
    clone = pickle.loads(pickle.dumps(FlakyBackend(backend="greedy", failure_rate=0.5, seed=42)))
    replay = []
    for _ in range(20):
        try:
            clone(problem)
            replay.append(True)
        except SolverFailure:
            replay.append(False)
    assert outcomes == replay
    assert flaky.failures == replay.count(False)
    with pytest.raises(ValueError, match="unknown failure mode"):
        FlakyBackend(mode="segfault")


# ----------------------------------------------------------------------
# Guards: sanitize_state
# ----------------------------------------------------------------------
def _clean_arrays():
    avail = np.array([[4.0, 2.0], [3.0, 1.0]])
    prices = np.array([5.0, 7.0])
    return avail, prices


def test_sanitize_state_clean_arrays_pass_through():
    avail, prices = _clean_arrays()
    state, incidents = sanitize_state(avail, prices, policy="raise")
    assert incidents == ()
    assert np.array_equal(state.availability, avail)
    assert np.array_equal(state.prices, prices)


def test_sanitize_state_clean_cluster_state_is_same_object():
    avail, prices = _clean_arrays()
    state = ClusterState(avail, prices)
    out, incidents = sanitize_state(state, policy="hold")
    assert out is state
    assert incidents == ()


def test_sanitize_state_raise_policy_names_fields():
    avail, prices = _clean_arrays()
    avail[0, 0] = np.nan
    prices[1] = -3.0
    with pytest.raises(GuardViolation, match="availability.*prices") as excinfo:
        sanitize_state(avail, prices, policy="raise")
    assert "nan" in str(excinfo.value)
    assert "negative" in str(excinfo.value)


def test_sanitize_state_clamp_policy():
    avail, prices = _clean_arrays()
    avail[0, 0] = np.inf
    avail[1, 1] = -2.0
    prices[0] = np.inf
    state, incidents = sanitize_state(avail, prices, policy="clamp")
    assert state.availability[0, 0] == 0.0
    assert state.availability[1, 1] == 0.0
    # Non-finite price clamps to the largest finite price visible.
    assert state.prices[0] == 7.0
    kinds = {(i.field, i.kind) for i in incidents}
    assert ("availability", "inf") in kinds
    assert ("availability", "negative") in kinds
    assert ("prices", "inf") in kinds


def test_sanitize_state_clamp_negative_price_to_zero():
    avail, prices = _clean_arrays()
    prices[1] = -4.0
    state, _ = sanitize_state(avail, prices, policy="clamp")
    assert state.prices[1] == 0.0


def test_sanitize_state_hold_routes_through_prepare_state():
    scheduler = AlwaysScheduler(small_cluster())
    clean_avail, clean_prices = _clean_arrays()
    # Seed the last-known-good snapshot with one clean observation.
    scheduler.prepare_state(ClusterState(clean_avail, clean_prices))
    bad_avail = clean_avail.copy()
    bad_prices = clean_prices.copy()
    bad_avail[0, 1] = np.inf
    bad_prices[0] = -1.0
    state, incidents = sanitize_state(bad_avail, bad_prices, policy="hold")
    assert np.isnan(state.availability[0, 1])
    assert np.isnan(state.prices[0])
    filled = scheduler.prepare_state(state)
    assert filled.availability[0, 1] == clean_avail[0, 1]
    assert filled.prices[0] == clean_prices[0]
    assert not np.isnan(filled.availability).any()
    assert len(incidents) == 2


def test_sanitize_state_counts_on_stats_registry():
    stats = stats_registry()
    stats.reset("resilient.guard.")
    avail, prices = _clean_arrays()
    avail[0, 0] = -1.0
    sanitize_state(avail, prices, policy="clamp")
    assert stats.counters()["resilient.guard.availability.negative"] == 1


def test_sanitize_state_rejects_bad_arguments():
    avail, prices = _clean_arrays()
    with pytest.raises(ValueError, match="unknown guard policy"):
        sanitize_state(avail, prices, policy="ignore")
    with pytest.raises(ValueError, match="not both"):
        sanitize_state(ClusterState(avail, prices), prices)


# ----------------------------------------------------------------------
# Guards: sanitize_trace_arrays
# ----------------------------------------------------------------------
def _clean_traces():
    arrivals = np.array([[2.0, 1.0], [3.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    availability = np.ones((4, 2, 2)) * 3.0
    prices = np.array([[5.0, 6.0], [4.0, 7.0], [5.0, 6.0], [4.0, 5.0]])
    return arrivals, availability, prices


def test_sanitize_trace_arrays_clean_passthrough():
    arrivals, availability, prices = _clean_traces()
    a, av, p, incidents = sanitize_trace_arrays(arrivals, availability, prices)
    assert incidents == ()
    assert np.array_equal(a, arrivals)
    assert np.array_equal(av, availability)
    assert np.array_equal(p, prices)


def test_sanitize_trace_arrays_raise_policy():
    arrivals, availability, prices = _clean_traces()
    prices[2, 1] = np.nan
    with pytest.raises(GuardViolation, match="prices"):
        sanitize_trace_arrays(arrivals, availability, prices, policy="raise")


@pytest.mark.parametrize("policy", ["clamp", "hold"])
def test_sanitize_trace_arrays_zeroes_bad_arrivals(policy):
    arrivals, availability, prices = _clean_traces()
    arrivals[1, 0] = np.nan
    arrivals[2, 1] = -5.0
    a, _, _, incidents = sanitize_trace_arrays(
        arrivals, availability, prices, policy=policy
    )
    assert a[1, 0] == 0.0
    assert a[2, 1] == 0.0
    assert any(i.field == "arrivals" for i in incidents)


def test_sanitize_trace_arrays_hold_forward_fills():
    arrivals, availability, prices = _clean_traces()
    prices[1, 0] = np.nan
    prices[2, 0] = np.inf
    availability[2, 1, 0] = -1.0
    _, av, p, _ = sanitize_trace_arrays(
        arrivals, availability, prices, policy="hold"
    )
    # Bad entries take the previous good value in the same series.
    assert p[1, 0] == prices[0, 0]
    assert p[2, 0] == prices[0, 0]
    assert av[2, 1, 0] == availability[1, 1, 0]


def test_sanitize_trace_arrays_hold_leading_bad_uses_fallback():
    arrivals, availability, prices = _clean_traces()
    prices[0, 1] = np.nan
    availability[0, 0, 0] = np.inf
    _, av, p, _ = sanitize_trace_arrays(
        arrivals, availability, prices, policy="hold"
    )
    # No previous good value: prices fall back to the max finite price
    # (dark feed assumed expensive), availability to zero.
    assert p[0, 1] == 7.0
    assert av[0, 0, 0] == 0.0


def test_sanitize_trace_arrays_clamp_prices():
    arrivals, availability, prices = _clean_traces()
    prices[3, 1] = -2.0
    prices[0, 0] = np.inf
    _, _, p, _ = sanitize_trace_arrays(
        arrivals, availability, prices, policy="clamp"
    )
    assert p[3, 1] == 0.0
    assert p[0, 0] == 7.0


# ----------------------------------------------------------------------
# Hypothesis: degenerate inputs never escape the supervisor
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rate=st.floats(0.0, 1.0),
        mode=st.sampled_from(["raise", "nan", "error"]),
    )
    def test_supervisor_always_returns_feasible_action(seed, rate, mode):
        problem = random_problem(seed % 64)
        flaky = FlakyBackend(
            backend="greedy", failure_rate=rate, seed=seed, mode=mode
        )
        solver = SupervisedSolver(chain=(flaky, "greedy", "zero"))
        outcome = solver.solve(problem, slot=0)
        assert np.all(np.isfinite(outcome.h))
        assert problem.is_feasible(outcome.h)
        assert len(outcome.incidents) == flaky.failures

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(-1.0, 4.0))
    def test_clip_feasible_is_idempotent(seed, scale):
        problem = random_problem(seed % 64)
        rng = np.random.default_rng(seed)
        raw = scale * rng.uniform(-0.5, 1.0, size=problem.h_upper.shape)
        once = problem.clip_feasible(raw * (problem.h_upper + 1.0))
        assert problem.is_feasible(once)
        np.testing.assert_allclose(
            problem.clip_feasible(once), once, rtol=0.0, atol=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        policy=st.sampled_from(["clamp", "hold"]),
        data=st.data(),
    )
    def test_guards_always_produce_constructible_state(seed, policy, data):
        rng = np.random.default_rng(seed)
        avail = rng.uniform(0.0, 8.0, size=(3, 2))
        prices = rng.uniform(1.0, 9.0, size=3)
        poison = data.draw(
            st.lists(
                st.sampled_from([np.nan, np.inf, -np.inf, -1.0]),
                min_size=0,
                max_size=4,
            )
        )
        for value in poison:
            if rng.random() < 0.5:
                avail[rng.integers(0, 3), rng.integers(0, 2)] = value
            else:
                prices[rng.integers(0, 3)] = value
        state, _ = sanitize_state(avail, prices, policy=policy)
        if policy == "clamp":
            assert np.isfinite(state.prices).all()
        filled = AlwaysScheduler(small_cluster()).prepare_state(state)
        assert np.isfinite(filled.availability).all()
        assert np.isfinite(filled.prices).all()
        assert (filled.availability >= 0).all()


# ----------------------------------------------------------------------
# Chaos drill
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["raise", "nan"])
def test_chaos_drill_absorbs_heavy_fault_rate(mode):
    scenario = small_scenario(horizon=40, seed=5)
    scheduler = GreFarScheduler(scenario.cluster, v=5.0)
    report = run_chaos_drill(
        scenario, scheduler, failure_rate=0.5, seed=7, mode=mode
    )
    assert report.slots == 40
    assert report.injected_failures > 0
    assert report.incidents >= report.injected_failures
    # Every fault degraded to the real greedy backend, not the zero action.
    assert report.fallbacks >= report.injected_failures
    assert report.zero_actions == 0
    assert report.survived
    assert "faults injected" in report.render()


def test_chaos_drill_zero_rate_is_clean():
    scenario = small_scenario(horizon=20, seed=5)
    report = run_chaos_drill(
        scenario, GreFarScheduler(scenario.cluster, v=5.0), failure_rate=0.0, seed=1
    )
    assert report.injected_failures == 0
    assert report.incidents == 0
    assert report.fallbacks == 0
    assert not report.survived


# ----------------------------------------------------------------------
# Checkpoint files
# ----------------------------------------------------------------------
def test_checkpoint_round_trip(tmp_path):
    ckpt = Checkpointer(key="abc123", directory=tmp_path)
    payload = {"next_slot": 7, "queues": [1, 2, 3]}
    path = ckpt.save(payload)
    assert path == tmp_path / "abc123.ckpt"
    assert ckpt.load() == payload
    ckpt.clear()
    assert ckpt.load() is None
    ckpt.clear()  # idempotent


def test_checkpoint_missing_corrupt_and_mismatched(tmp_path):
    stats = stats_registry()
    stats.reset("resilient.checkpoint.")
    path = checkpoint_path("k1", tmp_path)
    assert load_checkpoint(path) is None

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"not a pickle")
    assert load_checkpoint(path) is None

    import pickle

    path.write_bytes(
        pickle.dumps({"schema": "ckpt-v0", "key": "k1", "payload": {}})
    )
    assert load_checkpoint(path) is None

    save_checkpoint(path, "k1", {"x": 1})
    assert load_checkpoint(path, key="other") is None
    assert load_checkpoint(path, key="k1") == {"x": 1}
    counters = stats.counters()
    assert counters["resilient.checkpoint.corrupt"] == 1
    assert counters["resilient.checkpoint.schema_mismatch"] == 1
    assert counters["resilient.checkpoint.key_mismatch"] == 1
    assert counters["resilient.checkpoint.loads"] == 1
    assert counters["resilient.checkpoint.saves"] == 1


def test_checkpoint_write_is_atomic(tmp_path):
    # A successful save leaves exactly the checkpoint file, no temp junk.
    ckpt = Checkpointer(key="atomic", directory=tmp_path)
    ckpt.save({"n": 1})
    ckpt.save({"n": 2})
    assert [p.name for p in tmp_path.iterdir()] == ["atomic.ckpt"]
    assert ckpt.load() == {"n": 2}


def test_checkpointer_validation(tmp_path):
    with pytest.raises(ValueError, match="non-empty run key"):
        Checkpointer(key="")
    with pytest.raises(ValueError):
        Checkpointer(key="k", every=0)
    with pytest.raises(ValueError):
        Checkpointer(key="k", kill_at=0)
    with pytest.raises(ValueError, match="non-empty run key"):
        checkpoint_path("")
    ckpt = Checkpointer(key="k", every=10, kill_at=25, directory=tmp_path)
    assert not ckpt.due(5)
    assert ckpt.due(10)
    assert ckpt.due(20)
    assert not ckpt.should_kill(24)
    assert ckpt.should_kill(25)


def test_checkpoint_schema_constant_is_stable():
    # Resume compatibility hinges on this tag; changing it must be a
    # deliberate, test-visible act.
    assert CHECKPOINT_SCHEMA == "ckpt-v2"


# ----------------------------------------------------------------------
# Simulator kill-and-resume (in-process)
# ----------------------------------------------------------------------
def _summary_dict(scenario_seed, horizon, checkpointer=None, resume=False):
    scenario = small_scenario(horizon=horizon, seed=scenario_seed)
    scheduler = GreFarScheduler(scenario.cluster, v=5.0)
    result = Simulator(scenario, scheduler).run(
        checkpointer=checkpointer, resume=resume
    )
    return result.summary.as_dict()


def test_kill_and_resume_is_bit_identical(tmp_path):
    baseline = _summary_dict(3, 60)

    ckpt = Checkpointer(key="resume-test", every=10, kill_at=30, directory=tmp_path)
    with pytest.raises(SimulationKilled) as excinfo:
        _summary_dict(3, 60, checkpointer=ckpt)
    assert excinfo.value.slot == 30
    assert ckpt.path.exists()

    resumed = _summary_dict(
        3,
        60,
        checkpointer=Checkpointer(key="resume-test", directory=tmp_path),
        resume=True,
    )
    assert resumed == baseline
    # A completed run clears its checkpoint.
    assert not ckpt.path.exists()


def test_kill_without_periodic_saves_still_snapshots(tmp_path):
    ckpt = Checkpointer(key="kill-only", kill_at=15, directory=tmp_path)
    with pytest.raises(SimulationKilled):
        _summary_dict(4, 40, checkpointer=ckpt)
    payload = ckpt.load()
    assert payload["next_slot"] == 15


def test_resume_with_rng_scheduler_is_bit_identical(tmp_path):
    # The random-routing baseline carries a live RNG; resuming must
    # restore its exact generator state, not reseed it.
    from repro.schedulers import RandomRoutingScheduler

    def run(checkpointer=None, resume=False):
        scenario = small_scenario(horizon=50, seed=6)
        scheduler = RandomRoutingScheduler(scenario.cluster, seed=17)
        return (
            Simulator(scenario, scheduler)
            .run(checkpointer=checkpointer, resume=resume)
            .summary.as_dict()
        )

    baseline = run()
    ckpt = Checkpointer(key="rng-resume", every=5, kill_at=25, directory=tmp_path)
    with pytest.raises(SimulationKilled):
        run(checkpointer=ckpt)
    resumed = run(
        checkpointer=Checkpointer(key="rng-resume", directory=tmp_path), resume=True
    )
    assert resumed == baseline


def test_resume_without_checkpoint_runs_fresh(tmp_path):
    baseline = _summary_dict(5, 30)
    resumed = _summary_dict(
        5,
        30,
        checkpointer=Checkpointer(key="no-such", directory=tmp_path),
        resume=True,
    )
    assert resumed == baseline


# ----------------------------------------------------------------------
# History journal (ckpt-v2)
# ----------------------------------------------------------------------
def _history_payload(columns, **extra):
    return {"history": ColumnHistory(columns), **extra}


def test_history_is_journalled_once_and_loaded_as_rows(tmp_path):
    ckpt = Checkpointer(key="journal", directory=tmp_path)
    series, other = [1.0, 2.0], ["a", "b"]
    ckpt.save(_history_payload([series, other], n=2))
    first = journal_path(ckpt.path).stat().st_size
    series.append(3.0)
    other.append("c")
    ckpt.save(_history_payload([series, other], n=3))
    # The second save appended one frame holding only the new row.
    grown = journal_path(ckpt.path).stat().st_size - first
    assert 0 < grown < first
    loaded = Checkpointer(key="journal", directory=tmp_path).load()
    assert loaded == {"n": 3, "history": [(1.0, "a"), (2.0, "b"), (3.0, "c")]}
    ckpt.clear()
    assert list(tmp_path.iterdir()) == []


def _fail_nth_replace(monkeypatch, n):
    """Make the *n*-th ``os.replace`` in resilient.checkpoint raise once.

    That is a kill after the journal append, before the snapshot
    replace: the journal holds rows no snapshot claims.
    """
    from repro.resilient import checkpoint as module

    real = module.os.replace
    calls = []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == n:
            raise OSError("killed between journal append and snapshot replace")
        return real(src, dst)

    monkeypatch.setattr(module.os, "replace", replace)


def _assert_same_metrics(live, reference):
    for name in MetricsCollector.__dataclass_fields__:
        a, b = getattr(live, name), getattr(reference, name)
        if isinstance(b, list):
            assert len(a) == len(b), name
            assert all(np.array_equal(x, y) for x, y in zip(a, b)), name
        else:
            assert a == b, name


def test_crash_between_journal_append_and_snapshot_replace(tmp_path, monkeypatch):
    """The unclaimed journal tail is ignored, overwritten, and harmless."""
    from repro.schedulers import RandomRoutingScheduler

    def run(checkpointer=None, resume=False):
        scenario = small_scenario(horizon=50, seed=6)
        scheduler = RandomRoutingScheduler(scenario.cluster, seed=17)
        return Simulator(scenario, scheduler).run(
            checkpointer=checkpointer, resume=resume
        )

    baseline = run()
    _fail_nth_replace(monkeypatch, 4)  # the save after slot 20
    with pytest.raises(CheckpointError):
        run(checkpointer=Checkpointer(key="torn", every=5, directory=tmp_path))
    monkeypatch.undo()
    ckpt = Checkpointer(key="torn", directory=tmp_path)
    assert len(ckpt.load()["history"]) == 15

    # Resume, save over the stale tail, die again, resume to the end.
    with pytest.raises(SimulationKilled):
        run(
            checkpointer=Checkpointer(key="torn", every=5, kill_at=30, directory=tmp_path),
            resume=True,
        )
    assert len(ckpt.load()["history"]) == 30
    resumed = run(checkpointer=ckpt, resume=True)
    assert resumed.summary.as_dict() == baseline.summary.as_dict()
    _assert_same_metrics(resumed.metrics, baseline.metrics)
    assert not ckpt.path.exists() and not journal_path(ckpt.path).exists()


def test_short_journal_is_corrupt(tmp_path):
    stats = stats_registry()
    ckpt = Checkpointer(key="short", directory=tmp_path)
    ckpt.save(_history_payload([[1.0, 2.0, 3.0]]))
    journal = journal_path(ckpt.path)
    journal.write_bytes(journal.read_bytes()[:-3])
    before = stats.counter("resilient.checkpoint.corrupt")
    assert ckpt.load() is None
    assert stats.counter("resilient.checkpoint.corrupt") == before + 1
    with pytest.raises(CheckpointError, match="history journal"):
        ckpt.load_strict()
