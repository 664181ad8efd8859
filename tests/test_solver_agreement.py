"""Property-based cross-checks of the slot-problem solver backends.

The backends implement the *same* convex slot objective (14) from
independent derivations, so agreement between them on random feasible
instances is strong evidence none of them mis-encodes the formulation:

* with ``beta = 0`` the greedy matching and the LP are both exact, so
  their objective values must agree to float tolerance, flat or tiered
  pricing alike;
* every backend's raw output must already satisfy the box, capacity and
  memory constraints (``is_feasible``), and ``clip_feasible`` must be
  the identity on it (idempotence);
* with ``beta > 0`` the Frank-Wolfe QP may only improve on the
  beta-blind greedy warm start, never regress below it, and it must be
  within its certified gap of the SLSQP reference
  (:mod:`tests.oracles.slsqp`) — on plain, tiered-pricing,
  memory-constrained (with flat and tiered pricing), alpha-fair, V = 0,
  near-zero-beta and all-outage slots.

Runs as a seeded random search always; when ``hypothesis`` is
installed, an extra fuzzing pass searches the (seed, V, beta) space.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.optimize

from repro.core.grefar import GreFarScheduler
from repro.fairness import AlphaFairness, QuadraticFairness
from repro.model.cluster import Cluster
from repro.model.pricing import LinearPricing, TieredPricing
from repro.model.state import ClusterState
from repro.obs.events import InMemorySink
from repro.obs.registry import metrics_registry, stats_registry
from repro.optimize.greedy import solve_greedy
from repro.optimize.lp import solve_lp
from repro.optimize.qp import frank_wolfe, solve_qp
from repro.optimize.slot_problem import BETA_ZERO_TOL, SlotServiceProblem
from repro.scenarios import paper_scenario, small_cluster, small_scenario
from repro.simulation.simulator import Simulator
from tests.oracles.slsqp import solve_slsqp

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without dev extras
    HAVE_HYPOTHESIS = False

SOLVERS = {
    "greedy": solve_greedy,
    "lp": solve_lp,
    "qp": solve_qp,
}

#: Relative tolerance for "two exact solvers found the same optimum".
AGREEMENT_RTOL = 1e-6

#: The Frank-Wolfe stopping tolerance (relative to ``max(1, |obj|)``).
FW_TOL = 1e-9


def random_problem(seed: int, v=None, beta: float = 0.0) -> SlotServiceProblem:
    """A random feasible slot instance on the small cluster."""
    rng = np.random.default_rng(seed)
    scenario = small_scenario(horizon=8, seed=seed)
    state = scenario.state_at(int(rng.integers(0, 8)))
    cluster = scenario.cluster
    shape = (cluster.num_datacenters, cluster.num_job_types)
    return SlotServiceProblem(
        cluster=cluster,
        state=state,
        queue_weights=rng.uniform(0.0, 12.0, size=shape),
        h_upper=rng.uniform(0.0, 6.0, size=shape),
        v=float(rng.uniform(0.5, 15.0)) if v is None else float(v),
        beta=float(beta),
    )


def memory_cluster() -> Cluster:
    """The small cluster with a footnote-3 memory limit at every site."""
    base = small_cluster()
    return Cluster(
        base.server_classes,
        [dataclasses.replace(dc, memory_capacity=9.0) for dc in base.datacenters],
        [
            dataclasses.replace(jt, memory=mem)
            for jt, mem in zip(base.job_types, (1.0, 2.5))
        ],
        base.accounts,
    )


#: Variants of :func:`fair_problem`, one per regime the QP must handle.
VARIANTS = (
    "plain",
    "tiered",
    "memory",
    "memory-tiered",
    "alpha",
    "v-zero",
    "tiny-beta",
    "outage",
)


def fair_problem(seed: int, variant: str = "plain", beta: float = 100.0) -> SlotServiceProblem:
    """A random ``beta > 0`` slot instance in one of :data:`VARIANTS`."""
    rng = np.random.default_rng(seed)
    cluster = memory_cluster() if variant.startswith("memory") else small_cluster()
    n, j = cluster.num_datacenters, cluster.num_job_types
    availability = np.stack(
        [np.floor(dc.max_servers * rng.uniform(0.3, 1.0)) for dc in cluster.datacenters]
    )
    if variant == "outage":
        availability[:] = 0.0
    return SlotServiceProblem(
        cluster=cluster,
        state=ClusterState(availability, rng.uniform(0.1, 1.0, size=n)),
        queue_weights=rng.uniform(0.0, 20.0, size=(n, j)),
        h_upper=rng.uniform(0.0, 15.0, size=(n, j)),
        v=0.0 if variant == "v-zero" else float(rng.uniform(0.5, 15.0)),
        beta=2.0 * BETA_ZERO_TOL if variant == "tiny-beta" else float(beta),
        fairness=AlphaFairness(alpha=2.0) if variant == "alpha" else QuadraticFairness(),
        pricing=(
            TieredPricing(boundaries=(3.0, 8.0), multipliers=(1.0, 1.5, 3.0))
            if variant.endswith("tiered")
            else LinearPricing()
        ),
    )


def _assert_agreement(problem: SlotServiceProblem) -> None:
    greedy_value = problem.objective(solve_greedy(problem))
    lp_value = problem.objective(solve_lp(problem))
    assert lp_value == pytest.approx(
        greedy_value, rel=AGREEMENT_RTOL, abs=AGREEMENT_RTOL
    ), f"greedy={greedy_value!r} lp={lp_value!r}"


def _assert_feasible_and_stable(problem: SlotServiceProblem, solver) -> None:
    h = solver(problem)
    assert problem.is_feasible(h), f"{solver.__name__} returned infeasible h"
    clipped = problem.clip_feasible(h)
    # clip_feasible must be idempotent: projecting an already-feasible
    # point twice gives exactly the once-projected point.
    assert np.array_equal(problem.clip_feasible(clipped), clipped)


def _exactly_feasible(problem: SlotServiceProblem, h: np.ndarray) -> np.ndarray:
    """Scale each site of *h* down until it meets capacity and memory exactly.

    SLSQP honours its constraints only to ~1e-10 work, and
    ``clip_feasible`` forgives overshoots below 1e-9, so its raw answer
    can buy a sliver of objective that no feasible point has.
    """
    h = np.clip(h, 0.0, problem.h_upper)
    scale = np.ones(h.shape[0])
    for used, limit in (
        (problem.loads(h), problem.site_capacities()),
        (problem.memory_used(h), problem.cluster.memory_capacities),
    ):
        over = used > limit
        scale[over] = np.minimum(scale[over], limit[over] / used[over])
    return h * scale[:, np.newaxis]


def _assert_within_gap_of_slsqp(problem: SlotServiceProblem) -> None:
    """``obj(FW) <= obj(SLSQP) + gap + 1e-9``, with SLSQP made exactly feasible."""
    h, gap, _ = frank_wolfe(problem, tolerance=FW_TOL)
    assert problem.is_feasible(h)
    if problem.total_resource <= 0:
        # Every site is out: zero is the only feasible service and the
        # fairness score is undefined, so there is nothing to compare.
        assert gap == 0.0
        np.testing.assert_array_equal(h, 0.0)
        return
    fw_value = problem.objective(h)
    reference = problem.objective(_exactly_feasible(problem, solve_slsqp(problem)))
    assert fw_value <= reference + gap + 1e-9, (fw_value, reference, gap)
    # The stop rule scales by the lifted objective, which lies within
    # gap above fw_value.
    assert gap <= FW_TOL * max(1.0, abs(fw_value) + gap), (fw_value, gap)


# ----------------------------------------------------------------------
# Seeded random search (always runs)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(24))
def test_greedy_and_lp_agree_when_beta_zero(seed):
    _assert_agreement(random_problem(seed))


@pytest.mark.parametrize("seed", range(8))
def test_greedy_and_lp_agree_under_tiered_pricing(seed):
    _assert_agreement(fair_problem(seed, "tiered", beta=0.0))


@pytest.mark.parametrize("name", sorted(SOLVERS))
@pytest.mark.parametrize("seed", range(8))
def test_solver_output_feasible_and_clip_idempotent(name, seed):
    # greedy and lp refuse beta > 0 outright; alternate the fairness
    # pull on the backend that accepts it.
    beta = 50.0 if name == "qp" and seed % 2 else 0.0
    _assert_feasible_and_stable(random_problem(seed, beta=beta), SOLVERS[name])


@pytest.mark.parametrize("seed", range(8))
def test_qp_never_worse_than_greedy_warm_start(seed):
    problem = random_problem(seed, beta=100.0)
    relaxed = random_problem(seed, beta=0.0)
    warm = problem.clip_feasible(solve_greedy(relaxed))
    qp_value = problem.objective(solve_qp(problem))
    assert qp_value <= problem.objective(warm) + 1e-9


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", range(4))
def test_qp_within_certified_gap_of_slsqp(variant, seed):
    _assert_within_gap_of_slsqp(fair_problem(seed, variant))


# ----------------------------------------------------------------------
# The beta > 0 hot path on the paper scenario
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def paper_fair_trace():
    """200 paper-scenario slots at beta = 100 with scipy.optimize disabled.

    Returns the per-slot trace events, the ``solve.qp.capped`` count and
    the supervisor fallbacks/incidents the run added.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize called on the beta > 0 hot path")

    stats = stats_registry()
    reg = metrics_registry()
    sink = InMemorySink()
    was_enabled = reg.enabled
    scenario = paper_scenario(horizon=200, seed=1)
    scheduler = GreFarScheduler(scenario.cluster, v=7.5, beta=100.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy.optimize, "minimize", refuse)
        patch.setattr(scipy.optimize, "linprog", refuse)
        patch.setattr("repro.optimize.lp.linprog", refuse)
        before = {
            name: stats.counter(name)
            for name in ("solve.qp.capped", "resilient.fallbacks", "resilient.incidents")
        }
        reg.enable()
        reg.add_sink(sink)
        try:
            Simulator(scenario, scheduler).run()
        finally:
            reg.remove_sink(sink)
            if not was_enabled:
                reg.disable()
    added = {name: stats.counter(name) - value for name, value in before.items()}
    return sink.events, added


def test_paper_fair_never_calls_scipy_optimize(paper_fair_trace):
    events, added = paper_fair_trace
    assert len(events) == 200
    assert {event.solver for event in events} == {"qp"}
    assert added["resilient.fallbacks"] == 0
    assert added["resilient.incidents"] == 0


def test_paper_fair_gaps_certified_without_hitting_the_cap(paper_fair_trace):
    events, added = paper_fair_trace
    assert added["solve.qp.capped"] == 0
    for event in events:
        assert 0.0 <= event.gap <= FW_TOL * max(1.0, abs(event.objective)), event
        assert event.iterations >= 1, event


# ----------------------------------------------------------------------
# Hypothesis fuzzing (runs when the dev extra is installed)
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        v=st.floats(min_value=0.1, max_value=25.0),
    )
    def test_hypothesis_greedy_lp_agreement(seed, v):
        _assert_agreement(random_problem(seed, v=v))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        beta=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_hypothesis_all_solvers_feasible(seed, beta):
        # greedy and lp refuse beta > 0 outright, so they fuzz the
        # beta = 0 instance; the fairness-capable qp gets the fuzzed beta.
        relaxed = random_problem(seed, beta=0.0)
        fair = random_problem(seed, beta=beta)
        for name in ("greedy", "lp"):
            _assert_feasible_and_stable(relaxed, SOLVERS[name])
        _assert_feasible_and_stable(fair, SOLVERS["qp"])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        variant=st.sampled_from(VARIANTS),
        beta=st.floats(min_value=1e-6, max_value=500.0),
    )
    def test_hypothesis_qp_within_certified_gap_of_slsqp(seed, variant, beta):
        _assert_within_gap_of_slsqp(fair_problem(seed, variant, beta=beta))
