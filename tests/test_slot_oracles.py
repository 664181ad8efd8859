"""The per-slot fast paths agree bit for bit with their loop oracles.

Each property draws a random cluster (outage sites, coefficient ties,
ingress costs, memory limits, small routing bounds) and one slot's
queues, prices and candidate decisions, then compares the code in
``src/`` with the loop it replaced (``tests/oracles/slot_loops.py``, and
``tests/oracles/frank_wolfe_loop.py`` for the beta > 0 solve, and
``tests/oracles/slot_checks.py`` for the supervisor's check of a backend
answer and the busy-count checks): equal values and equal signs of zero,
and the same failures, messages and counters.
"""

import dataclasses
import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._contracts import ContractViolation
from repro.core.grefar import GreFarScheduler
from repro.fairness import AlphaFairness, JainFairness, MaxMinFairness, QuadraticFairness
from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.datacenter import DataCenter
from repro.model.job import Account, JobType
from repro.model.pricing import LinearPricing, TieredPricing
from repro.model.server import ServerClass
from repro.model.state import ClusterState
from repro.optimize import SlotServiceProblem, SolverFailure
from repro.obs.registry import stats_registry
from repro.optimize.greedy import greedy_walk, solve_greedy, walk_inputs
from repro.optimize.qp import frank_wolfe
from repro.optimize.slot_problem import busy_counts, supply_matrix
from repro.resilient.supervisor import SupervisedSolver
from repro.schedulers.base import routable_sites, route_greedily
from tests.oracles.frank_wolfe_loop import frank_wolfe as frank_wolfe_loop
from tests.oracles.slot_checks import ClipThenCheckSupervisor, busy_counts_array_checks
from tests.oracles.slot_loops import (
    account_work_add_at,
    busy_counts_columns,
    clip_feasible_loop,
    greedy_walk_per_site,
    marginal_cost_segments_walk,
    route_greedily_loop,
    route_loop,
)


def assert_bits_equal(fast, slow):
    fast = np.asarray(fast, dtype=np.float64)
    slow = np.asarray(slow, dtype=np.float64)
    assert fast.shape == slow.shape
    assert np.array_equal(fast, slow)
    assert np.array_equal(np.signbit(fast), np.signbit(slow))


@st.composite
def slots(draw):
    """A random cluster plus one slot's state, queues and scheduler knobs."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    j_count = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    memory = draw(st.booleans())
    small = st.integers(0, 4).map(float)
    classes = tuple(
        ServerClass(
            name=f"s{c}",
            speed=draw(st.sampled_from([0.5, 0.8, 1.0, 1.5])),
            active_power=draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])),
        )
        for c in range(k)
    )
    datacenters = tuple(
        DataCenter(
            name=f"d{i}",
            max_servers=[draw(st.integers(0, 12)) for _ in range(k)],
            memory_capacity=draw(st.sampled_from([3.0, 10.0])) if memory else float("inf"),
            ingress_cost=draw(st.sampled_from([0.0, 0.0, 0.05, 0.3])),
        )
        for i in range(n)
    )
    job_types = tuple(
        JobType(
            name=f"j{jj}",
            demand=draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])),
            eligible_dcs=draw(st.sets(st.integers(0, n - 1), min_size=1)),
            account=draw(st.integers(0, m - 1)),
            max_arrivals=10,
            max_route=draw(st.integers(1, 6)),
            max_service=draw(st.sampled_from([2.0, 5.0, 50.0])),
            memory=draw(st.sampled_from([0.0, 1.0, 2.5])) if memory else 0.0,
        )
        for jj in range(j_count)
    )
    accounts = tuple(Account(name=f"a{a}", fair_share=1.0 / m) for a in range(m))
    cluster = Cluster(classes, datacenters, job_types, accounts)
    availability = np.array(
        [
            [draw(st.integers(0, int(dc.max_servers[c]))) for c in range(k)]
            for dc in datacenters
        ],
        dtype=np.float64,
    )
    outages = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    availability[np.array(outages)] = 0.0
    # Slivers of capacity either side of the 1e-12 / 1e-9 work cut-offs.
    slivers = draw(
        st.lists(
            st.sampled_from([None, None, None, 5e-13, 5e-10, 3e-9]),
            min_size=n * k,
            max_size=n * k,
        )
    )
    for index, sliver in enumerate(slivers):
        if sliver is not None:
            availability[index // k, index % k] = sliver
    prices = [draw(st.sampled_from([0.1, 0.4, 0.4, 1.2])) for _ in range(n)]
    fractional = draw(st.booleans())
    front = np.array(
        [draw(st.floats(0.0, 9.0) if fractional else small) for _ in range(j_count)]
    )
    dc = np.array([[draw(small) for _ in range(j_count)] for _ in range(n)])
    return {
        "cluster": cluster,
        "state": ClusterState(availability, prices),
        "front": front,
        "dc": dc,
        "v": draw(st.sampled_from([0.0, 0.5, 2.5, 7.5])),
        "physical": draw(st.booleans()),
        "tiered": draw(st.booleans()),
    }


def problem_for(slot, weights=None):
    cluster = slot["cluster"]
    pricing = (
        TieredPricing(boundaries=(1.0, 4.0), multipliers=(1.0, 1.5, 3.0))
        if slot["tiered"]
        else LinearPricing()
    )
    dc = slot["dc"]
    return SlotServiceProblem(
        cluster=cluster,
        state=slot["state"],
        queue_weights=dc if weights is None else weights,
        h_upper=np.minimum(cluster.max_service_matrix(), dc + 1.0),
        v=slot["v"],
        pricing=pricing,
    )


def service_matrices(shape):
    """Candidate ``h``: within the box, above it, below zero, -0.0 entries."""
    return st.lists(
        st.sampled_from([-0.5, -0.0, 0.0, 0.25, 1.0, 2.0, 3.5, 8.0, 60.0]),
        min_size=shape[0] * shape[1],
        max_size=shape[0] * shape[1],
    ).map(lambda values: np.array(values).reshape(shape))


@settings(max_examples=300, deadline=None)
@given(slots())
def test_route_matches_loop(slot):
    cluster = slot["cluster"]
    scheduler = GreFarScheduler(cluster, v=slot["v"], physical=slot["physical"])
    caps = slot["state"].capacities(cluster)
    fast = scheduler._route(slot["front"], slot["dc"], caps)
    assert_bits_equal(fast, route_loop(scheduler, slot["front"], slot["dc"], caps))


@settings(max_examples=300, deadline=None)
@given(slots(), st.data())
def test_route_greedily_matches_loop(slot, data):
    # Tied, negative and non-ascending keys; fractional fronts and dark sites
    # come with the slot.
    cluster = slot["cluster"]
    shape = slot["dc"].shape
    keys = slot["dc"] if data.draw(st.booleans()) else np.array(
        data.draw(
            st.lists(
                st.sampled_from([-2.0, -0.0, 0.0, 0.0, 1.0, 3.5]),
                min_size=shape[0] * shape[1],
                max_size=shape[0] * shape[1],
            )
        )
    ).reshape(shape)
    caps = slot["state"].capacities(cluster)
    fast = route_greedily(cluster, slot["front"], keys, routable_sites(cluster, caps))
    assert not fast.flags.writeable
    assert_bits_equal(fast, route_greedily_loop(cluster, slot["front"], keys, caps))


@settings(max_examples=200, deadline=None)
@given(slots(), st.data())
def test_clip_feasible_matches_loop(slot, data):
    problem = problem_for(slot)
    h = data.draw(service_matrices(problem.h_upper.shape))
    assert_bits_equal(problem.clip_feasible(h), clip_feasible_loop(problem, h))
    # Loads a hair either side of capacity (and of memory, where it binds).
    box = np.clip(h, 0.0, problem.h_upper)
    sites = len(box)
    offsets = np.array(
        data.draw(
            st.lists(
                st.sampled_from([-1e-9, 0.0, 5e-10, 2e-9]), min_size=sites, max_size=sites
            )
        )
    )
    edges = [(problem.loads(box), problem.site_capacities())]
    if slot["cluster"].has_memory_constraints:
        edges.append((problem.memory_used(box), problem.cluster.memory_capacities))
    for used, limit in edges:
        hit = (used > 0) & np.isfinite(limit)
        scale = np.where(hit, (limit + offsets) / np.where(hit, used, 1.0), 1.0)
        edge = box * scale[:, np.newaxis]
        assert_bits_equal(problem.clip_feasible(edge), clip_feasible_loop(problem, edge))


@settings(max_examples=200, deadline=None)
@given(slots())
def test_marginal_cost_segments_match_tier_walk(slot):
    problem = problem_for(slot)
    for i in range(slot["cluster"].num_datacenters):
        fast = problem.marginal_cost_segments(i)
        slow = marginal_cost_segments_walk(problem, i)
        assert_bits_equal(np.reshape(fast, (-1, 2)), np.reshape(slow, (-1, 2)))


@settings(max_examples=200, deadline=None)
@given(slots(), st.data())
def test_account_work_matches_add_at(slot, data):
    cluster = slot["cluster"]
    problem = problem_for(slot)
    h = data.draw(service_matrices(problem.h_upper.shape))
    slow = account_work_add_at(cluster, h)
    assert_bits_equal(problem.account_work(h), slow)
    zeros = np.zeros_like(h)
    action = Action(zeros, np.maximum(h, 0.0), np.zeros((h.shape[0], 1)))
    assert_bits_equal(action.account_work(cluster), account_work_add_at(cluster, action.serve))


@settings(max_examples=200, deadline=None)
@given(slots(), st.data())
def test_busy_counts_match_columns(slot, data):
    cluster = slot["cluster"]
    supply = supply_matrix(cluster, slot["state"].availability)
    totals = supply.sum(axis=1)
    sites = len(totals)
    fractions = data.draw(
        st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]), min_size=sites, max_size=sites)
    )
    loads = totals * np.array(fractions)
    assert_bits_equal(
        busy_counts(cluster, supply, loads), busy_counts_columns(cluster, supply, loads)
    )


@settings(max_examples=200, deadline=None)
@given(slots())
def test_greedy_walk_matches_per_site(slot):
    problem = problem_for(slot)
    segments = [problem.marginal_cost_segments(i) for i in range(problem.h_upper.shape[0])]
    h_fast, cost_fast = greedy_walk(problem.queue_weights, walk_inputs(problem))
    h_slow, cost_slow = greedy_walk_per_site(
        problem.queue_weights, problem.h_upper, problem.cluster.demands, problem.v, segments
    )
    assert_bits_equal(h_fast, h_slow)
    assert_bits_equal(cost_fast, cost_slow)


FAIRNESS = (
    QuadraticFairness(),
    AlphaFairness(alpha=0.5),
    AlphaFairness(alpha=1.0),
    AlphaFairness(alpha=2.0),
    MaxMinFairness(),
    JainFairness(),
)


@settings(max_examples=150, deadline=None)
@given(
    slots(),
    st.data(),
    st.sampled_from(FAIRNESS),
    st.sampled_from([0.5, 10.0, 100.0]),
    st.sampled_from([2, 5, 100]),
    st.sampled_from([1e-9, 1e-3, 0.1]),
)
def test_frank_wolfe_matches_loop(slot, data, fairness, beta, max_iterations, tolerance):
    # Memory-limited clusters (the LP oracle) come with the drawn slot.
    # Most examples light every server, so that the loop runs; a dark
    # slot returns before it.
    state = slot["state"]
    servers = np.array([dc.max_servers for dc in slot["cluster"].datacenters], dtype=float)
    lit = data.draw(st.sampled_from(["full", "full", "full", "drawn", "dark"]))
    if lit != "drawn":
        availability = servers if lit == "full" else np.zeros_like(servers)
        slot = {**slot, "state": ClusterState(availability, state.prices)}
    shape = slot["dc"].shape
    weights = np.array(
        data.draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.0, 9.0)),
                min_size=shape[0] * shape[1],
                max_size=shape[0] * shape[1],
            )
        )
    ).reshape(shape)
    problem = dataclasses.replace(
        problem_for(slot, weights=weights), beta=beta, fairness=fairness
    )
    fast = solve_counted(frank_wolfe, problem, max_iterations, tolerance)
    slow = solve_counted(frank_wolfe_loop, problem, max_iterations, tolerance)
    # Where HiGHS fails on the LP oracle's weights, both fail alike.
    assert type(fast) is type(slow)
    if isinstance(slow, str):
        assert fast == slow
        return
    h_fast, gap_fast, steps_fast, capped_fast = fast
    h_slow, gap_slow, steps_slow, capped_slow = slow
    assert_bits_equal(h_fast, h_slow)
    assert_bits_equal(gap_fast, gap_slow)
    assert (steps_fast, capped_fast) == (steps_slow, capped_slow)


def solve_counted(solve, problem, max_iterations, tolerance):
    """``(h, gap, steps, capped)`` from *solve*, or its ``SolverFailure`` message."""
    stats = stats_registry()
    before = stats.counter("solve.qp.capped")
    try:
        h, gap, steps = solve(problem, max_iterations, tolerance)
    except SolverFailure as exc:
        return str(exc)
    return h, gap, steps, stats.counter("solve.qp.capped") - before


# ----------------------------------------------------------------------
# The supervisor's one check and busy_counts' in-loop checks
# ----------------------------------------------------------------------
def _nudged(value, ulps):
    """*value* moved *ulps* representable doubles up (or down)."""
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.inf if ulps > 0 else -np.inf)
    return value


def _at_limit(h, used, limit, offset):
    """*h* with each site's row scaled so its *used* lands near ``limit + 1e-9``."""
    hit = (used > 0) & np.isfinite(limit)
    target = _nudged(limit + 1e-9, offset)
    return h * np.where(hit, target / np.where(hit, used, 1.0), 1.0)[:, np.newaxis]


@st.composite
def raw_answers(draw, problem):
    """A backend answer: healthy, at the box or limit edges, -0.0, NaN/inf, misshapen."""
    upper = problem.h_upper
    shape = upper.shape
    kind = draw(
        st.sampled_from(
            ["greedy", "box", "upper", "upper", "negzero", "capacity", "memory", "drawn",
             "nonfinite", "shape"]
        )
    )
    cells = shape[0] * shape[1]
    fractions = st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=cells, max_size=cells
    ).map(lambda values: np.array(values).reshape(shape))
    # A multiple of h_upper, or its clip: a feasible answer near the edges.
    base = upper * draw(fractions)
    if kind == "upper" or draw(st.booleans()):
        base = np.array(problem.clip_feasible(base))
    if kind == "greedy":
        raw = solve_greedy(problem)
    elif kind == "box":
        raw = base
    elif kind == "upper":
        # Some entries at h_upper (ineligible zeros included) moved one ulp,
        # all up or all down.
        step = draw(st.sampled_from([-1, 1]))
        picked = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
        nudged = [
            _nudged(value, step if pick else 0)
            for value, pick in zip(upper.ravel().tolist(), picked)
        ]
        raw = np.where(base == upper, np.reshape(nudged, shape), base)
    elif kind == "negzero":
        raw = np.where(base == 0.0, -0.0, base)
    elif kind in ("capacity", "memory"):
        if kind == "capacity":
            used, limit = problem.loads(base), problem.site_capacities()
        else:
            used, limit = problem.memory_used(base), problem.cluster.memory_capacities
        raw = _at_limit(base, used, limit, draw(st.integers(-2, 2)))
    elif kind == "drawn":
        raw = draw(service_matrices(shape))
    elif kind == "nonfinite":
        raw = np.array(upper)
        raw.flat[draw(st.integers(0, cells - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf])
        )
    else:
        raw = np.zeros(draw(st.sampled_from([(shape[0], shape[1] + 1), (cells,), (0,)])))
    form = draw(st.sampled_from(["array", "array", "fortran", "list"]))
    if form == "fortran":
        return np.asfortranarray(raw)
    return raw.tolist() if form == "list" else raw


def supervise(supervisor_type, problem, raw):
    """``(outcome or ContractViolation text, resilient.clip.changed increment)``."""

    def answer(_problem):
        return raw

    stats = stats_registry()
    before = stats.counter("resilient.clip.changed")
    try:
        outcome = supervisor_type(chain=(answer, "greedy", "zero")).solve(problem, slot=7)
    except ContractViolation as exc:
        outcome = str(exc)
    return outcome, stats.counter("resilient.clip.changed") - before


@settings(max_examples=400, deadline=None)
@given(slots(), st.data(), st.booleans())
def test_supervised_attempt_matches_clip_then_check(slot, data, contracts):
    problem = problem_for(slot)
    raw = data.draw(raw_answers(problem))
    kept = np.array(raw, dtype=np.float64)
    with mock.patch.dict(os.environ, {"REPRO_CONTRACTS": "1" if contracts else "0"}):
        fast, fast_changed = supervise(SupervisedSolver, problem, raw)
        slow, slow_changed = supervise(ClipThenCheckSupervisor, problem, raw)
    assert fast_changed == slow_changed
    if isinstance(slow, str):
        assert fast == slow
        return
    assert_bits_equal(fast.h, slow.h)
    assert_bits_equal(fast.loads, slow.loads)
    assert not fast.h.flags.writeable and not fast.loads.flags.writeable
    assert (fast.backend, fast.degraded) == (slow.backend, slow.degraded)
    assert fast.incidents == slow.incidents
    # The backend's own array is neither frozen nor changed.
    if isinstance(raw, np.ndarray):
        assert raw.flags.writeable
        assert raw.tobytes() == kept.tobytes()


def site_loads(total):
    """One site's load: served, negative, NaN, or either side of the over-total cut."""
    over = total * (1.0 + 1e-9) + 1e-9
    return st.one_of(
        st.sampled_from([0.0, -0.0, 0.3 * total, total, np.nan, np.inf, -1.0]),
        st.integers(-1, 1).map(lambda ulps: _nudged(over, ulps)),
        st.integers(-1, 1).map(lambda ulps: _nudged(-1e-12, ulps)),
    )


def busy_or_error(busy, cluster, supply, loads, totals):
    try:
        return busy(cluster, supply, loads, totals)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(slots(), st.data(), st.booleans())
def test_busy_counts_checks_match_array_checks(slot, data, pass_totals):
    cluster = slot["cluster"]
    supply = supply_matrix(cluster, slot["state"].availability)
    totals = supply.sum(axis=1)
    loads = np.array([data.draw(site_loads(total)) for total in totals.tolist()])
    given_totals = totals if pass_totals else None
    fast = busy_or_error(busy_counts, cluster, supply, loads, given_totals)
    slow = busy_or_error(busy_counts_array_checks, cluster, supply, loads, given_totals)
    assert type(fast) is type(slow)
    if isinstance(slow, str):
        assert fast == slow
        return
    assert_bits_equal(fast, slow)
    assert not fast.flags.writeable
