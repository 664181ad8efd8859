"""The per-scenario slot table equals the per-slot computation, bit for bit.

A :class:`~repro.simulation.trace.Scenario` computes its queue-independent
slot inputs over the whole horizon at once
(:class:`~repro.model.environment.SlotEnvironment`); a state built by
hand computes the same quantities on a length-1 horizon.  Row ``t`` of a
scenario's table must equal the length-1 table of a hand-built copy of
``state_at(t)``: capacities, ``R(t)``, supply, fastest speed and the
merged marginal-cost curves under linear and tiered pricing, values and
signs of zero.  The length-1 curves in turn match the scalar tier walk
of ``tests/oracles/slot_loops.py`` (``tests/test_slot_oracles.py``).
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grefar import GreFarScheduler
from repro.model.cluster import Cluster
from repro.model.datacenter import DataCenter
from repro.model.job import Account, JobType
from repro.model.pricing import LinearPricing, TieredPricing
from repro.model.server import ServerClass
from repro.model.state import ClusterState
from repro.scenarios import paper_scenario
from repro.simulation.simulator import Simulator
from repro.simulation.trace import Scenario

PRICINGS = (
    LinearPricing(),
    TieredPricing(boundaries=(1.0, 4.0), multipliers=(1.0, 1.5, 3.0)),
    TieredPricing(boundaries=(0.5,), multipliers=(1.0, 1.0)),
)


def assert_bits_equal(fast, slow):
    fast = np.asarray(fast, dtype=np.float64)
    slow = np.asarray(slow, dtype=np.float64)
    assert fast.shape == slow.shape
    assert np.array_equal(fast, slow)
    assert np.array_equal(np.signbit(fast), np.signbit(slow))


@st.composite
def scenarios(draw):
    """A random cluster and a short trace with dark sites and capacity slivers."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 6))
    classes = tuple(
        ServerClass(
            name=f"s{c}",
            speed=draw(st.sampled_from([0.5, 0.75, 1.0, 1.15, 1.5])),
            active_power=draw(st.sampled_from([0.25, 0.5, 0.6, 1.0, 2.0])),
        )
        for c in range(k)
    )
    datacenters = tuple(
        DataCenter(name=f"d{i}", max_servers=[draw(st.integers(0, 12)) for _ in range(k)])
        for i in range(n)
    )
    job_types = (JobType(name="j", demand=1.0, eligible_dcs=tuple(range(n)), account=0),)
    cluster = Cluster(classes, datacenters, job_types, (Account(name="a", fair_share=1.0),))
    cells = horizon * n * k
    availability = np.array(
        draw(
            st.lists(
                st.one_of(
                    st.integers(0, 12).map(float),
                    st.floats(0.0, 12.0),
                    st.sampled_from([5e-13, 5e-10, 3e-9]),
                ),
                min_size=cells,
                max_size=cells,
            )
        )
    ).reshape(horizon, n, k)
    dark = np.array(draw(st.lists(st.booleans(), min_size=horizon * n, max_size=horizon * n)))
    availability[dark.reshape(horizon, n)] = 0.0
    prices = np.array(
        draw(
            st.lists(
                st.sampled_from([-0.0, 0.0, 0.1, 0.392, 0.4, 1.2, 7.5]),
                min_size=horizon * n,
                max_size=horizon * n,
            )
        )
    ).reshape(horizon, n)
    return Scenario(cluster, np.zeros((horizon, 1)), availability, prices)


def assert_row_matches_length_one(state: ClusterState, cluster: Cluster) -> None:
    """*state*'s table row against the length-1 table of a hand-built copy."""
    table, t = state.environment(cluster)
    alone, row = ClusterState(state.availability, state.prices).environment(cluster)
    assert row == 0 and alone.supply.shape[0] == 1
    assert_bits_equal(table.capacities[t], alone.capacities[0])
    assert_bits_equal(table.total_resource[t], alone.total_resource[0])
    assert_bits_equal(table.supply[t], alone.supply[0])
    assert_bits_equal(table.fastest[t], alone.fastest[0])
    assert state.capacities(cluster) is state.capacities(cluster)
    assert state.total_resource(cluster) == float(alone.total_resource[0])
    for pricing in PRICINGS:
        work, cost, count = table.segments(pricing)
        work1, cost1, count1 = alone.segments(pricing)
        assert_bits_equal(count[t], count1[0])
        for i, used in enumerate(count[t].tolist()):
            assert_bits_equal(work[t, i, :used], work1[0, i, :used])
            assert_bits_equal(cost[t, i, :used], cost1[0, i, :used])
            assert not work[t, i, used:].any() and not cost[t, i, used:].any()


@settings(max_examples=200, deadline=None)
@given(scenarios(), st.data())
def test_table_rows_match_length_one_tables(scenario, data):
    cluster = scenario.cluster
    for t in range(scenario.horizon):
        assert_row_matches_length_one(scenario.state_at(t), cluster)
    stop = data.draw(st.integers(1, scenario.horizon))
    short = scenario.truncated(stop)
    for t in range(stop):
        assert_row_matches_length_one(short.state_at(t), cluster)
        assert_bits_equal(
            short.state_at(t).capacities(cluster), scenario.state_at(t).capacities(cluster)
        )


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.data())
def test_filled_states_match_a_trace_of_them(scenario, data):
    # Observed states with missing signals, filled by prepare_state; the
    # filled snapshots, written out as a trace, must give the same rows.
    cluster = scenario.cluster
    scheduler = GreFarScheduler(cluster)
    filled = []
    for t in range(scenario.horizon):
        state = scenario.state_at(t)
        availability = np.array(state.availability)
        prices = np.array(state.prices)
        for i in range(cluster.num_datacenters):
            if data.draw(st.booleans()):
                prices[i] = np.nan
            if data.draw(st.booleans()):
                availability[i] = np.nan
        observed = ClusterState(availability, prices, missing_ok=True)
        filled.append(scheduler.prepare_state(observed))
    trace = Scenario(
        cluster,
        np.zeros((len(filled), 1)),
        np.stack([s.availability for s in filled]),
        np.stack([s.prices for s in filled]),
    )
    for t, state in enumerate(filled):
        assert_row_matches_length_one(trace.state_at(t), cluster)
        table, row = trace.state_at(t).environment(cluster)
        alone, _ = state.environment(cluster)
        assert_bits_equal(table.capacities[row], alone.capacities[0])
        assert_bits_equal(table.fastest[row], alone.fastest[0])


def test_one_table_per_scenario_shared_by_runs():
    scenario = paper_scenario(horizon=30, seed=2)
    cluster = scenario.cluster
    table, _ = scenario.state_at(0).environment(cluster)
    for v in (0.1, 7.5):
        Simulator(scenario, GreFarScheduler(cluster, v=v)).run()
    assert scenario.state_at(29).environment(cluster) == (table, 29)
    assert table.segments(LinearPricing()) is table.segments(LinearPricing())


def test_table_stays_out_of_pickles_and_equality():
    scenario = paper_scenario(horizon=40, seed=4)
    twin = paper_scenario(horizon=40, seed=4)
    before = pickle.dumps(scenario)
    key = hash(scenario)
    scenario.state_at(3).environment(scenario.cluster)[0].segments(LinearPricing())
    assert "_environment" in scenario.__dict__
    assert pickle.dumps(scenario) == before
    assert hash(scenario) == key
    assert scenario == twin and twin == scenario
    restored = pickle.loads(before)
    assert "_environment" not in restored.__dict__
    assert restored == scenario


def test_state_for_another_cluster_gets_its_own_table():
    scenario = paper_scenario(horizon=5, seed=1)
    state = scenario.state_at(2)
    other = Cluster(
        scenario.cluster.server_classes,
        scenario.cluster.datacenters,
        scenario.cluster.job_types,
        scenario.cluster.accounts,
    )
    table, row = state.environment(other)
    assert table.cluster is other and row == 0
    assert_bits_equal(table.capacities[0], scenario.state_at(2).capacities(scenario.cluster))
