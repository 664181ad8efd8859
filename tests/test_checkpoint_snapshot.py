"""A checkpoint holds run state only: the cluster is a token, the values are plain.

GreFar's run state is the queue vector of eqs. (12)-(13), its FIFO
ledgers and the loop counters; the cluster is static input.  A
snapshot therefore writes every reference to the run's cluster as a
token and every number as a Python float, and restoring binds the
live scenario's cluster:

* a resumed run (batch ``Simulator.run`` or ``SchedulerService``) holds
  ``scenario.cluster`` by identity, so no slot builds a stand-alone
  ``SlotEnvironment`` table for a copy of it;
* a restored run equals an uninterrupted one value for value and type
  for type;
* the snapshot and its journal frames reference neither the cluster
  class nor any numpy reconstruction (scanned with ``pickletools``).
"""

from __future__ import annotations

import io
import pickle
import pickletools
from collections import deque

import numpy as np
import pytest

import repro.model.state as state_module
from repro.core.grefar import GreFarScheduler
from repro.faults.events import FaultEvent, FaultSchedule
from repro.faults.injector import FaultInjector
from repro.resilient.checkpoint import (
    Checkpointer,
    SimulationKilled,
    UnboundCluster,
    journal_path,
)
from repro.scenarios import small_scenario
from repro.service.app import SchedulerService
from repro.service.state import ServiceConfig
from repro.simulation.simulator import Simulator
from tests.checkpoint_slots import snapshot_pickle

KILL_AT = 30


def _simulator(scenario) -> Simulator:
    # An outage before the kill slot leaves evicted work pending re-admission.
    outage = FaultEvent("outage", dc=1, start=20, duration=8)
    return Simulator(
        scenario,
        GreFarScheduler(scenario.cluster, v=5.0),
        injector=FaultInjector(scenario.cluster, FaultSchedule((outage,))),
    )


@pytest.fixture
def slot_tables(monkeypatch) -> list:
    """Every stand-alone slot table a ``ClusterState`` builds from now on."""
    built: list = []
    table = state_module.SlotEnvironment

    def counted(*args, **kwargs):
        built.append(args[0])
        return table(*args, **kwargs)

    monkeypatch.setattr(state_module, "SlotEnvironment", counted)
    return built


def _service_config(tmp_path, **overrides) -> ServiceConfig:
    settings = dict(
        scenario_kind="small",
        capacity_slots=40,
        scheduler_kwargs={"v": 10.0},
        checkpoint_every=5,
        intake_capacity=10_000,
        rate=1e9,
        burst=1e9,
        data_dir=str(tmp_path / "svc"),
    )
    settings.update(overrides)
    return ServiceConfig(**settings)


def _tick_with_trace_arrivals(service: SchedulerService, slots: int) -> None:
    """Submit each slot's environment-trace arrivals, then tick it."""
    state = service.state
    for _ in range(slots):
        row = state.environment.arrivals[state.sim.next_slot]
        for job_type, count in enumerate(row.tolist()):
            if count > 0:
                account = state.cluster.job_types[job_type].account
                status, body, _ = service.submit(
                    {"account": account, "job_type": job_type, "count": int(count)}
                )
                assert status == 202, body
        service.ticker.tick(1)


# ----------------------------------------------------------------------
# Resumed runs hold the live cluster
# ----------------------------------------------------------------------
def test_batch_resume_holds_the_scenario_cluster(tmp_path, slot_tables):
    scenario = small_scenario(horizon=60, seed=3)
    killer = Checkpointer(key="lean", every=10, kill_at=KILL_AT, directory=tmp_path)
    with pytest.raises(SimulationKilled):
        _simulator(scenario).run(checkpointer=killer)
    del slot_tables[:]

    resumed = _simulator(scenario)
    result = resumed.run(checkpointer=Checkpointer(key="lean", directory=tmp_path), resume=True)

    assert slot_tables == []
    cluster = scenario.cluster
    assert resumed.queues.cluster is cluster
    assert resumed.scheduler.cluster is cluster
    assert resumed.injector.cluster is cluster
    assert result.summary == _simulator(scenario).run().summary


def test_service_resume_holds_the_environment_cluster(tmp_path, slot_tables):
    config = _service_config(tmp_path)
    reference = SchedulerService(_service_config(tmp_path / "reference"))
    _tick_with_trace_arrivals(reference, 20)
    first = SchedulerService(config)
    _tick_with_trace_arrivals(first, 12)
    first.shutdown()
    del slot_tables[:]

    resumed = SchedulerService(config, resume=True)
    assert resumed.resumed_from_slot == 12
    _tick_with_trace_arrivals(resumed, 8)

    assert slot_tables == []
    sim = resumed.state.sim
    assert sim.queues.cluster is resumed.state.cluster
    assert sim.scheduler.cluster is resumed.state.cluster
    assert resumed.state.slot_records() == reference.state.slot_records()
    resumed.shutdown()
    reference.shutdown()


# ----------------------------------------------------------------------
# Restored == uninterrupted, value for value and type for type
# ----------------------------------------------------------------------
def _assert_same(fresh, restored, cluster, where: str = "run") -> None:
    """*fresh* and *restored* hold equal values of identical types throughout."""
    assert type(fresh) is type(restored), where
    if fresh is cluster:
        assert restored is cluster, where
    elif isinstance(fresh, np.ndarray):
        assert fresh.dtype == restored.dtype and fresh.shape == restored.shape, where
        assert np.array_equal(fresh, restored, equal_nan=True), where
    elif isinstance(fresh, dict):
        assert list(fresh) == list(restored), where
        for key in fresh:
            _assert_same(fresh[key], restored[key], cluster, f"{where}[{key!r}]")
    elif isinstance(fresh, (list, tuple, deque)):
        assert len(fresh) == len(restored), where
        for i, (a, b) in enumerate(zip(fresh, restored)):
            _assert_same(a, b, cluster, f"{where}[{i}]")
    elif hasattr(fresh, "__dict__"):
        _assert_same(vars(fresh), vars(restored), cluster, where)
    else:
        assert fresh == restored, where


def test_restored_run_equals_the_uninterrupted_run(tmp_path):
    scenario = small_scenario(horizon=60, seed=3)
    fresh = _simulator(scenario)
    fresh.reset()
    for t in range(KILL_AT):
        fresh.step(scenario.arrivals[t])
    checkpointer = Checkpointer(key="same", directory=tmp_path)
    checkpointer.save(fresh.snapshot())

    restored = _simulator(scenario)
    restored.restore(checkpointer.load())
    # One more slot on each side rebuilds the caches a pickle leaves out.
    for sim in (fresh, restored):
        sim.step(scenario.arrivals[KILL_AT])
    for name in ("queues", "metrics", "scheduler", "injector", "next_slot", "dropped",
                 "admitted_total"):
        _assert_same(getattr(fresh, name), getattr(restored, name), scenario.cluster, name)


def test_loaded_snapshot_binds_the_cluster_on_restore(tmp_path):
    scenario = small_scenario(horizon=60, seed=3)
    sim = _simulator(scenario)
    sim.reset()
    for t in range(10):
        sim.step(scenario.arrivals[t])
    checkpointer = Checkpointer(key="unbound", directory=tmp_path)
    checkpointer.save(sim.snapshot())

    payload = checkpointer.load()
    assert isinstance(payload["queues"].cluster, UnboundCluster)
    with pytest.raises(AttributeError):
        payload["scheduler"].cluster.num_datacenters
    restored = _simulator(scenario)
    restored.restore(payload)
    assert restored.queues.cluster is scenario.cluster
    assert restored.scheduler.cluster is scenario.cluster
    assert restored.injector.cluster is scenario.cluster
    # Read as a plain pickle, the token loads as the same stand-in.
    record = pickle.loads(snapshot_pickle(checkpointer.path))
    assert isinstance(record["payload"]["queues"].cluster, UnboundCluster)


# ----------------------------------------------------------------------
# What the files hold
# ----------------------------------------------------------------------
def _references(data: bytes) -> set:
    """The module of every global *data* refers to, and every string it pushes."""
    return {
        arg.split(" ")[0] if op.name == "GLOBAL" else arg
        for op, arg, _ in pickletools.genops(data)
        if isinstance(arg, str)
    }


def _frames(data: bytes) -> list:
    stream, frames = io.BytesIO(data), []
    while stream.tell() < len(data):
        start = stream.tell()
        pickle.load(stream)
        frames.append(data[start : stream.tell()])
    return frames


def _assert_lean(snapshot: bytes, journal: bytes) -> None:
    seen = _references(snapshot)
    # The scan sees the run state's own classes and the cluster token ...
    assert {"repro.model.queues", "repro.resilient.checkpoint"} <= seen
    frames = _frames(journal)
    assert len(frames) >= 2
    for data in [snapshot, *frames]:
        refs = _references(data)
        # ... but not the cluster class, nor any array reconstruction.
        assert "repro.model.cluster" not in refs
        assert not [ref for ref in refs if ref.startswith("numpy") or "_reconstruct" in ref]


def test_service_checkpoint_holds_run_state_only(tmp_path):
    config = _service_config(
        tmp_path, scenario_kind="paper", scheduler_kwargs={"v": 7.5}, checkpoint_every=10
    )
    service = SchedulerService(config)
    _tick_with_trace_arrivals(service, 20)
    path = service.checkpointer.path
    _assert_lean(snapshot_pickle(path), journal_path(path).read_bytes())
    service.shutdown()


def test_batch_checkpoint_holds_run_state_only(tmp_path):
    scenario = small_scenario(horizon=60, seed=3)
    checkpointer = Checkpointer(key="batch", every=10, kill_at=KILL_AT, directory=tmp_path)
    sim = Simulator(scenario, GreFarScheduler(scenario.cluster, v=5.0))
    with pytest.raises(SimulationKilled):
        sim.run(checkpointer=checkpointer)
    path = checkpointer.path
    _assert_lean(snapshot_pickle(path), journal_path(path).read_bytes())


def test_faulted_batch_checkpoint_holds_run_state_only(tmp_path):
    # An outage three slots before the kill leaves evicted work pending
    # re-admission in the snapshot.
    scenario = small_scenario(horizon=60, seed=3)
    outage = FaultEvent("outage", dc=1, start=KILL_AT - 3, duration=8)
    checkpointer = Checkpointer(key="faulted", every=10, kill_at=KILL_AT, directory=tmp_path)
    sim = Simulator(
        scenario,
        GreFarScheduler(scenario.cluster, v=5.0),
        injector=FaultInjector(scenario.cluster, FaultSchedule((outage,))),
    )
    with pytest.raises(SimulationKilled):
        sim.run(checkpointer=checkpointer)
    injector = checkpointer.load()["injector"]
    assert injector.eviction_log and injector._pending
    path = checkpointer.path
    _assert_lean(snapshot_pickle(path), journal_path(path).read_bytes())
