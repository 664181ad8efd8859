"""Tests for the declarative run engine (repro.runner).

Covers the tentpole guarantees: specs are frozen/hashable/picklable
and rebuild through the scheduler registry; ``jobs=2`` results are
bit-identical to the serial ``jobs=1`` reference; the content-addressed
cache hits on identical specs and misses on any spec change or a
schema-tag bump.

The suite-wide ``REPRO_CONTRACTS=1`` (see conftest) makes ``run_many``
bypass caches so contract observers always execute — the cache tests
therefore monkeypatch it off and use a ``tmp_path`` cache root.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.runner import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    RunResult,
    RunSpec,
    ScenarioSpec,
    cache_key,
    default_cache,
    reset_stats,
    run_many,
    run_spec,
    runner_stats,
    scenario_fingerprint,
)
from repro.runner.cache import SCHEMA_TAG
from repro.schedulers import build_scheduler, scheduler_entry, scheduler_names
from repro.schedulers.always import AlwaysScheduler

SMALL = ScenarioSpec(kind="small", horizon=40, seed=3)


def small_spec(**changes) -> RunSpec:
    spec = RunSpec(
        scenario=SMALL,
        scheduler="grefar",
        scheduler_kwargs={"v": 7.5, "beta": 50.0},
        collect=("energy_series", "dc_delay_series:0"),
    )
    return spec.replace(**changes) if changes else spec


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A tmp-rooted cache with runtime contracts off so it is honored."""
    monkeypatch.setenv("REPRO_CONTRACTS", "0")
    return ResultCache(tmp_path / "cache")


# ----------------------------------------------------------------------
# Spec semantics
# ----------------------------------------------------------------------
def test_spec_is_frozen_hashable_picklable():
    spec = small_spec()
    with pytest.raises(Exception):
        spec.scheduler = "always"
    assert spec == small_spec()
    assert hash(spec) == hash(small_spec())
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert len({spec, small_spec(), small_spec(scheduler_kwargs={"v": 1.0})}) == 2


def test_spec_kwargs_normalized_order_insensitive():
    a = RunSpec(scheduler="grefar", scheduler_kwargs={"v": 1.0, "beta": 2.0})
    b = RunSpec(scheduler="grefar", scheduler_kwargs={"beta": 2.0, "v": 1.0})
    assert a == b
    assert a.spec_hash == b.spec_hash


def test_spec_rejects_unknown_scheduler_and_kwargs():
    with pytest.raises(ValueError, match="unknown scheduler"):
        RunSpec(scheduler="nope")
    with pytest.raises(ValueError, match="does not accept"):
        RunSpec(scheduler="always", scheduler_kwargs={"v": 1.0})
    with pytest.raises(ValueError, match="unknown collector"):
        RunSpec(collect=("no_such_series",))
    with pytest.raises(ValueError, match="scenario-only"):
        RunSpec(scheduler=None, collect=("energy_series",))


@pytest.mark.parametrize("kind", ["nope", "wide"])
def test_spec_rejects_unknown_scenario_kind(kind):
    with pytest.raises(ValueError, match="unknown scenario kind"):
        ScenarioSpec(kind=kind)


def test_registry_round_trip(tiny_cluster):
    """Every registry name builds the class its entry lazily loads."""
    required = {"threshold": {"threshold": 0.5}}
    assert scheduler_names() == sorted(scheduler_names())
    for name in scheduler_names():
        entry = scheduler_entry(name)
        scheduler = build_scheduler(name, tiny_cluster, **required.get(name, {}))
        assert type(scheduler) is entry.load()
        # The spec accepts the registry name and every declared param
        # is rejected-checked at construction time, not in a worker.
        RunSpec(scenario=SMALL, scheduler=name)


def test_spec_worker_round_trip_matches_inline():
    """A pickled spec executed 'worker-style' matches the in-process run."""
    spec = small_spec()
    shipped = pickle.loads(pickle.dumps(spec))
    direct = run_spec(spec)
    rebuilt = run_spec(shipped)
    assert direct.summary.as_dict() == rebuilt.summary.as_dict()


# ----------------------------------------------------------------------
# Parallel execution
# ----------------------------------------------------------------------
def test_jobs2_bit_identical_to_jobs1():
    specs = [small_spec(scheduler_kwargs={"v": v, "beta": 50.0}) for v in (2.0, 7.5, 15.0)]
    serial = run_many(specs, jobs=1)
    parallel = run_many(specs, jobs=2)
    assert len(serial) == len(parallel) == len(specs)
    for one, two in zip(serial, parallel):
        assert one.summary.as_dict() == two.summary.as_dict()
        assert set(one.series) == set(two.series)
        for name in one.series:
            np.testing.assert_array_equal(one.series[name], two.series[name])


def test_results_in_spec_order():
    specs = [small_spec(horizon=h) for h in (10, 30, 20)]
    results = run_many(specs, jobs=2)
    assert [r.summary.horizon for r in results] == [10, 30, 20]


def test_scenario_only_spec_collects_without_simulating():
    spec = RunSpec(
        scenario=SMALL,
        scheduler=None,
        collect=("scenario.price_mean", "scenario.price_max"),
    )
    result = run_spec(spec)
    assert result.summary is None
    assert result.series["scenario.price_mean"].shape[0] > 0
    assert result.series["scenario.price_max"] > 0.0


def test_scenario_override_matches_declarative(scenario):
    declarative = RunSpec(
        scenario=ScenarioSpec(kind="small", horizon=scenario.horizon, seed=3),
        scheduler="grefar",
    )
    inline = RunSpec(scenario=None, scheduler="grefar", horizon=scenario.horizon)
    a = run_spec(declarative)
    b = run_many([inline], scenario=scenario)[0]
    assert a.summary.as_dict() == b.summary.as_dict()


# ----------------------------------------------------------------------
# Cache behavior
# ----------------------------------------------------------------------
def test_cache_miss_then_hit_bit_identical(cache):
    spec = small_spec()
    first = run_many([spec], cache=cache)[0]
    assert not first.cached
    assert len(cache.entries()) == 1

    second = run_many([spec], cache=cache)[0]
    assert second.cached
    assert second.summary.as_dict() == first.summary.as_dict()
    for name in first.series:
        np.testing.assert_array_equal(first.series[name], second.series[name])


def test_cache_spec_change_misses(cache):
    run_many([small_spec()], cache=cache)
    for changed in (
        small_spec(scheduler_kwargs={"v": 1.0, "beta": 50.0}),
        small_spec(horizon=17),
        small_spec(scenario=SMALL.__class__(kind="small", horizon=40, seed=4)),
        small_spec(collect=("energy_series",)),
    ):
        result = run_many([changed], cache=cache)[0]
        assert not result.cached, f"spec change should miss: {changed.describe()}"


def test_cache_schema_tag_bump_misses(cache):
    spec = small_spec()
    run_many([spec], cache=cache)
    bumped = ResultCache(cache.root, schema=SCHEMA_TAG + "-bumped")
    result = run_many([spec], cache=bumped)[0]
    assert not result.cached
    # Both schemas now hold one entry each; clear() removes them all.
    assert len(cache.entries()) == len(bumped.entries()) == 1
    assert bumped.clear() == 2
    assert cache.entries() == []


def test_cache_corrupt_entry_is_a_miss(cache):
    spec = small_spec()
    run_many([spec], cache=cache)
    (entry,) = cache.entries()
    entry.write_text("{not json", encoding="utf-8")
    result = run_many([spec], cache=cache)[0]
    assert not result.cached


def test_cache_key_honors_scenario_fingerprint(scenario):
    inline = RunSpec(scenario=None, scheduler="grefar", horizon=20)
    keyed = cache_key(inline, scenario)
    assert keyed != cache_key(inline, None)
    assert keyed == cache_key(inline, scenario)
    assert scenario_fingerprint(scenario) == scenario_fingerprint(scenario)


def test_live_overrides_never_cached(cache, scenario):
    from repro.schedulers.always import AlwaysScheduler

    spec = RunSpec(scenario=None, scheduler=None, horizon=20)
    live = AlwaysScheduler(scenario.cluster)
    result = run_many([spec], cache=cache, scenario=scenario, schedulers=[live])[0]
    assert result.summary is not None
    assert not result.cached
    assert cache.entries() == []


def test_contracts_bypass_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CONTRACTS", "1")
    cache = ResultCache(tmp_path / "cache")
    spec = small_spec()
    run_many([spec], cache=cache)
    # Contracts force execution and skip the store entirely.
    assert cache.entries() == []


def test_default_cache_env_escape_hatches(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    relocated = default_cache()
    assert relocated is not None
    assert relocated.root == tmp_path / "elsewhere"
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert default_cache().root.name == DEFAULT_CACHE_DIR
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert default_cache() is None


def test_result_payload_round_trip():
    result = run_spec(small_spec())
    payload = RunResult.from_payload(result.to_payload())
    assert payload.summary.as_dict() == result.summary.as_dict()
    for name in result.series:
        np.testing.assert_array_equal(payload.series[name], result.series[name])


# ----------------------------------------------------------------------
# Worker-death robustness
# ----------------------------------------------------------------------
class _PoolWorkerKiller(AlwaysScheduler):
    """Live scheduler that hard-kills any pool worker running it.

    ``os._exit`` inside a ProcessPoolExecutor worker surfaces to the
    parent as ``BrokenProcessPool`` — the same signature as an OOM kill
    or segfault.  In the parent process (``parent_process() is None``)
    it behaves normally, so the engine's in-process retry succeeds.
    """

    def decide(self, t, state, queues):
        if multiprocessing.parent_process() is not None:
            os._exit(1)
        return super().decide(t, state, queues)


def test_pool_worker_death_retried_in_process(scenario):
    specs = [
        RunSpec(scenario=None, scheduler=None, horizon=10) for _ in range(2)
    ]
    serial = run_many(
        specs,
        jobs=1,
        scenario=scenario,
        schedulers=[_PoolWorkerKiller(scenario.cluster) for _ in specs],
    )
    reset_stats()
    survived = run_many(
        specs,
        jobs=2,
        scenario=scenario,
        schedulers=[_PoolWorkerKiller(scenario.cluster) for _ in specs],
    )
    stats = runner_stats()
    assert stats.incidents == 2
    assert "2 incident(s)" in stats.render()
    for reference, result in zip(serial, survived):
        assert result.summary.as_dict() == reference.summary.as_dict()
    reset_stats()


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
def test_runner_stats_counts_hits_and_executions(cache):
    reset_stats()
    spec = small_spec()
    run_many([spec], cache=cache)
    run_many([spec], cache=cache)
    stats = runner_stats()
    assert stats.executed == 1
    assert stats.cache_hits == 1
    assert stats.render() == "runner: 1 executed, 1 cached (jobs=1)"
    reset_stats()
    assert runner_stats().executed == 0
