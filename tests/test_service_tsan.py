"""Runtime sanitizer drills (``repro.tools.tsan``).

Two directions.  Positive: the real service, exercised end-to-end with
``REPRO_TSAN=1`` — including concurrent submitters — produces **zero**
sanitizer reports while the live-vs-replay metrics stay bit-identical,
so enabling the sanitizer never changes behavior.  Negative: each TSAN
rule demonstrably fires on deliberate misuse, so "zero reports" means
the discipline holds, not that the sanitizer is asleep.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.objective import CostModel
from repro.schedulers import build_scheduler
from repro.service import SchedulerService, ServiceConfig
from repro.simulation.simulator import Simulator
from repro.tools import tsan


def make_config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        scenario_kind="small",
        scenario_seed=0,
        capacity_slots=30,
        scheduler="grefar",
        scheduler_kwargs={"v": 10.0},
        data_dir=str(tmp_path / "svc"),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture
def tsan_on(monkeypatch):
    monkeypatch.setenv("REPRO_TSAN", "1")
    tsan.reset()
    yield
    tsan.reset()


def _submit_ok(service, account, job_type, count):
    status, body, _headers = service.submit(
        {"account": account, "job_type": job_type, "count": count}
    )
    assert status == 202, body


# ----------------------------------------------------------------------
# Positive: the service is clean under the sanitizer
# ----------------------------------------------------------------------
def test_service_locks_are_tracked_when_enabled(tmp_path, tsan_on):
    service = SchedulerService(make_config(tmp_path))
    assert isinstance(service.lock, tsan.TsanLock)
    assert service.lock.name == "SchedulerService.lock"
    assert isinstance(service.ingestor._seq_lock, tsan.TsanLock)
    assert isinstance(service.limiter._lock, tsan.TsanLock)
    service.shutdown()
    assert tsan.reports() == []


def test_full_drill_zero_reports_and_bit_identical_replay(tmp_path, tsan_on):
    service = SchedulerService(make_config(tmp_path))
    schedule = [
        [(0, 0, 12), (1, 1, 4)],
        [],
        [(0, 0, 30), (0, 0, 8), (1, 1, 5)],
        [(1, 1, 2)],
        [(0, 0, 50)],
        [],
    ]
    for batch in schedule:
        for account, job_type, count in batch:
            _submit_ok(service, account, job_type, count)
        service.ticker.tick(1)
    state = service.state

    scenario = state.replay_scenario()
    simulator = Simulator(
        scenario,
        build_scheduler("grefar", scenario.cluster, v=10.0),
        cost_model=CostModel(beta=service.config.cost_beta),
    )
    result = simulator.run()
    # The sanitizer must observe, never perturb: still bit-identical.
    assert result.metrics.energy_cost == state.sim.metrics.energy_cost
    assert result.metrics.combined_cost == state.sim.metrics.combined_cost
    offline = result.metrics.work_per_dc_series()
    live = np.stack([r["work_per_dc"] for r in state.slot_records()])
    assert np.array_equal(offline, live)

    service.shutdown()
    assert tsan.reports() == [], "\n".join(
        f.render() for f in tsan.reports()
    )


def test_concurrent_submitters_and_ticks_zero_reports(tmp_path, tsan_on):
    service = SchedulerService(make_config(tmp_path))
    errors = []

    def hammer(account, job_type):
        try:
            for _ in range(20):
                service.submit(
                    {"account": account, "job_type": job_type, "count": 1}
                )
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(0, 0)),
        threading.Thread(target=hammer, args=(1, 1)),
    ]
    for thread in threads:
        thread.start()
    for _ in range(5):
        service.ticker.tick(1)
    for thread in threads:
        thread.join()
    service.ticker.tick(2)
    service.shutdown()

    assert errors == []
    assert tsan.reports() == [], "\n".join(
        f.render() for f in tsan.reports()
    )


def test_disabled_means_plain_locks(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_TSAN", raising=False)
    service = SchedulerService(make_config(tmp_path))
    assert not isinstance(service.lock, tsan.TsanLock)
    service.shutdown()


# ----------------------------------------------------------------------
# Negative: each rule fires on deliberate misuse
# ----------------------------------------------------------------------
def test_order_inversion_is_recorded(tsan_on):
    first = tsan.named_lock("t.first")
    second = tsan.named_lock("t.second")
    with first:
        with second:
            pass
    with second:
        with first:  # opposite order: the inversion site
            pass
    rules = [f.rule for f in tsan.reports()]
    assert rules == [tsan.ORDER_INVERSION]
    assert "t.first" in tsan.reports()[0].message


def test_self_deadlock_raises_instead_of_hanging(tsan_on):
    lock = tsan.named_lock("t.once")
    with lock:
        with pytest.raises(tsan.TsanError, match="t.once"):
            lock.acquire()
    assert [f.rule for f in tsan.reports()] == [tsan.SELF_DEADLOCK]


def test_reentrant_lock_may_reacquire(tsan_on):
    lock = tsan.named_lock("t.again", reentrant=True)
    with lock:
        with lock:
            pass
    assert tsan.reports() == []


class _Guinea:
    """Watched test subject; the comment drives the runtime guard."""

    def __init__(self):
        self._lock = tsan.named_lock("_Guinea._lock")
        self.value = 0  # guarded-by: self._lock
        tsan.watch(self)


def test_unguarded_access_is_recorded(tsan_on):
    guinea = _Guinea()
    with guinea._lock:
        guinea.value += 1  # held: silent
    assert tsan.reports() == []
    guinea.value += 1  # not held: one read + one write report
    rules = [f.rule for f in tsan.reports()]
    assert rules == [tsan.UNGUARDED_ACCESS, tsan.UNGUARDED_ACCESS]
    assert "_Guinea.value" in tsan.reports()[0].message


def test_watch_is_noop_when_disabled(monkeypatch):
    monkeypatch.delenv("REPRO_TSAN", raising=False)
    guinea = _Guinea()
    guinea.value += 1  # plain object, no shadow class, no reports
    assert type(guinea).__name__ == "_Guinea"
    assert tsan.reports() == []
