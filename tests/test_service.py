"""The scheduler-as-a-service gateway (repro.service).

Four layers, bottom up:

* **wire** — request parsing against the cluster's model bounds
  (unknown accounts/types, ownership, the eq. 3 arrival cap).
* **ratelimit / ingest** — token-bucket arithmetic with an injected
  clock; the bounded intake buffer's per-type FIFO drain; the
  write-ahead log (including torn final lines) and the atomic
  ``freeze`` partition checkpoints rely on.
* **service** — in-process :class:`SchedulerService`: checkpoint +
  write-ahead-log resume with no acknowledged-submission loss, and the
  decisive property: replaying the accepted-arrival log through the
  offline ``Simulator`` reproduces the live per-slot metrics
  bit-identically.
* **HTTP** — a real ``ServiceHTTPServer`` on an ephemeral port driven
  through :class:`ServiceClient`: submissions, backpressure 429s with
  ``Retry-After``, all query views, admin tick/checkpoint/shutdown.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.objective import CostModel
from repro.obs.events import InMemorySink, SlotTraceEvent
from repro.obs.registry import metrics_registry, stats_registry
from repro.resilient import CheckpointError, journal_path
from repro.scenarios import small_scenario
from repro.schedulers import build_scheduler
from repro.service import (
    AccountRateLimiter,
    IntakeBuffer,
    Ingestor,
    SchedulerService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceHTTPServer,
    ServiceState,
    SubmissionLog,
    SubmissionRecord,
    TokenBucket,
    WireError,
    parse_json_body,
    parse_submission,
)
from repro.simulation.metrics import MetricsCollector
from repro.simulation.simulator import Simulator

CLUSTER = small_scenario(horizon=4, seed=0).cluster
# small cluster: account 0 owns type 0 (A_max = 50), account 1 owns
# type 1 (A_max = 5).


class FakeClock:
    """A controllable monotonic clock for deterministic bucket tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


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


# ----------------------------------------------------------------------
# Wire layer
# ----------------------------------------------------------------------
def test_parse_submission_happy_path():
    request = parse_submission(
        {"account": 0, "job_type": 0, "count": 7}, CLUSTER
    )
    assert (request.account, request.job_type, request.count) == (0, 0, 7)
    assert request.as_dict() == {"account": 0, "job_type": 0, "count": 7}


@pytest.mark.parametrize(
    "payload,status,code",
    [
        ({"account": "x", "job_type": 0, "count": 1}, 400, "bad_field"),
        ({"account": True, "job_type": 0, "count": 1}, 400, "bad_field"),
        ({"account": 0, "job_type": 0, "count": 0}, 400, "bad_field"),
        ({"account": 0, "job_type": 0}, 400, "bad_field"),
        ({"account": 9, "job_type": 0, "count": 1}, 422, "unknown_account"),
        ({"account": 0, "job_type": 9, "count": 1}, 422, "unknown_job_type"),
        ({"account": 0, "job_type": 1, "count": 1}, 422, "wrong_account"),
        (
            {"account": 0, "job_type": 0, "count": 51},
            422,
            "count_exceeds_arrival_bound",
        ),
    ],
    ids=lambda v: str(v)[:40],
)
def test_parse_submission_rejections(payload, status, code):
    with pytest.raises(WireError) as excinfo:
        parse_submission(payload, CLUSTER)
    assert excinfo.value.status == status
    assert excinfo.value.code == code


def test_parse_json_body_errors():
    assert parse_json_body(b"") == {}
    assert parse_json_body(b'{"a": 1}') == {"a": 1}
    with pytest.raises(WireError) as excinfo:
        parse_json_body(b"not json")
    assert excinfo.value.status == 400
    with pytest.raises(WireError) as excinfo:
        parse_json_body(b"[1, 2]")
    assert excinfo.value.code == "bad_json"
    with pytest.raises(WireError) as excinfo:
        parse_json_body(b"x" * (64 * 1024 + 1))
    assert excinfo.value.status == 413


# ----------------------------------------------------------------------
# Rate limiting
# ----------------------------------------------------------------------
def test_token_bucket_spend_refill_and_retry_hint():
    bucket = TokenBucket(rate=2.0, burst=10.0)
    granted, wait = bucket.try_take(10.0, now=0.0)
    assert granted and wait == 0.0
    # Bucket empty: a 4-token request needs 4/2 = 2 seconds of refill.
    granted, wait = bucket.try_take(4.0, now=0.0)
    assert not granted
    assert wait == pytest.approx(2.0)
    # After 2 seconds the same request is covered exactly.
    granted, wait = bucket.try_take(4.0, now=2.0)
    assert granted
    # Refill never exceeds the burst.
    granted, _ = bucket.try_take(10.0, now=1e9)
    assert granted
    assert bucket.tokens == pytest.approx(0.0)


def test_token_bucket_state_round_trips():
    bucket = TokenBucket(rate=1.0, burst=5.0)
    bucket.try_take(3.0, now=7.0)
    clone = TokenBucket(rate=1.0, burst=5.0)
    clone.restore(bucket.state())
    assert clone.tokens == pytest.approx(2.0)


def test_account_limiter_isolated_buckets_and_integral_retry():
    clock = FakeClock()
    limiter = AccountRateLimiter(2, rate=2.0, burst=4.0, clock=clock)
    granted, retry = limiter.admit(0, 4)
    assert granted and retry == 0.0
    # Account 0 is drained; a 1-job request waits ceil(0.5) -> 1 second.
    granted, retry = limiter.admit(0, 1)
    assert not granted
    assert retry == 1.0 and retry == int(retry)
    # Account 1 is untouched by account 0's spending.
    granted, _ = limiter.admit(1, 4)
    assert granted
    clock.now += 2.0
    granted, _ = limiter.admit(0, 4)
    assert granted


def test_account_limiter_restore_resets_clock_epoch():
    clock = FakeClock()
    limiter = AccountRateLimiter(1, rate=1.0, burst=10.0, clock=clock)
    limiter.admit(0, 8)
    snapshot = limiter.state()
    # A restarted process has a new arbitrary clock epoch; restore must
    # keep the token level but not "refill" across the epoch change.
    reborn = AccountRateLimiter(1, rate=1.0, burst=10.0, clock=FakeClock())
    reborn.restore(snapshot)
    granted, _ = reborn.admit(0, 2)
    assert granted
    granted, _ = reborn.admit(0, 1)
    assert not granted


# ----------------------------------------------------------------------
# Ingestion: write-ahead log and intake buffer
# ----------------------------------------------------------------------
def test_submission_log_append_replay_and_torn_tail(tmp_path):
    log = SubmissionLog(tmp_path / "wal.jsonl")
    records = [
        SubmissionRecord(seq=1, account=0, job_type=0, count=3),
        SubmissionRecord(seq=2, account=1, job_type=1, count=2),
    ]
    for record in records:
        log.append(record)
    log.close()
    # Simulate a SIGKILL mid-append: a torn, never-acknowledged line.
    with open(tmp_path / "wal.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"seq": 3, "account": 0, "job_t')
    assert SubmissionLog(tmp_path / "wal.jsonl").replay() == records


def test_submission_log_rotate_moves_old_log_aside(tmp_path):
    log = SubmissionLog(tmp_path / "wal.jsonl")
    log.append(SubmissionRecord(seq=1, account=0, job_type=0, count=1))
    log.rotate()
    assert not (tmp_path / "wal.jsonl").exists()
    assert (tmp_path / "wal.jsonl.old").exists()
    assert log.replay() == []


def test_intake_buffer_backpressure_and_forced_recovery():
    buffer = IntakeBuffer(capacity=10, num_job_types=2)
    assert buffer.offer(SubmissionRecord(seq=1, account=0, job_type=0, count=8))
    assert not buffer.offer(
        SubmissionRecord(seq=2, account=0, job_type=0, count=5)
    )
    # Recovery bypasses the bound: the submission was already acked.
    assert buffer.offer(
        SubmissionRecord(seq=2, account=0, job_type=0, count=5), force=True
    )
    assert buffer.pending_jobs == 13


def test_intake_buffer_drain_respects_arrival_bounds_fifo():
    buffer = IntakeBuffer(capacity=100, num_job_types=2)
    for seq, jt, count in [(1, 1, 3), (2, 1, 3), (3, 0, 40), (4, 0, 20)]:
        assert buffer.offer(
            SubmissionRecord(seq=seq, account=jt, job_type=jt, count=count)
        )
    arrivals, consumed = buffer.drain_slot(np.array([50.0, 5.0]))
    # Type 1: only the older submission fits under A_max = 5 (3+3 > 5);
    # type 0: 40 fits, 40+20 would breach A_max = 50.
    assert arrivals.tolist() == [40.0, 3.0]
    assert sorted(consumed) == [1, 3]
    assert buffer.pending_jobs == 23
    arrivals, consumed = buffer.drain_slot(np.array([50.0, 5.0]))
    assert arrivals.tolist() == [20.0, 3.0]
    assert buffer.pending_jobs == 0


def test_intake_buffer_snapshot_round_trips():
    buffer = IntakeBuffer(capacity=100, num_job_types=2)
    records = [
        SubmissionRecord(seq=2, account=1, job_type=1, count=2),
        SubmissionRecord(seq=1, account=0, job_type=0, count=4),
    ]
    for record in records:
        buffer.offer(record)
    clone = IntakeBuffer(capacity=100, num_job_types=2)
    clone.restore(buffer.snapshot())
    assert clone.pending_jobs == 6
    assert clone.snapshot() == sorted(records, key=lambda r: r.seq)


def test_ingestor_pipeline_reasons_and_freeze_partition(tmp_path):
    clock = FakeClock()
    limiter = AccountRateLimiter(2, rate=1.0, burst=10.0, clock=clock)
    buffer = IntakeBuffer(capacity=8, num_job_types=2)
    log = SubmissionLog(tmp_path / "wal.jsonl")
    ingestor = Ingestor(buffer, log, limiter, retry_after_slots=2.0)

    from repro.service.wire import SubmissionRequest

    record, reason, retry = ingestor.submit(
        SubmissionRequest(account=0, job_type=0, count=6)
    )
    assert reason == "accepted" and record.seq == 1
    assert record.submission_id == "sub-1"
    # Buffer has 6/8: a 4-job batch is backpressure, not rate limit.
    record, reason, retry = ingestor.submit(
        SubmissionRequest(account=0, job_type=0, count=4)
    )
    assert record is None and reason == "backpressure"
    assert retry == 2.0
    # Account 0's bucket is down to 4 tokens: a 5-job batch that would
    # fit the buffer is rate-limited instead.
    record, reason, retry = ingestor.submit(
        SubmissionRequest(account=0, job_type=0, count=5)
    )
    assert record is None and reason == "rate_limited"
    assert retry >= 1.0

    pending, next_seq, counters = ingestor.freeze()
    assert [r.seq for r in pending] == [1]
    assert next_seq == 2
    assert counters == {
        "accepted_jobs": 6,
        "rejected_rate_limited": 1,
        "rejected_backpressure": 1,
        "pending_jobs": 6,
    }
    # Refused submissions were never logged: the WAL holds exactly the
    # acknowledged record.
    assert [r.seq for r in log.replay()] == [1]


def test_ingestor_recover_restages_and_advances_seq(tmp_path):
    clock = FakeClock()
    limiter = AccountRateLimiter(2, rate=100.0, burst=100.0, clock=clock)
    buffer = IntakeBuffer(capacity=5, num_job_types=2)
    ingestor = Ingestor(
        buffer, SubmissionLog(tmp_path / "wal.jsonl"), limiter
    )
    records = [
        SubmissionRecord(seq=4, account=0, job_type=0, count=4),
        SubmissionRecord(seq=7, account=1, job_type=1, count=3),
    ]
    assert ingestor.recover(records) == 2
    # Forced past the 5-job capacity (both were acknowledged pre-crash)
    # and the sequence counter resumes above the highest replayed seq.
    assert buffer.pending_jobs == 7
    assert ingestor.next_seq == 8


# ----------------------------------------------------------------------
# Service configuration identity
# ----------------------------------------------------------------------
def test_config_digest_tracks_scheduling_identity(tmp_path):
    base = make_config(tmp_path)
    same = make_config(tmp_path, rate=999.0, intake_capacity=7)
    different = make_config(tmp_path, scheduler_kwargs={"v": 20.0})
    # Gateway tuning does not change what the service computes...
    assert base.digest == same.digest
    # ...but the scheduler's parameters do.
    assert base.digest != different.digest
    assert base.checkpoint_key == f"service-{base.digest[:16]}"
    assert base.wal_path.parent == base.instance_dir


def test_config_rejects_bad_tuning(tmp_path):
    with pytest.raises(ValueError):
        make_config(tmp_path, intake_capacity=0)
    with pytest.raises(ValueError):
        make_config(tmp_path, rate=-1.0)
    with pytest.raises(ValueError):
        make_config(tmp_path, slot_seconds=0.0)


# ----------------------------------------------------------------------
# In-process service: replay equivalence and crash recovery
# ----------------------------------------------------------------------
def _submit_ok(service: SchedulerService, account: int, job_type: int, count: int):
    status, body, _headers = service.submit(
        {"account": account, "job_type": job_type, "count": count}
    )
    assert status == 202, body
    return body


REPLAY_SCHEDULE = [
    [(0, 0, 12), (1, 1, 4)],
    [],
    [(0, 0, 30), (0, 0, 8), (1, 1, 5)],
    [(1, 1, 2)],
    [(0, 0, 50)],
    [],
]
CLIP_COUNTERS = ("sim.clip.route", "sim.clip.serve")


def _drive(service: SchedulerService, schedule) -> None:
    for batch in schedule:
        for account, job_type, count in batch:
            _submit_ok(service, account, job_type, count)
        service.ticker.tick(1)


@pytest.mark.parametrize("beta", [0.0, 100.0], ids=["beta0", "beta100"])
def test_offline_replay_is_bit_identical(tmp_path, beta):
    """The decisive property: live slots == batch replay of the log."""
    config = make_config(
        tmp_path, scheduler_kwargs={"v": 10.0, "beta": beta}, cost_beta=beta
    )
    stats = stats_registry()
    clips_before = [stats.counter(name) for name in CLIP_COUNTERS]
    service = SchedulerService(config)
    _drive(service, REPLAY_SCHEDULE)
    state = service.state
    assert state.sim.next_slot == len(REPLAY_SCHEDULE)

    scenario = state.replay_scenario()
    simulator = Simulator(
        scenario,
        build_scheduler(
            config.scheduler, scenario.cluster, **dict(config.scheduler_kwargs)
        ),
        cost_model=CostModel(beta=config.cost_beta),
    )
    result = simulator.run()

    # Bit-identical, not approximately equal: same code, same order,
    # same floats — every recorded series, delay ledgers included.
    for field in dataclasses.fields(MetricsCollector):
        offline = getattr(result.metrics, field.name)
        live = getattr(state.sim.metrics, field.name)
        if isinstance(offline, list):
            assert len(offline) == len(live) == len(REPLAY_SCHEDULE), field.name
            assert all(np.array_equal(a, b) for a, b in zip(offline, live)), field.name
        else:
            assert offline == live, field.name
    offline = result.metrics.work_per_dc_series()
    live = np.stack([r["work_per_dc"] for r in state.slot_records()])
    assert np.array_equal(offline, live)
    # GreFar emits physical actions: neither run trimmed a decision.
    assert [stats.counter(name) for name in CLIP_COUNTERS] == clips_before
    service.shutdown()


def test_service_ticks_emit_slot_telemetry(tmp_path):
    """Live ticks run the simulator's instrumented slot body."""
    slots = len(REPLAY_SCHEDULE)

    def run(data_dir: str) -> list:
        service = SchedulerService(make_config(tmp_path, data_dir=data_dir))
        _drive(service, REPLAY_SCHEDULE)
        service.shutdown()
        return service.state.slot_records()

    registry = metrics_registry()
    was_enabled = registry.enabled
    registry.disable()
    try:
        plain = run(str(tmp_path / "off"))
        registry.reset()
        sink = InMemorySink()
        registry.add_sink(sink)
        registry.enable()
        try:
            traced = run(str(tmp_path / "on"))
        finally:
            registry.remove_sink(sink)
        assert [event.slot for event in sink.events] == list(range(slots))
        assert all(isinstance(event, SlotTraceEvent) for event in sink.events)
        assert registry.timer("sim.slot").calls == slots
        assert registry.timer("sim.decide").calls == slots
    finally:
        registry.enabled = was_enabled
        registry.reset()
    # Telemetry observes, never perturbs.
    assert traced == plain


def test_checkpoint_resume_in_process_no_acked_loss(tmp_path):
    """Kill after acked-but-unticked submissions; resume loses nothing."""
    config = make_config(tmp_path, checkpoint_every=1)
    batch1 = [(0, 0, 10), (1, 1, 3)]
    batch2 = [(0, 0, 25), (1, 1, 5)]

    # Reference: one uninterrupted service over the same schedule.
    reference = SchedulerService(make_config(tmp_path, data_dir=str(tmp_path / "ref")))
    for account, job_type, count in batch1:
        _submit_ok(reference, account, job_type, count)
    reference.ticker.tick(3)
    for account, job_type, count in batch2:
        _submit_ok(reference, account, job_type, count)
    reference.ticker.tick(3)

    # Victim: same schedule, but the process "dies" (object dropped, no
    # shutdown) right after batch2 was acknowledged.
    victim = SchedulerService(config)
    for account, job_type, count in batch1:
        _submit_ok(victim, account, job_type, count)
    victim.ticker.tick(3)
    for account, job_type, count in batch2:
        _submit_ok(victim, account, job_type, count)
    victim.log.close()  # only the file handle; no checkpoint, no flush beyond acks
    del victim

    resumed = SchedulerService(config, resume=True)
    assert resumed.resumed_from_slot == 3
    # batch2 lived only in the write-ahead log; both records came back.
    assert resumed.recovered_submissions == len(batch2)
    assert resumed.ingestor.buffer.pending_jobs == sum(c for _, _, c in batch2)
    resumed.ticker.tick(3)

    assert resumed.state.slot_records() == reference.state.slot_records()
    assert resumed.state.sim.next_slot == reference.state.sim.next_slot == 6
    total_jobs = sum(c for _, _, c in batch1 + batch2)
    assert resumed.state.sim.admitted_total == total_jobs
    assert resumed.ingestor.accepted_jobs == total_jobs
    reference.shutdown()
    resumed.shutdown()


def test_resume_refuses_foreign_checkpoint(tmp_path):
    config = make_config(tmp_path, checkpoint_every=1)
    service = SchedulerService(config)
    _submit_ok(service, 0, 0, 5)
    service.ticker.tick(1)
    service.shutdown()
    payload = config.checkpointer().load()
    assert payload is not None
    other = make_config(tmp_path, scheduler_kwargs={"v": 20.0})
    with pytest.raises(ValueError, match="differently-configured"):
        SchedulerService(other).state.restore(payload)


def test_fresh_start_rotates_log_and_clears_checkpoint(tmp_path):
    config = make_config(tmp_path, checkpoint_every=1)
    first = SchedulerService(config)
    _submit_ok(first, 0, 0, 5)
    first.ticker.tick(1)
    first.shutdown()
    # resume=False must not replay the old instance's acknowledged work.
    second = SchedulerService(config, resume=False)
    assert second.state.sim.next_slot == 0
    assert second.ingestor.buffer.pending_jobs == 0
    assert config.wal_path.with_suffix(".jsonl.old").exists()
    second.shutdown()


def test_resume_refuses_an_unusable_checkpoint(tmp_path):
    """A stale checkpoint must not restart the service at slot 0.

    Restarting would re-stage every logged submission, ticked ones
    included, and rewrite slot history clients have already read.
    """
    config = make_config(tmp_path, checkpoint_every=1)
    path = config.checkpointer().path
    path.parent.mkdir(parents=True)
    path.write_bytes(
        pickle.dumps({"schema": "ckpt-v1", "key": config.checkpoint_key, "payload": {}})
    )
    with pytest.raises(CheckpointError, match=r"ckpt-v1.*ckpt-v2") as excinfo:
        SchedulerService(config, resume=True)
    assert str(path) in str(excinfo.value)


def test_serve_reports_an_unusable_checkpoint_in_one_line(monkeypatch, capsys):
    import repro.service
    from repro.cli import main

    def refuse(*args, **kwargs):
        raise CheckpointError("checkpoint x.ckpt is unusable: schema 'ckpt-v1'")

    monkeypatch.setattr(repro.service, "serve", refuse)
    assert main(["serve", "--resume"]) == 2
    err = capsys.readouterr().err
    assert err == "error: checkpoint x.ckpt is unusable: schema 'ckpt-v1'\n"


def test_crash_between_journal_append_and_snapshot_replace(tmp_path, monkeypatch):
    """A save killed after its journal append resumes bit-identically.

    The journal then holds a slot the snapshot does not claim; resume
    ignores it, re-stages that slot's submissions from the write-ahead
    log, and the next save overwrites the stale journal tail.
    """
    from repro.resilient import checkpoint as module

    schedule = REPLAY_SCHEDULE * 2
    reference = SchedulerService(make_config(tmp_path, data_dir=str(tmp_path / "ref")))
    _drive(reference, schedule)

    config = make_config(tmp_path, checkpoint_every=1)
    victim = SchedulerService(config)
    _drive(victim, schedule[:4])
    real_replace = module.os.replace

    def killed(src, dst):
        raise OSError("killed between journal append and snapshot replace")

    monkeypatch.setattr(module.os, "replace", killed)
    with pytest.raises(CheckpointError):
        _drive(victim, schedule[4:5])
    monkeypatch.setattr(module.os, "replace", real_replace)
    victim.log.close()
    del victim

    resumed = SchedulerService(config, resume=True)
    assert resumed.resumed_from_slot == 4
    resumed.ticker.tick(1)  # slot 4, from the re-staged submissions
    _drive(resumed, schedule[5:])
    assert resumed.state.slot_records() == reference.state.slot_records()
    for field in dataclasses.fields(MetricsCollector):
        live = getattr(resumed.state.sim.metrics, field.name)
        offline = getattr(reference.state.sim.metrics, field.name)
        if isinstance(offline, list):
            assert len(live) == len(offline) == len(schedule), field.name
            assert all(np.array_equal(a, b) for a, b in zip(live, offline)), field.name
        else:
            assert live == offline, field.name
    resumed.shutdown()
    restored = ServiceState(config)
    restored.restore(config.checkpointer().load())
    assert restored.slot_records() == reference.state.slot_records()
    reference.shutdown()


def test_checkpoint_bytes_per_save_do_not_grow_with_slots(tmp_path, monkeypatch):
    """Bytes one save writes at slot 2000 stay within 1.5x of slot 100.

    A save writes the fixed-size snapshot plus the journal rows of the
    slots since the previous save, so it does not grow with the run.
    It is not flat to 10%: the queue network's DelayStats keeps delay
    histograms in the snapshot, which grow with the largest delay seen
    (1.4 to 3.3 KB over 2000 paper-scenario slots) — bounded by the
    largest delay, not by the number of slots.
    """
    horizon = 2000
    arrivals = small_scenario(horizon=horizon, seed=0).arrivals
    config = make_config(
        tmp_path, capacity_slots=horizon, checkpoint_every=10, rate=1e9, burst=1e9
    )
    service = SchedulerService(config)
    checkpointer = service.checkpointer
    journal = journal_path(checkpointer.path)
    save = checkpointer.save
    written = {}

    def measured(payload):
        before = journal.stat().st_size if journal.exists() else 0
        path = save(payload)
        grown = journal.stat().st_size - before
        written[payload["next_slot"]] = path.stat().st_size + grown
        return path

    monkeypatch.setattr(checkpointer, "save", measured)
    for row in arrivals:
        for job_type, count in enumerate(row):
            if count > 0:
                _submit_ok(service, job_type, job_type, int(count))
        service.ticker.tick(1)
    assert written[horizon] <= 1.5 * written[100], (written[100], written[horizon])
    service.shutdown()


def test_capacity_exhaustion_is_a_409_not_a_crash(tmp_path):
    service = SchedulerService(make_config(tmp_path, capacity_slots=2))
    status, body, _ = service.tick(2)
    assert status == 200 and body["ticked"] == 2
    status, body, _ = service.tick(1)
    assert status == 409
    assert body["error"] == "capacity_exhausted"
    service.shutdown()


# ----------------------------------------------------------------------
# HTTP round trip (real server, ephemeral port)
# ----------------------------------------------------------------------
@pytest.fixture
def live_gateway(tmp_path):
    """A ServiceHTTPServer on 127.0.0.1:<ephemeral> plus its client."""
    config = make_config(
        tmp_path, intake_capacity=60, rate=100.0, burst=120.0
    )
    service = SchedulerService(config)
    server = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    port = server.server_address[1]
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
    try:
        yield service, client
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()
        thread.join(timeout=5.0)


def test_http_submit_tick_and_views(live_gateway):
    service, client = live_gateway
    health = client.health()
    assert health["status"] == "ok" and health["next_slot"] == 0

    config = client.config()
    assert config["scenario_kind"] == "small"
    assert config["digest"] == service.config.digest

    accounts = client.accounts()
    assert [a["account"] for a in accounts] == [0, 1]
    assert accounts[0]["job_types"][0]["max_arrivals"] == 50

    ack = client.submit(0, 0, 12)
    assert ack["schema"] == "svc-v1"
    assert ack["submission_id"] == "sub-1"
    assert ack["pending_jobs"] == 12
    client.submit(1, 1, 4)

    ticked = client.tick(2)
    assert ticked["ticked"] == 2 and ticked["next_slot"] == 2
    assert ticked["records"][0]["arrivals"] == [12.0, 4.0]
    assert ticked["records"][1]["arrivals"] == [0.0, 0.0]

    slots = client.slots()
    assert [r["slot"] for r in slots] == [0, 1]
    assert client.slots(start=1, count=1)[0]["slot"] == 1

    queues = client.queues()
    assert queues["next_slot"] == 2
    assert len(queues["front"]) == 2

    placement = client.placement()
    assert placement["last_slot"]["slot"] == 1
    assert placement["datacenters"] == 2

    fairness = client.fairness()
    assert fairness["completed_slots"] == 2
    assert fairness["fair_shares"] == [0.6, 0.4]
    assert len(fairness["cumulative_work"]) == 2

    stats = client.stats()
    assert stats["horizon"] == 2
    assert stats["total_arrived_jobs"] == 16.0

    metrics = client.metrics()
    assert metrics["service"]["accepted_jobs"] == 16
    assert metrics["service"]["ticks_completed"] == 2
    # The hot-path registry is off by default (REPRO_OBS=1 turns it on);
    # the envelope still carries both registry snapshots.
    assert "timers" in metrics["obs"]
    assert metrics["stats"]["counters"]["service.submissions.accepted"] >= 2

    checkpointed = client.checkpoint()
    assert checkpointed["checkpointed"] is True


def test_http_rejections_and_backpressure(live_gateway):
    service, client = live_gateway

    with pytest.raises(ServiceClientError) as excinfo:
        client.submit(0, 1, 1)  # type 1 belongs to account 1
    assert excinfo.value.status == 422
    assert excinfo.value.code == "wrong_account"

    with pytest.raises(ServiceClientError) as excinfo:
        client.submit(0, 0, 51)  # above A_max = 50
    assert excinfo.value.code == "count_exceeds_arrival_bound"

    with pytest.raises(ServiceClientError) as excinfo:
        client.get("/v1/nope")
    assert excinfo.value.status == 404

    with pytest.raises(ServiceClientError) as excinfo:
        client.post("/v1/admin/tick", {"slots": "three"})
    assert excinfo.value.status == 400 and excinfo.value.code == "bad_field"

    # Fill the 60-job intake: the 21-job overflow is an explicit 429
    # with a Retry-After, and the rejection is counted, not dropped.
    client.submit(0, 0, 50)
    with pytest.raises(ServiceClientError) as excinfo:
        client.submit(0, 0, 21)
    assert excinfo.value.status == 429
    assert excinfo.value.code == "backpressure"
    assert excinfo.value.retry_after >= 1.0
    # Account 0 has spent 50 + 12-from-fixture? No — fresh service per
    # fixture; 50 of its 120-token burst. A 100-job ask would breach the
    # remaining budget: rate limit, distinct from backpressure.
    with pytest.raises(ServiceClientError) as excinfo:
        client.submit(0, 0, 50)
    assert excinfo.value.code in {"rate_limited", "backpressure"}
    counters = client.metrics()["service"]
    assert counters["rejected_backpressure"] >= 1
    assert counters["accepted_jobs"] == 50
    # Draining a slot frees intake capacity again.
    client.tick(1)
    assert client.submit(1, 1, 5)["pending_jobs"] == 5


def test_http_malformed_body_is_400_not_500(live_gateway):
    _service, client = live_gateway
    request = urllib.request.Request(
        client.base_url + "/v1/jobs",
        data=b"this is not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10.0)
    assert excinfo.value.code == 400
    body = json.loads(excinfo.value.read().decode("utf-8"))
    assert body["error"] == "bad_json"


@pytest.mark.parametrize("path", ["/v1/admin/tick", "/v1/admin/checkpoint"])
def test_http_failed_checkpoint_gets_a_json_500(tmp_path, monkeypatch, path):
    from repro.resilient import checkpoint as module

    service = SchedulerService(make_config(tmp_path, checkpoint_every=1))
    server = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}", timeout=10.0)
    try:
        if path == "/v1/admin/checkpoint":
            client.tick(1)

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(module.os, "replace", failing_replace)
        with pytest.raises(ServiceClientError) as excinfo:
            client.post(path, {"slots": 1} if path == "/v1/admin/tick" else {})
        assert excinfo.value.status == 500
        assert excinfo.value.code == "checkpoint_failed"
        assert "disk full" in excinfo.value.body["detail"]
        assert excinfo.value.body["next_slot"] == 1
        assert client.health()["next_slot"] == 1
    finally:
        server.shutdown()
        server.server_close()
        monkeypatch.undo()
        service.shutdown()
        thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_http_shutdown_endpoint_stops_server(tmp_path):
    config = make_config(tmp_path)
    service = SchedulerService(config)
    server = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    client.submit(0, 0, 3)
    client.tick(1)
    assert client.shutdown()["stopping"] is True
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    server.server_close()
    # The graceful path wrote a final checkpoint a resume can use.
    payload = config.checkpointer().load()
    assert payload is not None and payload["next_slot"] == 1
