"""The gateway: HTTP surface + service orchestration.

:class:`SchedulerService` wires the subsystem together — state store,
ingestion pipeline, rate limiter, slot ticker, checkpoints — and owns
the start/resume/shutdown lifecycle.  :class:`ServiceHTTPServer` (a
stdlib ``ThreadingHTTPServer``; no third-party web stack required)
exposes it as REST/JSON:

========  =========================  =========================================
method    path                       purpose
========  =========================  =========================================
POST      ``/v1/jobs``               submit jobs (202; 429 on backpressure or
                                     rate limit, with ``Retry-After``)
POST      ``/v1/admin/tick``         advance N slots (manual-tick mode)
POST      ``/v1/admin/checkpoint``   force a ckpt-v2 checkpoint now
POST      ``/v1/admin/shutdown``     checkpoint, stop ticking, exit cleanly
GET       ``/v1/health``             liveness + slot/backlog gauges
GET       ``/v1/config``             the instance's full configuration
GET       ``/v1/accounts``           accounts, job types and arrival bounds
GET       ``/v1/queues``             live queue backlogs
GET       ``/v1/placement``          last slot's per-site work placement
GET       ``/v1/fairness``           cumulative account work vs fair shares
GET       ``/v1/metrics``            obs registries + service counters
GET       ``/v1/stats``              summary-so-far (SimulationSummary shape)
GET       ``/v1/slots``              per-slot records (``?start=&count=``)
========  =========================  =========================================

Every mutating or reading touch of the model state happens under one
service-wide lock shared with the ticker, so a query never observes a
half-applied slot and a tick never interleaves with a checkpoint.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs.registry import metrics_registry, stats_registry
from repro.resilient.checkpoint import CheckpointError
from repro.service.ingest import IntakeBuffer, Ingestor, SubmissionLog
from repro.service.ratelimit import AccountRateLimiter
from repro.service.state import ServiceConfig, ServiceState
from repro.service.ticker import CapacityExhausted, SlotTicker
from repro.service.wire import (
    MAX_BODY_BYTES,
    WireError,
    error_body,
    ok_body,
    parse_json_body,
    parse_submission,
)
from repro.tools import tsan

__all__ = ["SchedulerService", "ServiceHTTPServer", "serve"]


class SchedulerService:
    """One live scheduler instance: state, ingestion, ticking, recovery.

    Parameters
    ----------
    config:
        The frozen :class:`ServiceConfig`.
    resume:
        When True, adopt the newest ckpt-v2 checkpoint for this config
        digest (if any) and re-stage every write-ahead-log submission
        newer than it; acknowledged work is never lost.  A checkpoint
        file that exists but cannot be used (older schema, corrupt,
        foreign key) raises
        :class:`~repro.resilient.checkpoint.CheckpointError`:
        restarting at slot 0 would rewrite slot history clients have
        already read.  When False the instance starts fresh: the old
        log is rotated aside and any stale checkpoint cleared.
    """

    def __init__(self, config: ServiceConfig, resume: bool = False) -> None:
        self.config = config
        self.lock = tsan.named_lock("SchedulerService.lock", reentrant=True)
        self.state = ServiceState(config)
        config.instance_dir.mkdir(parents=True, exist_ok=True)
        self.log = SubmissionLog(config.wal_path)
        buffer = IntakeBuffer(
            config.intake_capacity, self.state.cluster.num_job_types
        )
        self.limiter = AccountRateLimiter(
            self.state.cluster.num_accounts,
            rate=config.rate,
            burst=config.burst,
            clock=stats_registry().clock,
        )
        self.ingestor = Ingestor(
            buffer,
            self.log,
            self.limiter,
            retry_after_slots=config.slot_seconds or 1.0,
        )
        self.checkpointer = config.checkpointer()
        self.ticker = SlotTicker(
            self.state, self.ingestor, self.limiter, self.checkpointer, self.lock
        )
        self.resumed_from_slot: Optional[int] = None
        self.recovered_submissions = 0
        if resume:
            self._recover()
        else:
            self.log.rotate()
            self.checkpointer.clear()
        stats_registry().counter_add("service.starts")

    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Resume from checkpoint + write-ahead log (see class docstring)."""
        payload = self.checkpointer.load_strict()
        horizon_seq = 1
        if payload is not None:
            self.state.restore(payload)
            self.ingestor.buffer.restore(payload["pending"])
            self.ingestor.set_next_seq(int(payload["next_seq"]))
            self.ingestor.restore_counters(payload.get("ingest_counters", {}))
            self.limiter.restore(payload.get("ratelimit", {}))
            horizon_seq = int(payload["next_seq"])
            self.resumed_from_slot = self.state.sim.next_slot
        # Everything acknowledged after the snapshot (or everything, if
        # no snapshot exists) lives only in the log — re-stage it.
        missing = [r for r in self.log.replay() if r.seq >= horizon_seq]
        self.recovered_submissions = self.ingestor.recover(missing)
        stats_registry().counter_add(
            "service.recovered_submissions", self.recovered_submissions
        )

    # ------------------------------------------------------------------
    # Request-level operations (called from handler threads)
    # ------------------------------------------------------------------
    def submit(self, payload: dict) -> Tuple[int, dict, dict]:
        """``POST /v1/jobs`` → ``(status, body, extra_headers)``."""
        request = parse_submission(payload, self.state.cluster)
        record, reason, retry_after = self.ingestor.submit(request)
        reg = stats_registry()
        if record is None:
            reg.counter_add(f"service.submissions.{reason}")
            return (
                429,
                error_body(
                    reason,
                    "intake buffer is full; retry later"
                    if reason == "backpressure"
                    else "account rate limit exceeded; retry later",
                    retry_after=retry_after,
                ),
                {"Retry-After": str(int(max(1, round(retry_after))))},
            )
        reg.counter_add("service.submissions.accepted")
        reg.counter_add("service.jobs.accepted", record.count)
        return (
            202,
            ok_body(
                submission_id=record.submission_id,
                seq=record.seq,
                account=record.account,
                job_type=record.job_type,
                count=record.count,
                pending_jobs=self.ingestor.buffer.pending_jobs,
            ),
            {},
        )

    def tick(self, slots: int) -> Tuple[int, dict, dict]:
        """``POST /v1/admin/tick`` → advance *slots* slots now."""
        if slots < 1:
            raise WireError(400, "bad_field", "'slots' must be >= 1")
        try:
            records = self.ticker.tick(slots)
        except CapacityExhausted as exc:
            return 409, error_body("capacity_exhausted", str(exc)), {}
        return (
            200,
            ok_body(
                ticked=len(records),
                next_slot=self.state.sim.next_slot,
                records=records,
            ),
            {},
        )

    def health(self) -> dict:
        with self.lock:
            return ok_body(
                status="ok",
                scheduler=self.state.sim.scheduler.name,
                next_slot=self.state.sim.next_slot,
                capacity_slots=self.config.capacity_slots,
                pending_jobs=self.ingestor.buffer.pending_jobs,
                queue_backlog=float(self.state.sim.queues.total_backlog()),
                resumed_from_slot=self.resumed_from_slot,
                recovered_submissions=self.recovered_submissions,
            )

    def queues_view(self) -> dict:
        with self.lock:
            queues = self.state.sim.queues
            return ok_body(
                next_slot=self.state.sim.next_slot,
                front=[float(q) for q in queues.front],
                dc=[[float(q) for q in row] for row in queues.dc],
                total_backlog=float(queues.total_backlog()),
                max_queue_length=float(queues.max_queue_length()),
            )

    def placement_view(self) -> dict:
        with self.lock:
            completed = len(self.state.arrivals_log)
            last = self.state.slot_record(completed - 1) if completed else None
            return ok_body(
                next_slot=self.state.sim.next_slot,
                last_slot=last,
                datacenters=self.state.cluster.num_datacenters,
            )

    def fairness_view(self) -> dict:
        with self.lock:
            return ok_body(**self.state.fairness_view())

    def metrics_view(self) -> dict:
        with self.lock:
            service = {
                **self.ingestor.counters(),
                "ticks_completed": self.ticker.ticks_completed,
                "next_slot": self.state.sim.next_slot,
                "admitted_jobs": float(self.state.sim.admitted_total),
            }
            return ok_body(
                service=service,
                stats=stats_registry().snapshot(),
                obs=metrics_registry().snapshot(),
            )

    def stats_view(self) -> dict:
        with self.lock:
            return ok_body(summary=self.state.sim.summary().as_dict())

    def slots_view(self, start: int = 0, count: Optional[int] = None) -> dict:
        with self.lock:
            return ok_body(
                completed_slots=self.state.sim.next_slot,
                start=start,
                records=self.state.slot_records(start, count),
            )

    def accounts_view(self) -> dict:
        cluster = self.state.cluster
        return ok_body(
            accounts=[
                {
                    "account": m,
                    "fair_share": float(cluster.fair_shares[m]),
                    "job_types": [
                        {
                            "job_type": j,
                            "name": jt.name,
                            "demand": float(jt.demand),
                            "max_arrivals": int(jt.max_arrivals),
                        }
                        for j, jt in enumerate(cluster.job_types)
                        if jt.account == m
                    ],
                }
                for m in range(cluster.num_accounts)
            ]
        )

    # ------------------------------------------------------------------
    def start_ticking(self) -> None:
        """Start wall-clock pacing when the config asks for it."""
        if self.config.slot_seconds is not None:
            self.ticker.start(self.config.slot_seconds)

    def shutdown(self) -> None:
        """Graceful stop: halt pacing, write a final checkpoint, close."""
        # Pacing stops *before* the lock is taken: the pacing thread
        # may be inside tick() waiting for it (see SlotTicker.stop).
        self.ticker.stop()
        with self.lock:
            self.ticker.save_checkpoint()
            # Final WAL close under the lock: ticking has stopped and no
            # further submit can be acknowledged past this point.
            self.log.close()  # staticcheck: ignore[GF012] -- shutdown-only close after ticking stopped; nothing can contend
        stats_registry().counter_add("service.shutdowns")


class _Handler(BaseHTTPRequestHandler):
    """Route table + envelope plumbing; all logic lives in the service."""

    server_version = "repro-gateway/1.0"
    protocol_version = "HTTP/1.1"
    # Nagle + delayed ACK costs ~40ms per request on keep-alive
    # connections; a submission gateway lives or dies by round trips.
    disable_nagle_algorithm = True

    @property
    def service(self) -> SchedulerService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # per-request stderr noise off; obs counters cover it

    def _reply(self, status: int, body: dict, headers: Optional[dict] = None) -> None:
        raw = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(raw)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise WireError(413, "body_too_large", "request body too large")
        return parse_json_body(self.rfile.read(length) if length else b"")

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        service = self.service
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/v1/health":
                self._reply(200, service.health())
            elif parsed.path == "/v1/config":
                self._reply(200, ok_body(config=service.config.as_dict()))
            elif parsed.path == "/v1/accounts":
                self._reply(200, service.accounts_view())
            elif parsed.path == "/v1/queues":
                self._reply(200, service.queues_view())
            elif parsed.path == "/v1/placement":
                self._reply(200, service.placement_view())
            elif parsed.path == "/v1/fairness":
                self._reply(200, service.fairness_view())
            elif parsed.path == "/v1/metrics":
                self._reply(200, service.metrics_view())
            elif parsed.path == "/v1/stats":
                self._reply(200, service.stats_view())
            elif parsed.path == "/v1/slots":
                query = parse_qs(parsed.query)
                start = int(query.get("start", ["0"])[0])
                count_raw = query.get("count", [None])[0]
                count = None if count_raw is None else int(count_raw)
                self._reply(200, service.slots_view(start=start, count=count))
            else:
                self._reply(404, error_body("not_found", f"no route {parsed.path}"))
        except WireError as exc:
            self._reply(exc.status, error_body(exc.code, exc.detail))
        except ValueError as exc:
            self._reply(400, error_body("bad_query", str(exc)))

    def do_POST(self) -> None:  # noqa: N802
        service = self.service
        path = urlparse(self.path).path
        try:
            if path == "/v1/jobs":
                status, body, headers = service.submit(self._read_body())
                self._reply(status, body, headers)
            elif path == "/v1/admin/tick":
                body = self._read_body()
                slots = body.get("slots", 1)
                if isinstance(slots, bool) or not isinstance(slots, int):
                    raise WireError(400, "bad_field", "'slots' must be an integer")
                status, reply, headers = service.tick(slots)
                self._reply(status, reply, headers)
            elif path == "/v1/admin/checkpoint":
                service.ticker.save_checkpoint()
                self._reply(
                    200, ok_body(checkpointed=True, next_slot=service.state.sim.next_slot)
                )
            elif path == "/v1/admin/shutdown":
                self._reply(200, ok_body(stopping=True))
                # shutdown() must run off this handler thread: it joins
                # the server loop, which is still serving this reply.
                threading.Thread(
                    target=self.server.stop_from_handler,  # type: ignore[attr-defined]
                    daemon=True,
                ).start()
            else:
                self._reply(404, error_body("not_found", f"no route {path}"))
        except WireError as exc:
            self._reply(exc.status, error_body(exc.code, exc.detail))
        except CheckpointError as exc:
            # A tick's slots stay applied when its save fails; tell the
            # client where the instance now stands.
            self._reply(
                500,
                error_body(
                    "checkpoint_failed",
                    str(exc),
                    next_slot=service.state.sim.next_slot,
                ),
            )


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`SchedulerService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: SchedulerService) -> None:
        super().__init__(address, _Handler)
        self.service = service

    def stop_from_handler(self) -> None:
        """Graceful shutdown path for ``POST /v1/admin/shutdown``."""
        self.service.shutdown()
        self.shutdown()


def serve(
    config: ServiceConfig,
    host: str = "127.0.0.1",
    port: int = 0,
    resume: bool = False,
) -> int:
    """Run the gateway until shut down; returns a process exit code.

    Binds first (port 0 = ephemeral), prints the listening URL on a
    line of its own — test harnesses parse it — then starts wall-clock
    ticking (if configured) and serves forever.
    """
    service = SchedulerService(config, resume=resume)
    server = ServiceHTTPServer((host, port), service)
    actual_host, actual_port = server.server_address[:2]
    print(f"listening on http://{actual_host}:{actual_port}", flush=True)
    if service.resumed_from_slot is not None:
        print(
            f"resumed from checkpoint at slot {service.resumed_from_slot} "
            f"({service.recovered_submissions} submissions recovered from log)",
            flush=True,
        )
    service.start_ticking()
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        service.shutdown()
    finally:
        server.server_close()
    if tsan.enabled() and tsan.reports():
        # Sanitizer drills run the real server binary; a dirty shutdown
        # must fail the drill via the exit code, not just a log line.
        for finding in tsan.reports():
            print(finding.render(), file=sys.stderr)
        return 1
    return 0
