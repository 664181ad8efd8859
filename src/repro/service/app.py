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
POST      ``/v1/admin/checkpoint``   force a ckpt-v3 checkpoint now
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

HTTP/1.1 framing: the stdlib handler's keep-alive loop reads each
request line and dispatches on the method; the handler parses the rest
itself, without the stdlib's ``email``-based header parser.  Limits
are the stdlib's: a request line over 65,536 bytes is a 414, a header
line over 65,536 bytes or more than 100 header lines a 431.  Header
names are case-insensitive and a repeated header joins its values with
``", "``.  HTTP/1.0 requests and ``Connection: close`` close the
connection after the reply, and ``Expect: 100-continue`` is answered
with a 100 before the body is read.  A body is framed by
``Content-Length`` alone: ``Transfer-Encoding`` is a 501; a
Content-Length that is not a byte count, or two different ones, a 400;
one over 64 KiB a 413.  Each of these refusals, and a request line
that is not ``<method> <path> HTTP/<major>.<minor>`` (400; HTTP/0.9
too), an HTTP/2 version (505) or an unknown method (501), is answered
with a JSON ``svc-v1`` error envelope and closes the connection.  Every
reply is one write: status line, ``Server``, ``Date``, ``Content-Type``,
``Content-Length``, any extra header (``Retry-After``), then the body.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple
from urllib.parse import parse_qs

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
        When True, adopt the newest ckpt-v3 checkpoint for this config
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
            self.checkpointer.close()  # staticcheck: ignore[GF012] -- closes the final save's files; ticking has stopped, nothing can contend
        stats_registry().counter_add("service.shutdowns")


#: The stdlib's request limits (``http.client._MAXLINE`` and
#: ``_MAXHEADERS``): bytes per header line, header lines per request.
_MAX_LINE = 65536
_MAX_HEADERS = 100
#: ``HTTP/<major>.<minor>``, each part 1-10 digits (RFC 2145).
_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)


class _Headers(dict):
    """Request headers by lower-cased name; a repeated name joins with ``", "``."""

    def get(self, name: str, default: Any = None) -> Any:
        return super().get(name.lower(), default)


class _Handler(BaseHTTPRequestHandler):
    """Request framing, route table and envelope plumbing; all logic lives in the service.

    The stdlib's keep-alive loop reads the request line (414 past 65,536
    bytes) and dispatches to ``do_<METHOD>`` (501 otherwise).  Everything
    after the request line is parsed here: see the module docstring.
    """

    server_version = "repro-gateway/1.0"
    protocol_version = "HTTP/1.1"
    # Nagle + delayed ACK costs ~40ms per request on keep-alive
    # connections; a submission gateway lives or dies by round trips.
    disable_nagle_algorithm = True

    @property
    def service(self) -> SchedulerService:
        return self.server.service  # type: ignore[attr-defined]

    # -- framing -------------------------------------------------------
    def parse_request(self) -> bool:
        """Parse the request line, the headers and the body.

        Returns False once a refusal has been sent (or, for an empty
        request line, when there is nothing to answer).
        """
        self.command = ""
        self.close_connection = True
        self.requestline = line = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = line.split()
        if not words:
            return False
        version = _VERSION.fullmatch(words[-1])
        if len(words) != 3 or version is None:
            return self._refuse(400, f"bad request line {line!r}")
        number = int(version[1]), int(version[2])
        if number >= (2, 0):
            return self._refuse(505, f"HTTP version {words[2]} is not supported")
        self.command, path, self.request_version = words
        # As the stdlib does: '//x' would read as a host, not a path.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        http11 = number >= (1, 1)
        self.close_connection = not http11

        headers = self.headers = _Headers()  # type: ignore[assignment]
        for count in range(_MAX_HEADERS + 1):
            raw = self.rfile.readline(_MAX_LINE + 1)
            if len(raw) > _MAX_LINE:
                return self._refuse(431, f"a header line is over {_MAX_LINE} bytes")
            if raw in (b"\r\n", b"\n", b""):
                break
            if count == _MAX_HEADERS:
                return self._refuse(431, f"more than {_MAX_HEADERS} header lines")
            name, colon, value = str(raw, "iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                return self._refuse(400, f"malformed header line {raw[:80]!r}", "bad_header")
            key = name.lower()
            value = value.strip()
            headers[key] = f"{headers[key]}, {value}" if key in headers else value

        # The body is framed by Content-Length alone; anything else would
        # leave its bytes to be read as the next request.
        if "transfer-encoding" in headers:
            return self._refuse(
                501,
                "Transfer-Encoding is not supported; send the body with a Content-Length",
                "transfer_encoding_unsupported",
            )
        lengths = {part.strip() for part in headers.get("content-length", "0").split(",")}
        length = lengths.pop()
        if lengths:
            return self._refuse(400, "conflicting Content-Length values", "bad_content_length")
        if not (length.isascii() and length.isdigit()):
            return self._refuse(
                400, f"Content-Length {length!r} is not a byte count", "bad_content_length"
            )
        size = int(length)
        if size > MAX_BODY_BYTES:
            return self._refuse(413, f"body exceeds {MAX_BODY_BYTES} bytes", "body_too_large")

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if http11 and headers.get("expect", "").lower() == "100-continue":
            self.handle_expect_100()
        self.body = self.rfile.read(size)
        return True

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Optional[str] = None
    ) -> None:
        """The stdlib loop's own refusals (414, 501), as JSON envelopes."""
        self._refuse(int(code), message or self.responses[code][0])

    def _refuse(self, status: int, detail: str, error: Optional[str] = None) -> bool:
        """Answer a request that cannot be served, close the connection; False.

        *error* defaults to the status phrase (``431`` ->
        ``request_header_fields_too_large``).
        """
        if error is None:
            phrase = self.responses[status][0]
            error = phrase.lower().replace(" ", "_").replace("-", "_")
        self.close_connection = True
        self._reply(status, error_body(error, detail))
        return False

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # per-request stderr noise off; obs counters cover it

    def _reply(self, status: int, body: dict, headers: Optional[dict] = None) -> None:
        """Status line, headers and JSON body in one write."""
        raw = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"{self.server.date_line()}"  # type: ignore[attr-defined]
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(raw)}\r\n"
        )
        for key, value in (headers or {}).items():
            head += f"{key}: {value}\r\n"
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + raw)

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        service = self.service
        path, _, query = self.path.partition("?")
        try:
            if path == "/v1/health":
                self._reply(200, service.health())
            elif path == "/v1/config":
                self._reply(200, ok_body(config=service.config.as_dict()))
            elif path == "/v1/accounts":
                self._reply(200, service.accounts_view())
            elif path == "/v1/queues":
                self._reply(200, service.queues_view())
            elif path == "/v1/placement":
                self._reply(200, service.placement_view())
            elif path == "/v1/fairness":
                self._reply(200, service.fairness_view())
            elif path == "/v1/metrics":
                self._reply(200, service.metrics_view())
            elif path == "/v1/stats":
                self._reply(200, service.stats_view())
            elif path == "/v1/slots":
                params = parse_qs(query)
                start = int(params.get("start", ["0"])[0])
                count_raw = params.get("count", [None])[0]
                count = None if count_raw is None else int(count_raw)
                self._reply(200, service.slots_view(start=start, count=count))
            else:
                self._reply(404, error_body("not_found", f"no route {path}"))
        except WireError as exc:
            self._reply(exc.status, error_body(exc.code, exc.detail))
        except ValueError as exc:
            self._reply(400, error_body("bad_query", str(exc)))

    def do_POST(self) -> None:  # noqa: N802
        service = self.service
        path = self.path.partition("?")[0]
        try:
            if path == "/v1/jobs":
                status, body, headers = service.submit(parse_json_body(self.body))
                self._reply(status, body, headers)
            elif path == "/v1/admin/tick":
                body = parse_json_body(self.body)
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
        self._date: Tuple[int, str] = (0, "")

    def date_line(self) -> str:
        """The replies' ``Date`` header line, formatted at most once per second."""
        second, line = self._date
        now = int(time.time())
        if now != second:
            # Handler threads may race here; each formats the same line.
            line = f"Date: {formatdate(now, usegmt=True)}\r\n"
            self._date = (now, line)
        return line

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
