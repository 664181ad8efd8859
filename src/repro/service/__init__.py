"""Scheduler-as-a-service: a live job-submission gateway around GreFar.

The paper's algorithm is online by construction — each slot's decision
uses only current queue state — so nothing about it *requires* batch
replay.  This package promotes the simulator into a long-running
service: an HTTP gateway accepts streaming submissions from many
accounts through a bounded, rate-limited ingestion pipeline, a ticker
advances GreFar slot by slot, and live endpoints answer
placement/queue/fairness/metrics queries.

Layering (each module depends only on those above it):

* :mod:`~repro.service.wire` — JSON schemas and request validation
* :mod:`~repro.service.ratelimit` — per-account token buckets
* :mod:`~repro.service.ingest` — bounded intake, write-ahead log
* :mod:`~repro.service.state` — config + model state + checkpoints
* :mod:`~repro.service.ticker` — the slot loop (``Simulator.step`` on live arrivals)
* :mod:`~repro.service.app` — the HTTP gateway and lifecycle
* :mod:`~repro.service.client` — a stdlib Python client

Two properties tie the live path to the offline golden-trace regime
(``tests/test_service*.py`` pin both):

1. **Replay equivalence** — pushing the accepted-arrival log through
   the offline ``Simulator`` reproduces the service's per-slot metrics
   bit-identically.
2. **Crash safety** — a killed gateway restarts from its ckpt-v2
   checkpoint (a fixed-size snapshot plus an append-only per-slot
   history journal) and write-ahead log with every acknowledged
   submission intact.
"""

from repro import _export_table

__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "SchedulerService": ".app",
        "ServiceHTTPServer": ".app",
        "serve": ".app",
        "ServiceClient": ".client",
        "ServiceClientError": ".client",
        "Ingestor": ".ingest",
        "IntakeBuffer": ".ingest",
        "SubmissionLog": ".ingest",
        "SubmissionRecord": ".ingest",
        "AccountRateLimiter": ".ratelimit",
        "TokenBucket": ".ratelimit",
        "ServiceConfig": ".state",
        "ServiceState": ".state",
        "CapacityExhausted": ".ticker",
        "SlotTicker": ".ticker",
        "tick_once": ".ticker",
        "SERVICE_SCHEMA": ".wire",
        "SubmissionRequest": ".wire",
        "WireError": ".wire",
        "error_body": ".wire",
        "ok_body": ".wire",
        "parse_json_body": ".wire",
        "parse_submission": ".wire",
    },
)
