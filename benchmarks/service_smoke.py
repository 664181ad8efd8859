"""Gateway smoke drill: sustained submission load with exact accounting.

Starts a real :class:`ServiceHTTPServer` on an ephemeral port, hammers
``POST /v1/jobs`` from several persistent-connection worker threads,
ticks the scheduler, and then audits the books:

* **throughput** — the gateway must sustain at least
  :data:`MIN_RATE` submission attempts per second end to end
  (HTTP parse, rate limit, intake, write-ahead log, reply);
* **accounting** — every attempt is answered 202 or 429, the two
  client-side tallies sum to the attempt count, and the server's own
  counters agree exactly — backpressure refuses loudly, it never drops
  silently;
* **equivalence** — after draining, replaying the accepted-arrival log
  through the offline ``Simulator`` reproduces the live per-slot
  metrics bit-identically;
* **lifecycle** — ``POST /v1/admin/shutdown`` stops the server and
  leaves a final checkpoint.

Used by the CI ``service`` job (it greps for ``accounting OK``); exits
0 on success, 1 on any failed check.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import tempfile
import threading
import time

from repro.core.objective import CostModel
from repro.schedulers import build_scheduler
from repro.service import (
    SchedulerService,
    ServiceClient,
    ServiceConfig,
    ServiceHTTPServer,
)
from repro.simulation.simulator import Simulator
from repro.tools import tsan

#: Minimum sustained submission attempts per second (the ISSUE floor is
#: 1k/s; stdlib ThreadingHTTPServer with keep-alive does far more).
MIN_RATE = 1000.0

WORKERS = 8
ATTEMPTS_PER_WORKER = 500


def _worker(port: int, worker_id: int, results: list) -> None:
    """One persistent connection submitting single-job batches."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.connect()
    # Mirror the server's Nagle opt-out; without it every request eats
    # a delayed-ACK round trip and the drill measures the kernel timer,
    # not the gateway.
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    accepted = rejected = 0
    account = worker_id % 2  # small cluster: account m owns job type m
    body = json.dumps({"account": account, "job_type": account, "count": 1})
    for _ in range(ATTEMPTS_PER_WORKER):
        conn.request(
            "POST", "/v1/jobs", body, {"Content-Type": "application/json"}
        )
        reply = conn.getresponse()
        reply.read()  # drain so the connection can be reused
        if reply.status == 202:
            accepted += 1
        elif reply.status == 429:
            rejected += 1
        else:
            results.append(("error", worker_id, reply.status))
            conn.close()
            return
    conn.close()
    results.append(("ok", accepted, rejected))


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as tmp:
        config = ServiceConfig(
            scenario_kind="small",
            capacity_slots=100,
            scheduler="grefar",
            scheduler_kwargs={"v": 10.0},
            intake_capacity=500,
            rate=200.0,  # per-account jobs/s: low enough to force 429s
            burst=100.0,
            checkpoint_every=10,
            data_dir=tmp,
        )
        service = SchedulerService(config)
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        port = server.server_address[1]
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=30.0)
        print(f"gateway up on port {port} ({client.health()['scheduler']})")

        results: list = []
        workers = [
            threading.Thread(target=_worker, args=(port, i, results))
            for i in range(WORKERS)
        ]
        start = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        elapsed = time.perf_counter() - start

        errors = [r for r in results if r[0] == "error"]
        if errors:
            failures.append(f"unexpected HTTP statuses from workers: {errors}")
        accepted = sum(r[1] for r in results if r[0] == "ok")
        rejected = sum(r[2] for r in results if r[0] == "ok")
        attempted = WORKERS * ATTEMPTS_PER_WORKER
        rate = attempted / elapsed
        print(
            f"{attempted} attempts in {elapsed:.2f}s ({rate:.0f} submissions/s): "
            f"{accepted} accepted (202), {rejected} refused (429)"
        )
        if rate < MIN_RATE:
            failures.append(
                f"throughput {rate:.0f}/s below the {MIN_RATE:.0f}/s floor"
            )
        if accepted == 0 or rejected == 0:
            failures.append(
                "drill must exercise both acceptance and backpressure "
                f"(got {accepted} / {rejected})"
            )

        # -- accounting: client-side tallies == server-side counters ----
        counters = client.metrics()["service"]
        server_rejected = (
            counters["rejected_rate_limited"] + counters["rejected_backpressure"]
        )
        if accepted + rejected != attempted:
            failures.append(
                f"accounting broken: {accepted} + {rejected} != {attempted}"
            )
        if counters["accepted_jobs"] != accepted:  # count=1 per submission
            failures.append(
                f"server accepted {counters['accepted_jobs']} != client {accepted}"
            )
        if server_rejected != rejected:
            failures.append(
                f"server rejected {server_rejected} != client {rejected}"
            )
        if not failures:
            print(
                "accounting OK: every attempt answered 202 or 429 and the "
                "server counters match the client tallies exactly"
            )

        # -- drain, then prove offline equivalence -----------------------
        while client.health()["pending_jobs"] > 0:
            client.tick(1)
        client.tick(1)  # one empty slot for good measure
        completed = client.health()["next_slot"]
        print(f"drained the intake in {completed} slots")

        state = service.state
        scenario = state.replay_scenario()
        result = Simulator(
            scenario,
            build_scheduler("grefar", scenario.cluster, v=10.0),
            cost_model=CostModel(beta=config.cost_beta),
        ).run()
        if (
            result.metrics.energy_cost == state.sim.metrics.energy_cost
            and result.metrics.fairness == state.sim.metrics.fairness
            and result.metrics.served_jobs == state.sim.metrics.served_jobs
            and result.metrics.queue_total == state.sim.metrics.queue_total
        ):
            print(
                f"replay OK: {completed} live slots match the offline "
                "Simulator bit for bit"
            )
        else:
            failures.append("offline replay diverged from the live slot records")

        # -- graceful shutdown through the admin endpoint ---------------
        client.shutdown()
        thread.join(timeout=15)
        if thread.is_alive():
            failures.append("server thread did not stop after /v1/admin/shutdown")
        server.server_close()
        if config.checkpointer().load() is None:
            failures.append("shutdown left no final checkpoint behind")
        else:
            print("shutdown OK: server stopped and left a final checkpoint")

        # -- lock/race sanitizer audit (REPRO_TSAN=1 runs only) ---------
        if tsan.enabled():
            violations = tsan.reports()
            for finding in violations:
                failures.append(f"sanitizer: {finding.render()}")
            if not violations:
                print(
                    "tsan OK: zero lock-order/guarded-field violations "
                    "under concurrent load"
                )

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
