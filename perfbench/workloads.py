"""The benchmark's three workloads, their checks and their metrics.

* ``fig2-sweep`` -- Fig. 2: the paper scenario under GreFar at beta=0
  for V in {0.1, 2.5, 7.5, 20}, one after another in one process through
  ``repro.experiments.fig2_v_sweep.run(jobs=1, use_cache=False)``.  The
  greedy path: route, problem build, supervision, queue step and clip.
* ``paper-fair`` -- Fig. 3's beta side: the paper scenario under GreFar
  at V=7.5, beta=100, one ``Simulator.run``.  SLSQP inside ``solve_qp``
  dominates; it is also the control for fig2-sweep and vice versa.
* ``service-ingest`` -- the live gateway: a real ``repro serve`` process
  on the paper environment (GreFar V=7.5, beta=0, manual ticks, ckpt-v1
  every 10 slots) fed the seeded paper arrivals over HTTP, closed loop.

Every simulated quality metric is a pure function of the seed: the batch
workloads are seeded end to end, and the gateway is configured so that
no wall-clock admission decision (rate limit, backpressure) can refuse a
submission, so each tick consumes exactly the generated arrival vector.

A *submission* is one job type's arrivals in one slot (a positive entry
of the arrival matrix).  The gateway receives each as one
``POST /v1/jobs``; the batch simulators take them in with the slot that
consumes them, so on the batch workloads a submission's latency is the
host time of its slot, and ``tick`` is one simulated slot.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import resource
import shutil
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import LAYERS, Tracer, layer_metrics, patched, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Everything a run leaves behind: spans, the determinism record,
#: gateway data directories while they are in use.
OUT = ROOT / ".perfbench_out"

#: Paper scenario length for the batch workloads (Figs. 2 and 3).
HORIZON = 2000
#: Slots the gateway serves in one run: about 20 s of driving on a
#: 2-vCPU Xeon VM, with 20 ticks beyond tick p99.
SERVICE_HORIZON = 2000
FIG2_KWARGS = tuple({"v": v, "beta": 0.0} for v in (0.1, 2.5, 7.5, 20.0))
FAIR_KWARGS = {"v": 7.5, "beta": 100.0}
SERVICE_KWARGS = {"v": 7.5, "beta": 0.0}
CHECKPOINT_EVERY = 10
#: Slots per window of the gateway's windowed metrics (10 per run).
WINDOW_SLOTS = 200
#: Slots per window of the batch latency percentiles (>= 10 beyond p99).
BATCH_WINDOW_SLOTS = 1000
#: Slots of an untimed warm-up simulation before a batch workload is timed.
WARMUP_SLOTS = 50
#: Fresh processes timed per run for ``setup_s`` (median reported).
SETUP_SAMPLES = 5
#: Token-bucket rate and burst far above anything the client can send,
#: so the wall-clock limiter never refuses.
UNLIMITED_RATE = 1e12

#: Environment for every child process: the program, no telemetry, no
#: contracts, no sanitizer -- the timed runs measure the plain program.
CHILD_ENV = {
    key: value
    for key, value in os.environ.items()
    if key not in ("REPRO_OBS", "REPRO_CONTRACTS", "REPRO_TSAN")
}
CHILD_ENV["PYTHONPATH"] = str(SRC)

#: Reference-kernel seconds on the nominal host that host times are scaled to.
NOMINAL_KERNEL_S = 0.010
#: Seconds of measured work between two reference-kernel samples.
SPEED_PERIOD_S = 0.1


def reference_kernel() -> float:
    """A fixed mix of interpreter and small-array work, like a slot's."""
    acc = 0.0
    table: dict = {}
    grid = np.arange(24.0).reshape(3, 8)
    for i in range(2500):
        table[i % 97] = i
        acc += float(np.minimum(grid, float(i % 13)).sum()) + len(table)
        acc += sorted(((i * 7919) % 101, i % 17, i % 5))[0]
    return acc


class HostSpeed:
    """This host's current speed, sampled with :func:`reference_kernel`.

    On a shared virtual machine other tenants contend for the cores, and
    the same build's throughput drifts by up to 2x within a minute (2-vCPU
    Xeon VM) -- more than repetition averages out.  The program-independent
    kernel, run between stretches of measured work, slows down with it
    (log-time correlation 0.95, slope 0.9-1.0, against both the greedy and
    the SLSQP slot loop over 1 s windows on that VM).  Host times are
    therefore reported scaled to a nominal host on which the kernel takes
    :data:`NOMINAL_KERNEL_S`: each stretch of work between two kernel runs
    is scaled by the mean kernel time around it.  Kernel time is never
    work.
    """

    def __init__(self) -> None:
        self.runs: list = []  # (start, end) of every kernel run
        self._due = 0.0

    def sample(self) -> float:
        """Run the kernel once; returns the seconds it took."""
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.runs.append((start, end))
        self._due = end + SPEED_PERIOD_S
        return end - start

    def poll(self) -> float:
        """Sample if :data:`SPEED_PERIOD_S` passed since the last; seconds spent."""
        return self.sample() if time.perf_counter() >= self._due else 0.0

    def _gap_scales(self) -> np.ndarray:
        """Scale per gap between runs: the two runs around it and their neighbours.

        A single 10 ms kernel run is itself noisy; four runs span about
        0.4 s, still short against the drift.
        """
        runs = np.asarray(self.runs)
        kernel = runs[:, 1] - runs[:, 0]
        return np.asarray(
            [NOMINAL_KERNEL_S / kernel[max(gap - 1, 0): gap + 3].mean() for gap in range(len(kernel) - 1)]
        )

    def scale_at(self, when):
        """The scale for work that started at host time(s) *when*."""
        gap = np.searchsorted(np.asarray(self.runs)[:, 1], when) - 1
        scales = self._gap_scales()
        return scales[np.clip(gap, 0, len(scales) - 1)]

    def nominal_seconds(self) -> float:
        """Nominal seconds of all work between the first and last kernel run."""
        runs = np.asarray(self.runs)
        return float(np.sum((runs[1:, 0] - runs[:-1, 1]) * self._gap_scales()))


@dataclass
class Outcome:
    """What one benchmark invocation measured and checked."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    quality: dict = field(default_factory=dict)  # deterministic metrics + digest
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # failed output checks


def energy_digest(series) -> str:
    """SHA-256 of per-slot energy values as float64 bytes."""
    joined = np.concatenate([np.asarray(s, dtype=np.float64).ravel() for s in series])
    return hashlib.sha256(joined.tobytes()).hexdigest()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another process's peak resident set (``VmHWM``), in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def median_setup_s(argv: list) -> float:
    """Median nominal seconds from spawning a set-up probe until it is ready."""
    samples = []
    speed = HostSpeed()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=CHILD_ENV, stdout=subprocess.PIPE, text=True)
        try:
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError("set-up probe failed")
            samples.append((start, time.perf_counter() - start))
        finally:
            proc.kill()
            proc.communicate()
    speed.sample()
    return float(np.median([seconds * speed.scale_at(start) for start, seconds in samples]))


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
@dataclass
class Rep:
    """One repetition of a batch workload."""

    seconds: float  # host seconds; nominal seconds for timed runs
    slots: int
    quality: dict
    fallbacks: float
    slot_ms: tuple = ()  # (slot indices, nominal ms per slot), timed runs


def _fallbacks() -> float:
    from repro.obs.registry import stats_registry

    stats = stats_registry()
    return stats.counter("resilient.fallbacks") + stats.counter("resilient.incidents")


def _quality(summaries, energy_series) -> dict:
    return {
        "energy_cost_avg": float(np.mean([s.avg_energy_cost for s in summaries])),
        "fairness_dev_avg": -float(np.mean([s.avg_fairness for s in summaries])),
        "delay_slots_avg": float(np.mean([s.avg_total_delay for s in summaries])),
        "energy_digest": energy_digest(energy_series),
    }


def run_fig2(seed: int, horizon: int, problems: list) -> tuple:
    """One Fig. 2 sweep; returns ``(slots, quality)`` and checks its shape."""
    from repro.experiments import fig2_v_sweep

    captured = []

    def capture(run_many):
        def wrapper(*args, **kwargs):
            results = run_many(*args, **kwargs)
            captured.extend(results)
            return results

        return wrapper

    with patched() as patch:
        patch.replace("repro.experiments.fig2_v_sweep", ("run_many",), capture)
        result = fig2_v_sweep.run(horizon=horizon, seed=seed, jobs=1, use_cache=False)
    check_fig2_shape(result, problems)
    summaries = [r.summary for r in captured]
    return len(summaries) * horizon, _quality(summaries, result.energy_series)


def check_fig2_shape(result, problems: list) -> None:
    """Fig. 2's shape: cost falls and delay grows with V.

    Energy must fall strictly over V = 2.5 -> 7.5 -> 20 and end at least
    5% below V = 0.1.  The pair (0.1, 2.5) is only printed: both serve
    nearly everything at once, and which of the two costs more depends
    on the seed (V = 0.1 is cheaper on seeds 2, 3, 9 and 11 of 1-13).
    """
    energy = result.final_energy
    print(f"fig2 energy by V {result.v_values}: {energy}")
    if not all(a > b for a, b in zip(energy[1:], energy[2:])):
        problems.append(f"fig2: energy not strictly decreasing over V>=2.5: {energy}")
    if not energy[-1] < 0.95 * energy[0]:
        problems.append(f"fig2: V=20 saves under 5% energy against V=0.1: {energy}")
    for label, delays in (("DC1", result.final_delay_dc1), ("DC2", result.final_delay_dc2)):
        if not all(a <= b for a, b in zip(delays, delays[1:])):
            problems.append(f"fig2: {label} delay decreases with V: {delays}")


def run_paper_fair(scenario, problems: list) -> tuple:
    """One beta=100 run; returns ``(slots, quality)`` and checks the solver."""
    from repro.core.grefar import GreFarScheduler
    from repro.simulation.simulator import Simulator

    scheduler = GreFarScheduler(scenario.cluster, **FAIR_KWARGS)
    if scheduler.select_backend() != "qp":
        problems.append(f"paper-fair: backend {scheduler.select_backend()!r}, not qp")
    before = _fallbacks()
    result = Simulator(scenario, scheduler).run()
    if _fallbacks() != before:
        problems.append("paper-fair: qp did not serve every slot (supervisor fallback)")
    return scenario.horizon, _quality([result.summary], [result.metrics.energy_cost])


def _rep(work) -> Rep:
    """One untimed-clock repetition (trace mode): raw host seconds."""
    before = _fallbacks()
    start = time.perf_counter()
    slots, quality = work()
    seconds = time.perf_counter() - start
    return Rep(seconds, slots, quality, _fallbacks() - before)


def window_p99(slot_ms: np.ndarray, weights: np.ndarray) -> float:
    """Median over :data:`BATCH_WINDOW_SLOTS`-slot windows of each window's p99.

    A host hiccup of a few ms lands in some slot's time; pooled, such
    hiccups set the p99 (10% spread between runs of one seed), while the
    median over windows leaves them to the windows they hit.  *weights*
    counts each slot once per submission (or tick) it stands for.
    """
    return float(np.median([
        percentile(np.repeat(slot_ms[start:stop], weights[start:stop]), 99)
        for start in range(0, len(slot_ms) - BATCH_WINDOW_SLOTS + 1, BATCH_WINDOW_SLOTS)
        for stop in [start + BATCH_WINDOW_SLOTS]
    ]))


def _timed_rep(work) -> Rep:
    """One repetition with a per-slot clock and host-speed samples.

    ``Scenario.state_at`` opens every simulated slot, so the clock wraps
    it: a slot runs from one call to the next (the last slot of each
    simulation has no successor and is left out).  Host-speed samples run
    between slots and are subtracted from the measured work.
    """
    speed = HostSpeed()
    marks: list = []  # (slot, previous slot ended, this slot started)

    def clock(state_at):
        def wrapper(scenario, t):
            ended = time.perf_counter()
            speed.poll()
            marks.append((t, ended, time.perf_counter()))
            return state_at(scenario, t)

        return wrapper

    with patched() as patch:
        patch.replace("repro.simulation.trace", ("Scenario", "state_at"), clock)
        speed.sample()
        rep = _rep(work)
        speed.sample()
    rep.seconds = speed.nominal_seconds()
    slots, started, ms = (np.asarray(column) for column in zip(*(
        (t, started, 1e3 * (ended - started))
        for (t, _, started), (u, ended, _) in zip(marks, marks[1:])
        if u == t + 1
    )))
    rep.slot_ms = (slots, ms * speed.scale_at(started))
    return rep


def batch_workload(name: str, seed: int, seconds: float, trace: bool, horizon: int = HORIZON) -> Outcome:
    """Run a batch workload: timed repetitions, or one untraced + one traced."""
    from repro.scenarios import paper_scenario

    outcome = Outcome()
    problems = outcome.problems
    scenario = paper_scenario(horizon=horizon, seed=seed)
    if name == "fig2-sweep":
        runs = len(FIG2_KWARGS)

        def work():
            return run_fig2(seed, horizon, problems)

    else:
        runs = 1

        def work():
            return run_paper_fair(scenario, problems)

    per_slot_subs = np.count_nonzero(scenario.arrivals, axis=1)
    # Warm-up: finish imports and first-call set-up before anything is timed.
    if name == "fig2-sweep":
        run_fig2(seed, WARMUP_SLOTS, [])
    else:
        run_paper_fair(scenario.truncated(WARMUP_SLOTS), [])
    if trace:
        untraced = _rep(work)
        with Tracer(LAYERS) as tracer:
            with tracer.span("benchmark.workload"):
                traced = _rep(work)
        reps = [untraced, traced]
        totals = self_times(tracer.spans)
        wall = totals["benchmark.workload"][1]
        outcome.metrics = layer_metrics(totals, tracer.tallies, traced.slots, 0, wall)
        add_trace_summary(outcome.metrics, totals["benchmark.workload"][2] / wall,
                          untraced.slots / untraced.seconds, traced.slots / traced.seconds)
        write_spans(name, seed, tracer.dump())
    else:
        setup = median_setup_s(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(horizon)]
        )
        # Repeat while another repetition ends nearer to *seconds* than stopping.
        reps = []
        begin = time.perf_counter()
        while True:
            rep_began = time.perf_counter()
            reps.append(_timed_rep(work))
            now = time.perf_counter()
            if now - begin + (now - rep_began) / 2 > seconds:
                break
        slots, slot_ms = (np.concatenate(a) for a in zip(*(r.slot_ms for r in reps)))
        subs = per_slot_subs[slots]
        outcome.metrics = {
            "setup_s": (setup, "s"),
            "slots_per_s": (float(np.median([r.slots / r.seconds for r in reps])), "slots/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "submits_per_s": (
                len(reps) * runs * int(per_slot_subs.sum()) / sum(r.seconds for r in reps),
                "submissions/s",
            ),
            "submit_ms_p50": (percentile(np.repeat(slot_ms, subs), 50), "ms"),
            "submit_ms_p99": (window_p99(slot_ms, subs), "ms"),
            "tick_ms_p50": (percentile(slot_ms, 50), "ms"),
            "tick_ms_p99": (window_p99(slot_ms, np.ones_like(subs)), "ms"),
        }
    outcome.quality = reps[0].quality
    for rep in reps[1:]:
        if rep.quality != outcome.quality:
            problems.append(f"{name}: repetitions disagree: {rep.quality} != {outcome.quality}")
    outcome.attempted = sum(rep.slots for rep in reps)
    outcome.failed = int(sum(rep.fallbacks for rep in reps))
    return outcome


def add_trace_summary(metrics: dict, uncovered: float, untraced_sps: float, traced_sps: float) -> None:
    metrics["trace.uncovered_share"] = (uncovered, "ratio")
    metrics["trace.overhead_ratio"] = (untraced_sps / traced_sps, "ratio")


def write_spans(name: str, seed: int, dump: dict) -> None:
    """Spans stay in memory during the run and are written out after it."""
    path = OUT / f"spans-{name}-{seed}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(dump))


# ----------------------------------------------------------------------
# service-ingest
# ----------------------------------------------------------------------
JSON_HEADERS = {"Content-Type": "application/json"}


def serve_argv(seed: int, horizon: int, intake: int, data_dir: Path, spans_out=None) -> list:
    """``repro serve`` for the paper environment with manual ticks.

    With *spans_out* the gateway starts through the traced launcher,
    which writes its spans there when the gateway shuts down.
    """
    args = [
        "serve", "--port", "0", "--scenario", "paper", "--seed", str(seed),
        "--capacity-slots", str(horizon), "--scheduler", "grefar",
        "--v", str(SERVICE_KWARGS["v"]), "--beta", str(SERVICE_KWARGS["beta"]),
        "--intake-capacity", str(intake), "--rate", str(UNLIMITED_RATE),
        "--burst", str(UNLIMITED_RATE), "--checkpoint-every", str(CHECKPOINT_EVERY),
        "--data-dir", str(data_dir),
    ]
    if spans_out is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(HERE / "serve_traced.py"), str(spans_out), *args]


class Gateway:
    """A gateway child process and the client's keep-alive connection.

    Construction returns once ``GET /v1/health`` first answers 200;
    :attr:`setup_s` is the time from spawn to then.
    """

    def __init__(self, argv: list) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=CHILD_ENV, stdout=subprocess.PIPE, text=True)
        self.conn = None
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on http://"):
                raise RuntimeError(f"gateway did not start: {line!r}")
            host, port = line.strip().split("http://", 1)[1].rsplit(":", 1)
            self.conn = http.client.HTTPConnection(host, int(port), timeout=60)
            self.conn.connect()
            self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            status, _ = self.call("GET", "/v1/health")
            if status != 200:
                raise RuntimeError(f"gateway health answered {status}")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - self.started

    def call(self, method: str, path: str, body: str | None = None) -> tuple:
        """One request; returns ``(status, raw reply body)``."""
        self.conn.request(method, path, body, JSON_HEADERS)
        reply = self.conn.getresponse()
        return reply.status, reply.read()

    def get(self, path: str) -> dict:
        status, raw = self.call("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(raw)

    def close(self) -> None:
        """Shut the gateway down (final checkpoint) and wait for it to exit."""
        if self.conn is not None:
            if self.proc.poll() is None:
                try:
                    self.call("POST", "/v1/admin/shutdown", "{}")
                except (OSError, http.client.HTTPException):
                    pass
            self.conn.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Drive:
    """Client-side record of one closed-loop pass, slot by slot."""

    submit_ms: list = field(default_factory=list)  # per slot: POST /v1/jobs round trips
    submit_s: list = field(default_factory=list)  # per slot: seconds of submit phase
    tick_ms: list = field(default_factory=list)  # per slot: POST /v1/admin/tick round trip
    accepted: list = field(default_factory=list)  # per slot: submissions answered 202
    kernel: list = field(default_factory=list)  # (slot, seconds) host-speed samples
    accepted_jobs: int = 0
    failed: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.submit_s) + sum(self.tick_ms) / 1e3


def drive(gateway: Gateway, arrivals: np.ndarray, cluster, problems: list) -> Drive:
    """Submit each slot's arrivals, wait for every 202, then tick once.

    One keep-alive connection, closed loop: the next request goes out
    when the previous reply has been read.  Host-speed samples run
    between slots (at least one per window), while the gateway is idle;
    the kernel evicts the gateway's working set, so an untimed
    ``GET /v1/health`` runs before timing resumes (without it, submit p99
    read 0.93-1.21 ms over four runs, against 0.72-0.85 ms with it).
    """
    record = Drive()
    speed = HostSpeed()
    owners = [jt.account for jt in cluster.job_types]
    clock = time.perf_counter
    try:
        for t, row in enumerate(arrivals):
            latencies = []
            accepted = 0
            begin = clock()
            for j, count in enumerate(row):
                if count <= 0:
                    continue
                body = json.dumps({"account": owners[j], "job_type": j, "count": int(count)})
                sent = clock()
                status, _ = gateway.call("POST", "/v1/jobs", body)
                latencies.append(1e3 * (clock() - sent))
                if status == 202:
                    accepted += 1
                    record.accepted_jobs += int(count)
                else:
                    record.failed += 1
            ticked = clock()
            status, _ = gateway.call("POST", "/v1/admin/tick", '{"slots": 1}')
            done = clock()
            record.submit_ms.append(latencies)
            record.submit_s.append(ticked - begin)
            record.tick_ms.append(1e3 * (done - ticked))
            record.accepted.append(accepted)
            if status != 200:
                record.failed += 1
            spent = speed.sample() if t % WINDOW_SLOTS == 0 else speed.poll()
            if spent:
                record.kernel.append((t, spent))
                gateway.call("GET", "/v1/health")
    except (OSError, http.client.HTTPException) as exc:
        record.failed += 1
        problems.append(f"service-ingest: transport error: {exc!r}")
    return record


def gateway_metrics(record: Drive) -> dict:
    """The gateway's host-time metrics, taken over slot windows.

    A round trip needs both processes scheduled, so a burst of contention
    from other tenants of a shared VM inflates one run's submit tail
    several-fold (p99 1.2 -> 3.9 ms between two runs on a 2-vCPU VM).  The
    run is therefore cut into :data:`WINDOW_SLOTS`-slot windows, each
    scaled by the host speed sampled in it.  Latency percentiles are the
    median over windows of each window's percentile, except tick p99,
    which pools the run: a window holds too few ticks to leave 10 beyond
    its p99.  Throughputs divide the run's totals by the sum of its scaled
    window times: the windows slow down as the checkpoint grows, so a
    median over windows would rest on the one or two middle windows.
    """
    windows: dict = {}
    ticks = []
    submit_s = work_s = 0.0
    for start in range(0, len(record.tick_ms), WINDOW_SLOTS):
        stop = start + WINDOW_SLOTS
        samples = [spent for t, spent in record.kernel if start <= t < stop]
        scale = NOMINAL_KERNEL_S / float(np.mean(samples))
        submit_ms = np.concatenate(record.submit_ms[start:stop]) * scale
        tick_ms = np.asarray(record.tick_ms[start:stop]) * scale
        ticks.append(tick_ms)
        window_submit_s = sum(record.submit_s[start:stop]) * scale
        submit_s += window_submit_s
        work_s += window_submit_s + tick_ms.sum() / 1e3
        for name, value in (
            ("submit_ms_p50", percentile(submit_ms, 50)),
            ("submit_ms_p99", percentile(submit_ms, 99)),
            ("tick_ms_p50", percentile(tick_ms, 50)),
        ):
            windows.setdefault(name, []).append(value)
    metrics = {name: (float(np.median(v)), "ms") for name, v in windows.items()}
    metrics["tick_ms_p99"] = (percentile(np.concatenate(ticks), 99), "ms")
    metrics["slots_per_s"] = (len(record.tick_ms) / work_s, "slots/s")
    metrics["submits_per_s"] = (sum(record.accepted) / submit_s, "submissions/s")
    return metrics


def gateway_run(gateway: Gateway, arrivals: np.ndarray, cluster, problems: list) -> tuple:
    """Drive *gateway*, audit its books and close it.

    Returns ``(drive, quality, config, peak_rss_mb, fallbacks)``.
    """
    record = drive(gateway, arrivals, cluster, problems)
    horizon = len(arrivals)
    metrics = gateway.get("/v1/metrics")
    stats = gateway.get("/v1/stats")
    slots = gateway.get(f"/v1/slots?start=0&count={horizon}")
    config = gateway.get("/v1/config")
    rss = process_peak_rss_mb(gateway.proc.pid)
    gateway.close()

    submissions = int(np.count_nonzero(arrivals))
    accepted = sum(record.accepted)
    if accepted != submissions or record.failed:
        problems.append(
            f"service-ingest: {accepted}/{submissions} submissions answered 202, "
            f"{record.failed} failed operations"
        )
    service = metrics["service"]
    counters = metrics["stats"]["counters"]
    expected = {
        "accepted_jobs": record.accepted_jobs,
        "rejected_rate_limited": 0,
        "rejected_backpressure": 0,
        "pending_jobs": 0,
        "ticks_completed": horizon,
        "next_slot": horizon,
    }
    for key, value in expected.items():
        if service[key] != value:
            problems.append(f"service-ingest: server {key}={service[key]}, client expects {value}")
    if counters.get("service.submissions.accepted", 0) != accepted:
        problems.append("service-ingest: server accepted-submission counter != client 202 tally")
    fallbacks = counters.get("resilient.fallbacks", 0) + counters.get("resilient.incidents", 0)

    records = slots["records"]
    live = np.asarray([r["arrivals"] for r in records])
    if live.shape != arrivals.shape or not np.array_equal(live, arrivals):
        problems.append("service-ingest: ticked arrival vectors differ from the generated ones")
    check_replay(config["config"], records, problems)
    summary = stats["summary"]
    quality = {
        "energy_cost_avg": float(summary["avg_energy_cost"]),
        "fairness_dev_avg": -float(summary["avg_fairness"]),
        "delay_slots_avg": float(summary["avg_total_delay"]),
        "energy_digest": energy_digest([[r["energy_cost"] for r in records]]),
    }
    return record, quality, config["config"], rss, fallbacks


def service_config(described: dict):
    """Rebuild the gateway's ``ServiceConfig`` from ``GET /v1/config``."""
    from repro.service.state import ServiceConfig

    config = ServiceConfig(
        scenario_kind=described["scenario_kind"],
        scenario_seed=described["scenario_seed"],
        capacity_slots=described["capacity_slots"],
        scheduler=described["scheduler"],
        scheduler_kwargs=[tuple(pair) for pair in described["scheduler_kwargs"]],
        cost_beta=described["cost_beta"],
        data_dir=described["data_dir"],
    )
    if config.digest != described["digest"]:
        raise RuntimeError("rebuilt service config has a different digest")
    return config


def check_replay(described: dict, records: list, problems: list) -> None:
    """An offline ``Simulator`` replay must match the live slots bit for bit.

    The gateway's final checkpoint is restored into a ``ServiceState``
    and its ``replay_scenario()`` run through ``Simulator`` with a fresh
    scheduler of the same registry name and kwargs.
    """
    from repro.core.objective import CostModel
    from repro.schedulers import build_scheduler
    from repro.service.state import ServiceState
    from repro.simulation.simulator import Simulator

    config = service_config(described)
    state = ServiceState(config)
    state.restore(config.checkpointer().load())
    scenario = state.replay_scenario()
    replay = Simulator(
        scenario,
        build_scheduler(config.scheduler, scenario.cluster, **dict(config.scheduler_kwargs)),
        cost_model=CostModel(beta=config.cost_beta),
    ).run()
    for key, series in (
        ("energy_cost", replay.metrics.energy_cost),
        ("fairness", replay.metrics.fairness),
        ("served_jobs", replay.metrics.served_jobs),
        ("queue_total", replay.metrics.queue_total),
    ):
        if [r[key] for r in records] != list(series):
            problems.append(f"service-ingest: offline replay {key} differs from the live slots")


def service_workload(seed: int, trace: bool, horizon: int = SERVICE_HORIZON) -> Outcome:
    """Run the gateway workload: timed, or one untraced + one traced pass.

    The gateway serves a fixed number of slots, so its quality metrics
    depend on the seed alone and no time budget applies.  The last of the
    :data:`SETUP_SAMPLES` gateways spawned is the one driven.
    """
    from repro.scenarios import paper_scenario

    outcome = Outcome()
    problems = outcome.problems
    scenario = paper_scenario(horizon=horizon, seed=seed)
    arrivals = scenario.arrivals
    intake = int(arrivals.sum(axis=1).max())
    submissions = int(np.count_nonzero(arrivals))
    work_dir = OUT / f"service-{os.getpid()}"

    def start(spans_out=None) -> Gateway:
        # A fresh data directory: a gateway resumes from what it finds there.
        shutil.rmtree(work_dir, ignore_errors=True)
        return Gateway(serve_argv(seed, horizon, intake, work_dir, spans_out))

    def serve(gateway: Gateway) -> tuple:
        try:
            return gateway_run(gateway, arrivals, scenario.cluster, problems)
        finally:
            gateway.close()

    try:
        if trace:
            untraced, quality, _, _, fallbacks = serve(start())
            spans_path = work_dir / "spans.json"
            traced, traced_quality, described, _, more = serve(start(spans_path))
            fallbacks += more
            if traced_quality != quality:
                problems.append("service-ingest: traced and untraced runs disagree")
            dump = json.loads(spans_path.read_text())
            write_spans("service-ingest", seed, dump)
            outcome.metrics = service_layer_metrics(
                dump, traced, horizon, submissions, service_config(described).wal_path
            )
            add_trace_summary(
                outcome.metrics,
                1.0 - sum(v[2] for v in self_times(dump["spans"]).values()) / traced.wall_s,
                horizon / untraced.wall_s,
                horizon / traced.wall_s,
            )
            records = [untraced, traced]
        else:
            speed = HostSpeed()
            setups = []
            for _ in range(SETUP_SAMPLES):
                speed.sample()
                gateway = start()
                setups.append((gateway.started, gateway.setup_s))
                speed.sample()
                if len(setups) < SETUP_SAMPLES:
                    gateway.close()
            record, quality, _, rss, fallbacks = serve(gateway)
            setup = float(np.median([s * speed.scale_at(began) for began, s in setups]))
            outcome.metrics = gateway_metrics(record)
            outcome.metrics["setup_s"] = (setup, "s")
            outcome.metrics["peak_rss_mb"] = (rss, "MB")
            records = [record]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    outcome.quality = quality
    outcome.attempted = sum(sum(map(len, r.submit_ms)) + len(r.tick_ms) for r in records)
    outcome.failed = int(sum(r.failed for r in records) + fallbacks)
    return outcome


def service_layer_metrics(dump: dict, record: Drive, slots: int, submissions: int, wal_path: Path) -> dict:
    """Gateway-side layer metrics, normalised by the client's counts."""
    totals = self_times(dump["spans"])
    metrics = layer_metrics(totals, dump["tallies"], slots, submissions, record.wall_s)
    _calls, inclusive_s, _self = totals.get("service.app.SchedulerService.submit", (0, 0.0, 0.0))
    http_ms = float(np.mean(np.concatenate(record.submit_ms))) - 1e3 * inclusive_s / submissions
    metrics["service.app.http.self_ms"] = (http_ms, "ms/sub")
    metrics["service.app.http.share"] = (http_ms * submissions / 1e3 / record.wall_s, "ratio")
    metrics["service.ingest.SubmissionLog.append.bytes"] = (
        wal_path.stat().st_size / submissions,
        "bytes/sub",
    )
    return metrics
