"""The execution engine: ``run_many`` over specs, serial or process-pool.

Every simulation-launching layer of the package — the experiment
modules, ``repro run``/``compare``/``sweep-v``, the tradeoff sweeps —
reduces to the same call::

    results = run_many(specs, jobs=4, cache=default_cache())

Guarantees:

* **Order** — results come back in spec order regardless of ``jobs``.
* **Determinism** — a worker rebuilds the scenario, scheduler and cost
  model from the spec (numpy seeding is per-spec), so ``jobs=N``
  summaries are bit-identical to ``jobs=1``; the jobs=1 path runs
  in-process with no executor at all.
* **Caching** — with a :class:`~repro.runner.cache.ResultCache`,
  completed specs are loaded instead of re-run and fresh results are
  stored.  Runs carrying non-declarative overrides (a live scheduler or
  cost-model object) are never cached; with ``REPRO_CONTRACTS=1`` the
  cache is bypassed so contract observers actually execute.
* **Robustness** — a pool worker that dies mid-batch
  (``BrokenProcessPool``: OOM kill, segfault, ``os._exit``) does not
  crash the batch: every affected task is retried once in-process and
  the event is surfaced as :attr:`RunnerStats.incidents`
  (``runner.incidents`` on the stats registry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro._contracts import contracts_enabled, queue_bound_observer
from repro._validation import require_integer
from repro.obs.registry import stats_registry
from repro.resilient.checkpoint import DEFAULT_CHECKPOINT_DIR, Checkpointer
from repro.runner.cache import ResultCache, cache_key
from repro.runner.collect import collect_value
from repro.runner.result import RunResult
from repro.runner.spec import RunSpec

__all__ = [
    "CheckpointPolicy",
    "RunnerStats",
    "checkpoint_policy",
    "reset_stats",
    "resume_from_checkpoint",
    "run_many",
    "run_spec",
    "runner_stats",
    "set_checkpoint_policy",
]


@dataclass(frozen=True)
class CheckpointPolicy:
    """How (and whether) the engine checkpoints the runs it launches.

    Only *cacheable* specs are checkpointed — a run carrying a live
    scheduler/cost-model override has no stable content address to key
    the snapshot by (mirroring the cache's own rule).

    Parameters
    ----------
    every:
        Snapshot period in slots (``None``: no periodic saves).
    resume:
        Restore from an existing snapshot before running (a missing or
        stale snapshot silently falls back to a fresh run).
    directory:
        Where snapshots live; default ``.repro_cache/checkpoints``.
    kill_at:
        Crash drill: kill each run (with a final snapshot) once this
        many slots completed, raising
        :class:`~repro.resilient.checkpoint.SimulationKilled`.
    """

    every: int | None = None
    resume: bool = False
    directory: str = str(DEFAULT_CHECKPOINT_DIR)
    kill_at: int | None = None

    def __post_init__(self) -> None:
        if self.every is not None:
            require_integer(self.every, "checkpoint every", minimum=1)
        if self.kill_at is not None:
            require_integer(self.kill_at, "kill_at", minimum=1)

    @property
    def active(self) -> bool:
        return self.every is not None or self.resume or self.kill_at is not None

    def checkpointer_for(self, key: str) -> Checkpointer | None:
        if not self.active or not key:
            return None
        return Checkpointer(
            key=key, every=self.every, directory=self.directory, kill_at=self.kill_at
        )


# The CLI configures checkpointing process-wide; the policy also ships
# inside each task tuple so jobs > 1 worker processes see it.
_CHECKPOINT_POLICY: CheckpointPolicy | None = None


def set_checkpoint_policy(policy: CheckpointPolicy | None) -> None:
    """Install (or clear) the process-wide checkpoint policy."""
    global _CHECKPOINT_POLICY
    _CHECKPOINT_POLICY = policy


def checkpoint_policy() -> CheckpointPolicy | None:
    """The currently installed process-wide checkpoint policy."""
    return _CHECKPOINT_POLICY


@dataclass(frozen=True)
class RunnerStats:
    """Snapshot of the engine counters since the last :func:`reset_stats`.

    The numbers themselves live on the always-on stats registry
    (:func:`repro.obs.registry.stats_registry`) under ``runner.*`` —
    this class is the read-side view plus the one shared render used by
    both the CLI footer and the ``progress=True`` report.
    """

    executed: int = 0
    cache_hits: int = 0
    jobs: int = 1
    #: Worker-death events absorbed by the in-process retry path.
    incidents: int = 0

    def render(self) -> str:
        text = f"runner: {self.executed} executed, {self.cache_hits} cached"
        if self.incidents:
            text += f", {self.incidents} incident(s)"
        return text + f" (jobs={self.jobs})"


def runner_stats() -> RunnerStats:
    """The process-wide counters (the CLI prints these after a command)."""
    registry = stats_registry()
    return RunnerStats(
        executed=int(registry.counter("runner.executed")),
        cache_hits=int(registry.counter("runner.cache_hits")),
        jobs=int(registry.gauge("runner.jobs", 1.0)),
        incidents=int(registry.counter("runner.incidents")),
    )


def reset_stats() -> None:
    """Zero the process-wide counters."""
    stats_registry().reset("runner.")


# ----------------------------------------------------------------------
# Worker body — module-level so it pickles under any start method.
# ----------------------------------------------------------------------
def _execute_task(task: tuple) -> RunResult:
    """Materialize and run one spec; returns the picklable result.

    *task* is ``(key, spec, scenario, scheduler, cost_model, ckpt)``
    where the middle three are optional overrides (``None`` = build
    from the spec) and *ckpt* is an optional
    :class:`CheckpointPolicy`.
    """
    key, spec, scenario, scheduler, cost_model, ckpt = task
    if scenario is None:
        if spec.scenario is None:
            raise ValueError(
                "spec has no scenario reference and no scenario override"
            )
        scenario = spec.scenario.materialize()

    result = None
    if spec.scheduler is not None or scheduler is not None:
        from repro.core.objective import CostModel
        from repro.simulation.simulator import Simulator

        if scheduler is None:
            from repro.schedulers.registry import build_scheduler

            scheduler = build_scheduler(
                spec.scheduler, scenario.cluster, **dict(spec.scheduler_kwargs)
            )
        if cost_model is None:
            cost_model = CostModel(beta=spec.cost_beta)
        injector = None
        if spec.faults is not None and not spec.faults.is_empty:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(scenario.cluster, spec.faults)
        observers = []
        if spec.queue_bound is not None:
            observers.append(queue_bound_observer(spec.queue_bound))
        checkpointer = ckpt.checkpointer_for(key) if ckpt is not None else None
        result = Simulator(
            scenario,
            scheduler,
            cost_model=cost_model,
            injector=injector,
            observers=observers,
        ).run(
            spec.horizon,
            checkpointer=checkpointer,
            resume=ckpt.resume if ckpt is not None else False,
        )

    series = {
        name: collect_value(name, scenario, result) for name in spec.collect
    }
    summary = result.summary if result is not None else None
    return RunResult(key=key, summary=summary, series=series)


def _share_scenarios(pending: list) -> Iterator[tuple]:
    """Yield the tasks of *pending*, each distinct ``ScenarioSpec`` built once.

    A :class:`~repro.simulation.trace.Scenario` is immutable, so the
    in-process runs of one call can share it.  Each is built when its
    first task comes up and dropped after its last, so only scenarios
    with runs still ahead are held.  Tasks that already carry a
    scenario override are left as they are.
    """
    last = {
        task[1].scenario: position
        for position, (_, task) in enumerate(pending)
        if task[2] is None
    }
    built: dict = {}
    for position, (_, task) in enumerate(pending):
        key, spec, scenario, scheduler, cost_model, ckpt = task
        source = spec.scenario
        if scenario is None and source is not None:
            if source not in built:
                built[source] = source.materialize()
            scenario = built[source]
            if last[source] == position:
                del built[source]
        yield (key, spec, scenario, scheduler, cost_model, ckpt)


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def run_many(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    cache: ResultCache | None = None,
    scenario=None,
    schedulers: Sequence | None = None,
    cost_models: Sequence | None = None,
    progress: bool = False,
    checkpoint: CheckpointPolicy | None = None,
) -> list:
    """Execute *specs* and return one :class:`RunResult` per spec, in order.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) executes in-process — no
        executor, no pickling — and is the reference behavior the
        parallel path is tested bit-identical against.
    cache:
        Optional result cache; hits skip execution entirely.
    scenario:
        Optional pre-built scenario shared by every spec (overrides
        ``spec.scenario``); cached under its content fingerprint.
    schedulers / cost_models:
        Optional per-spec override sequences (``None`` entries fall
        back to the spec).  Overridden runs are executed but not cached
        — a live object has no stable content address.
    progress:
        Print a one-line cache/execution report to stderr when done.
    checkpoint:
        Optional :class:`CheckpointPolicy`; defaults to the
        process-wide policy installed by :func:`set_checkpoint_policy`
        (``None`` = no checkpointing).  Applies only to cacheable
        specs, whose cache key names the snapshot.
    """
    specs = list(specs)
    require_integer(jobs, "jobs", minimum=1)
    if schedulers is not None and len(schedulers) != len(specs):
        raise ValueError("schedulers override must match specs in length")
    if cost_models is not None and len(cost_models) != len(specs):
        raise ValueError("cost_models override must match specs in length")
    if contracts_enabled():
        # Cache hits would skip the run entirely, silently skipping the
        # runtime contracts the caller asked for; always execute.
        cache = None
    ckpt = checkpoint if checkpoint is not None else _CHECKPOINT_POLICY
    if ckpt is not None and not ckpt.active:
        ckpt = None

    results: dict = {}
    pending: list = []
    for index, spec in enumerate(specs):
        scheduler = schedulers[index] if schedulers is not None else None
        cost_model = cost_models[index] if cost_models is not None else None
        cacheable = scheduler is None and cost_model is None
        key = cache_key(spec, scenario) if cacheable else ""
        if cache is not None and cacheable:
            hit = cache.load(key)
            if hit is not None:
                results[index] = hit.as_cached()
                continue
        pending.append((index, (key, spec, scenario, scheduler, cost_model, ckpt)))

    incidents = 0
    if pending:
        if jobs == 1 or len(pending) == 1:
            fresh = [_execute_task(task) for task in _share_scenarios(pending)]
        else:
            from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

            workers = min(jobs, len(pending))
            fresh = [None] * len(pending)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_execute_task, task) for _, task in pending]
                for position, future in enumerate(futures):
                    try:
                        fresh[position] = future.result()
                    except BrokenProcessPool:
                        # A worker died mid-batch (OOM kill, segfault,
                        # os._exit).  The pool is unusable from here on
                        # — every remaining future raises the same
                        # error — so retry each affected task once
                        # in-process instead of losing the batch, and
                        # surface the event on RunnerStats.
                        incidents += 1
                        stats_registry().counter_add("runner.incidents")
                        fresh[position] = _execute_task(pending[position][1])
        for (index, task), result in zip(pending, fresh):
            results[index] = result
            if cache is not None and task[0]:
                cache.store(task[0], result)

    hits = len(specs) - len(pending)
    registry = stats_registry()
    registry.counter_add("runner.executed", len(pending))
    registry.counter_add("runner.cache_hits", hits)
    registry.gauge_set("runner.jobs", jobs)
    if progress:
        import sys

        batch = RunnerStats(
            executed=len(pending), cache_hits=hits, jobs=jobs, incidents=incidents
        )
        print(
            f"[repro.runner] {len(specs)} spec(s): {batch.render()}",
            file=sys.stderr,
        )
    return [results[index] for index in range(len(specs))]


def run_spec(
    spec: RunSpec,
    cache: ResultCache | None = None,
    scenario=None,
) -> RunResult:
    """Convenience wrapper: execute a single spec in-process."""
    return run_many([spec], jobs=1, cache=cache, scenario=scenario)[0]


def resume_from_checkpoint(
    spec: RunSpec,
    cache: ResultCache | None = None,
    scenario=None,
    every: int | None = None,
    directory: str | None = None,
) -> RunResult:
    """Finish *spec*'s interrupted run from its on-disk checkpoint.

    The snapshot is located by the spec's cache key, restored, and the
    run continued to completion — bit-identical to never having been
    interrupted.  With no usable snapshot the spec simply runs from
    scratch, so calling this on a completed (or never-started) spec is
    safe.  *every* keeps periodic checkpointing on during the resumed
    portion.
    """
    policy = CheckpointPolicy(
        every=every,
        resume=True,
        directory=directory if directory is not None else str(DEFAULT_CHECKPOINT_DIR),
    )
    return run_many([spec], jobs=1, cache=cache, scenario=scenario, checkpoint=policy)[0]
