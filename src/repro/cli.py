"""Command-line interface for the GreFar reproduction.

Usage (also available as ``python -m repro.cli``)::

    repro list                                # schedulers & experiments
    repro run --scheduler grefar --v 7.5 --beta 100 --horizon 500
    repro run --horizon 2000 --checkpoint-every 100     # crash-safe run
    repro run --horizon 2000 --resume                   # finish a killed run
    repro compare --horizon 500 --jobs 4      # GreFar vs every baseline
    repro sweep-v --values 0.1,2.5,7.5,20     # the Fig. 2 sweep
    repro experiment fig2 --horizon 2000      # regenerate a paper figure
    repro resilience --dc 1 --start 150 --duration 60   # outage drill
    repro chaos --fail-rate 0.15 --horizon 300          # solver-fault drill
    repro profile --scenario default --horizon 200      # hot-path table
    repro serve --scenario small --slot-seconds 1       # live gateway
    repro serve --scenario small --resume               # restart after a kill
    repro cache info                          # result-cache statistics
    repro lint src/repro --format json        # project static checker

Long runs are crash-safe: ``--checkpoint-every N`` snapshots the full
simulation state atomically under ``.repro_cache/checkpoints/`` every
N slots, and ``--resume`` continues a killed run from its snapshot
with bit-identical final metrics (``docs/SUPERVISION.md``).  A run
killed by the ``--kill-at`` crash drill exits with code 3.

Every simulation-launching subcommand routes through
:mod:`repro.runner`: ``--jobs N`` fans independent runs across worker
processes (bit-identical to serial) and completed runs are served from
the content-addressed cache under ``.repro_cache/`` unless
``--no-cache`` is given.  A ``runner: N executed, M cached`` line after
the output reports what actually ran.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Sequence

from repro.analysis import format_table
from repro.analysis.tradeoff import sweep_v
from repro.core.bounds import TheoremConstants
from repro.core.grefar import GreFarScheduler
from repro.core.slackness import check_slackness
from repro.faults import FaultEvent, FaultInjector, FaultSchedule, ResilienceObserver
from repro.faults.events import FAULT_KINDS
from repro.resilient import SimulationKilled, run_chaos_drill
from repro.runner import (
    CheckpointPolicy,
    ResultCache,
    RunSpec,
    ScenarioSpec,
    default_cache,
    reset_stats,
    run_many,
    runner_stats,
    set_checkpoint_policy,
)
from repro.scenarios import paper_scenario
from repro.schedulers import AlwaysScheduler, RandomRoutingScheduler, scheduler_names
from repro.simulation.simulator import Simulator

__all__ = ["main", "build_parser", "ExperimentInfo", "experiment_info"]


# ----------------------------------------------------------------------
# Experiment registry: name -> module + run metadata.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentInfo:
    """Metadata the CLI needs to launch one experiment module.

    ``default_horizon=None`` marks an experiment whose ``main()`` takes
    no ``horizon`` argument (Fig. 5 is parametrized by warmup/window
    instead); ``--horizon`` is ignored for those.
    """

    name: str
    module: str
    description: str
    default_horizon: int | None = 2000

    def main_kwargs(self, args) -> dict:
        """The ``main()`` keyword arguments for parsed CLI *args*."""
        kwargs = {
            "seed": args.seed,
            "jobs": args.jobs,
            "use_cache": not args.no_cache,
        }
        if self.default_horizon is not None:
            kwargs["horizon"] = args.horizon or self.default_horizon
        return kwargs


_EXPERIMENTS: dict = {
    info.name: info
    for info in (
        ExperimentInfo(
            "table1", "repro.experiments.table1",
            "Table I: configuration and electricity prices",
        ),
        ExperimentInfo(
            "fig1", "repro.experiments.fig1_trace",
            "Fig. 1: price and per-organization work trace",
            default_horizon=72,
        ),
        ExperimentInfo(
            "fig2", "repro.experiments.fig2_v_sweep",
            "Fig. 2: energy/delay versus V (beta = 0)",
        ),
        ExperimentInfo(
            "fig3", "repro.experiments.fig3_beta",
            "Fig. 3: impact of beta (V = 7.5)",
        ),
        ExperimentInfo(
            "fig4", "repro.experiments.fig4_vs_always",
            "Fig. 4: GreFar versus the Always baseline",
        ),
        ExperimentInfo(
            "fig5", "repro.experiments.fig5_snapshot",
            "Fig. 5: one-day schedule snapshot in DC #1",
            default_horizon=None,
        ),
        ExperimentInfo(
            "work", "repro.experiments.work_distribution",
            "work distribution across data centers",
        ),
        ExperimentInfo(
            "theorem1", "repro.experiments.theorem1",
            "Theorem 1: queue bound and cost-gap checks",
            default_horizon=240,
        ),
        ExperimentInfo(
            "surface", "repro.experiments.tradeoff_surface",
            "(V, beta) tradeoff surface",
            default_horizon=600,
        ),
        ExperimentInfo(
            "convergence", "repro.experiments.convergence",
            "empirical O(1/V) convergence fit",
            default_horizon=240,
        ),
        ExperimentInfo(
            "delays", "repro.experiments.delay_distribution",
            "delay percentiles per V",
            default_horizon=800,
        ),
    )
}


def experiment_info(name: str) -> ExperimentInfo:
    """The registry row for *name* (raises ``ValueError`` if unknown)."""
    try:
        return _EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(_EXPERIMENTS)}"
        ) from None


#: CLI flags forwarded as scheduler kwargs when the registry entry
#: accepts the parameter (``repro run --scheduler threshold --threshold ...``).
_RUN_PARAM_FLAGS = ("v", "beta", "threshold", "seed")


def _scheduler_kwargs_from_args(name: str, args) -> dict:
    from repro.schedulers import scheduler_entry

    entry = scheduler_entry(name)
    return {
        param: getattr(args, param)
        for param in _RUN_PARAM_FLAGS
        if param in entry.params
    }


def _cache_for(args) -> ResultCache | None:
    return None if args.no_cache else default_cache()


def _install_checkpoint_policy(args) -> None:
    """Install the process-wide checkpoint policy from the CLI flags."""
    every = getattr(args, "checkpoint_every", None)
    resume = bool(getattr(args, "resume", False))
    kill_at = getattr(args, "kill_at", None)
    if every is None and not resume and kill_at is None:
        set_checkpoint_policy(None)
        return
    set_checkpoint_policy(
        CheckpointPolicy(every=every, resume=resume, kill_at=kill_at)
    )


def _print_runner_stats() -> None:
    print(runner_stats().render())


def _summary_row(summary) -> tuple:
    return (
        summary.scheduler,
        summary.avg_energy_cost,
        summary.avg_fairness,
        summary.avg_total_delay,
        summary.max_queue_length,
    )


_SUMMARY_HEADERS = ["Scheduler", "Avg energy", "Avg fairness", "Avg delay", "Max queue"]


def _cmd_list(args) -> int:
    print("schedulers: " + ", ".join(scheduler_names()))
    print("experiments: " + ", ".join(sorted(_EXPERIMENTS)))
    return 0


def _cmd_run(args) -> int:
    reset_stats()
    try:
        _install_checkpoint_policy(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = RunSpec(
        scenario=ScenarioSpec(kind="paper", horizon=args.horizon, seed=args.seed),
        scheduler=args.scheduler,
        scheduler_kwargs=_scheduler_kwargs_from_args(args.scheduler, args),
    )
    try:
        result = run_many([spec], jobs=args.jobs, cache=_cache_for(args))[0]
    except SimulationKilled as exc:
        print(f"{exc}", file=sys.stderr)
        print("resume with the same command plus --resume", file=sys.stderr)
        return 3
    finally:
        set_checkpoint_policy(None)
    if args.json:
        import json

        print(json.dumps(result.summary.as_dict(), sort_keys=True))
        return 0
    print(
        format_table(
            _SUMMARY_HEADERS,
            [_summary_row(result.summary)],
            precision=4,
            title=f"{args.horizon}-slot run (seed {args.seed})",
        )
    )
    _print_runner_stats()
    return 0


def _cmd_compare(args) -> int:
    reset_stats()
    scenario_spec = ScenarioSpec(kind="paper", horizon=args.horizon, seed=args.seed)
    contenders = [
        ("grefar", {"v": args.v, "beta": args.beta}),
        ("always", {}),
        ("trough", {}),
        ("roundrobin", {}),
    ]
    specs = [
        RunSpec(scenario=scenario_spec, scheduler=name, scheduler_kwargs=kwargs)
        for name, kwargs in contenders
    ]
    results = run_many(specs, jobs=args.jobs, cache=_cache_for(args))
    rows = [_summary_row(result.summary) for result in results]
    print(
        format_table(
            _SUMMARY_HEADERS,
            rows,
            precision=4,
            title=f"Scheduler comparison over {args.horizon} slots (seed {args.seed})",
        )
    )
    _print_runner_stats()
    return 0


def _cmd_sweep_v(args) -> int:
    values = [float(x) for x in args.values.split(",") if x]
    if not values:
        print("error: --values must list at least one V", file=sys.stderr)
        return 2
    reset_stats()
    scenario = paper_scenario(horizon=args.horizon, seed=args.seed)
    points = sweep_v(
        scenario,
        values,
        beta=args.beta,
        jobs=args.jobs,
        use_cache=not args.no_cache,
    )
    rows = [
        (f"{p.v:g}", p.avg_energy_cost, p.avg_total_delay, p.max_queue_length)
        for p in points
    ]
    print(
        format_table(
            ["V", "Avg energy", "Avg delay", "Max queue"],
            rows,
            title=f"V sweep over {args.horizon} slots (beta={args.beta:g})",
        )
    )
    _print_runner_stats()
    return 0


def _cmd_resilience(args) -> int:
    """Run a fault drill and report recovery/overshoot per scheduler."""
    scenario = paper_scenario(horizon=args.horizon, seed=args.seed)
    cluster = scenario.cluster
    if args.start + args.duration > args.horizon:
        print("error: fault window must end within the horizon", file=sys.stderr)
        return 2
    try:
        event = FaultEvent(
            args.kind, dc=args.dc, start=args.start, duration=args.duration,
            severity=args.severity,
        )
        schedule = FaultSchedule((event,)).validate_for(cluster, args.horizon)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Reference queue bound (eq. 23) from the *unfaulted* trace's slack.
    queue_bound = None
    if args.v > 0:
        slack = check_slackness(cluster, scenario.arrivals, scenario.availability)
        if slack.feasible:
            constants = TheoremConstants.from_scenario(
                cluster, price_cap=float(scenario.prices.max()), beta=args.beta
            )
            queue_bound = constants.queue_bound(args.v, slack.max_delta)

    contenders = [GreFarScheduler(cluster, v=args.v, beta=args.beta)]
    if args.compare:
        contenders += [AlwaysScheduler(cluster), RandomRoutingScheduler(cluster)]
    rows = []
    for scheduler in contenders:
        injector = FaultInjector(cluster, schedule)
        observer = ResilienceObserver(cluster, schedule, queue_bound=queue_bound)
        result = Simulator(
            scenario, scheduler, injector=injector, observers=[observer]
        ).run()
        report = observer.report(scheduler.name)
        impact = report.impacts[0]
        summary = result.summary
        rows.append(
            (
                scheduler.name,
                "yes" if impact.recovered else "NO",
                impact.recovery_slots if impact.recovered else float("nan"),
                impact.overshoot,
                impact.peak_front_queue,
                impact.cost_inflation,
                summary.total_evicted_jobs,
                summary.avg_energy_cost,
            )
        )
    title = (
        f"{event.kind} at dc{event.dc + 1}, slots "
        f"[{event.start}, {event.end}) of {args.horizon} (seed {args.seed})"
    )
    if queue_bound is not None:
        title += f" — queue bound V*C3/delta = {queue_bound:.4g}"
    print(
        format_table(
            [
                "Scheduler",
                "Recovered",
                "Recovery slots",
                "Overshoot",
                "Peak front Q",
                "Cost inflation",
                "Evicted",
                "Avg energy",
            ],
            rows,
            precision=4,
            title=title,
        )
    )
    return 0


def _cmd_chaos(args) -> int:
    """Solver-fault drill: flaky primary backend, supervised recovery.

    Wraps the scheduler's primary backend in a deterministic
    :class:`~repro.resilient.FlakyBackend` and runs with per-slot action
    validation on.  Exit 0 means the run completed, every slot's action
    was feasible, and (when faults were actually injected) at least one
    fallback was recorded — the CI ``chaos`` job's acceptance bar.
    """
    from repro.scenarios import small_scenario

    if not 0.0 <= args.fail_rate <= 1.0:
        print(
            f"error: --fail-rate must lie in [0, 1], got {args.fail_rate}",
            file=sys.stderr,
        )
        return 2
    if args.scenario == "small":
        scenario = small_scenario(horizon=args.horizon, seed=args.seed)
    else:
        scenario = paper_scenario(horizon=args.horizon, seed=args.seed)
    scheduler = GreFarScheduler(scenario.cluster, v=args.v, beta=args.beta)
    try:
        report = run_chaos_drill(
            scenario,
            scheduler,
            failure_rate=args.fail_rate,
            seed=args.seed,
            mode=args.mode,
        )
    except Exception as exc:  # noqa: BLE001 - a crashed drill IS the failure
        print(f"chaos drill CRASHED: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    if args.fail_rate > 0 and report.injected_failures == 0:
        print("error: no faults were injected (horizon too short?)", file=sys.stderr)
        return 1
    if report.injected_failures > 0 and report.fallbacks == 0:
        print("error: faults injected but no fallback recorded", file=sys.stderr)
        return 1
    print(
        f"OK: {report.slots} slots, every action feasible, "
        f"{report.fallbacks} fallback solve(s)"
    )
    return 0


def _cmd_cache(args) -> int:
    """Inspect or clear the on-disk result cache."""
    cache = default_cache()
    if cache is None:
        print("cache disabled (REPRO_NO_CACHE is set)")
        return 0
    if args.action == "info":
        info = cache.info()
        session = info["session"]
        print(
            f"cache at {info['root']} (schema {info['schema']}): "
            f"{info['entries']} entries, {info['bytes']} bytes"
        )
        print(
            f"session: {session['hits']} hits, {session['misses']} misses, "
            f"{session['stores']} stores"
        )
        return 0
    removed = cache.clear()
    print(f"removed {removed} cache entries from {cache.root}")
    return 0


def _cmd_lint(args) -> int:
    """Run the project-specific static checker (GF001-GF013)."""
    from repro.tools.staticcheck.cli import run as staticcheck_run
    from repro.tools.staticcheck.reporters import render_rule_listing

    if args.list_rules:
        print(render_rule_listing())
        return 0
    return staticcheck_run(
        args.paths,
        fmt=args.format,
        select=args.select,
        baseline=args.baseline,
        write_baseline_path=args.write_baseline,
    )


def _cmd_profile(args) -> int:
    """Profile one run with telemetry on; optionally emit a baseline."""
    from repro.obs.baseline import write_baseline
    from repro.obs.profile import profile_run, render_hot_path_table
    from repro.scenarios import small_scenario
    from repro.schedulers import build_scheduler

    if args.scenario == "small":
        scenario = small_scenario(horizon=args.horizon, seed=args.seed)
    else:
        # "default" is the paper scenario — the configuration every
        # other subcommand runs.
        scenario = paper_scenario(horizon=args.horizon, seed=args.seed)
    scheduler = build_scheduler(
        args.scheduler,
        scenario.cluster,
        **_scheduler_kwargs_from_args(args.scheduler, args),
    )
    report = profile_run(
        scenario,
        scheduler,
        scenario_name=args.scenario,
        trace_path=args.trace,
    )
    print(render_hot_path_table(report))
    if args.trace:
        print(f"trace: {len(report.events)} slot events -> {args.trace}")
    if not args.no_baseline:
        path = write_baseline([report], path=args.output)
        print(f"baseline: {path}")
    return 0


def _cmd_serve(args) -> int:
    """Run the scheduler-as-a-service gateway (docs/SERVICE.md).

    Accepts streaming job submissions over REST/JSON with backpressure
    and per-account rate limits, ticks GreFar on a wall-clock slot
    schedule (or manual ``POST /v1/admin/tick`` when ``--slot-seconds``
    is omitted), checkpoints every completed slot batch, and with
    ``--resume`` restarts from the last ckpt-v2 checkpoint (fixed-size
    snapshot + per-slot history journal) without losing any acknowledged
    submission; a checkpoint it cannot use (an older schema, a corrupt
    file) is refused with an error rather than restarted at slot 0.
    """
    from repro.resilient import CheckpointError
    from repro.service import ServiceConfig, serve

    try:
        config = ServiceConfig(
            scenario_kind=args.scenario,
            scenario_seed=args.seed,
            capacity_slots=args.capacity_slots,
            scheduler=args.scheduler,
            scheduler_kwargs=_scheduler_kwargs_from_args(args.scheduler, args),
            cost_beta=args.cost_beta,
            intake_capacity=args.intake_capacity,
            rate=args.rate,
            burst=args.burst,
            slot_seconds=args.slot_seconds,
            checkpoint_every=args.checkpoint_every,
            data_dir=args.data_dir,
        )
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return serve(config, host=args.host, port=args.port, resume=args.resume)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_experiment(args) -> int:
    try:
        info = experiment_info(args.name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import importlib

    module = importlib.import_module(info.module)
    reset_stats()
    try:
        _install_checkpoint_policy(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        module.main(**info.main_kwargs(args))
    except SimulationKilled as exc:
        print(f"{exc}", file=sys.stderr)
        print("resume with the same command plus --resume", file=sys.stderr)
        return 3
    finally:
        set_checkpoint_policy(None)
    _print_runner_stats()
    return 0


def _add_runner_flags(command) -> None:
    """The shared fan-out/caching surface of runner-routed subcommands."""
    command.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent runs (results are "
        "bit-identical to --jobs 1)",
    )
    command.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache (.repro_cache/)",
    )


def _add_checkpoint_flags(command) -> None:
    """Crash-safety flags shared by ``repro run`` and ``repro experiment``."""
    command.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint the run every N slots: new slots appended to a "
        "history journal, fixed-size snapshot replaced "
        "(.repro_cache/checkpoints/; removed on completion)",
    )
    command.add_argument(
        "--resume",
        action="store_true",
        help="resume from an existing checkpoint (bit-identical to an "
        "uninterrupted run; falls back to a fresh run if none)",
    )
    command.add_argument(
        "--kill-at",
        type=int,
        default=None,
        metavar="SLOT",
        help="crash drill: checkpoint and kill the run after SLOT slots "
        "(exit code 3)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GreFar (ICDCS 2012) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list schedulers and experiments")

    run = sub.add_parser("run", help="run one scheduler on the paper scenario")
    run.add_argument("--scheduler", choices=scheduler_names(), default="grefar")
    run.add_argument("--v", type=float, default=7.5, help="cost-delay parameter V")
    run.add_argument("--beta", type=float, default=0.0, help="energy-fairness beta")
    run.add_argument("--threshold", type=float, default=0.4)
    run.add_argument("--horizon", type=int, default=500)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--json",
        action="store_true",
        help="print the summary as one JSON line (machine-comparable)",
    )
    _add_runner_flags(run)
    _add_checkpoint_flags(run)

    compare = sub.add_parser("compare", help="GreFar versus the baselines")
    compare.add_argument("--v", type=float, default=7.5)
    compare.add_argument("--beta", type=float, default=100.0)
    compare.add_argument("--horizon", type=int, default=500)
    compare.add_argument("--seed", type=int, default=0)
    _add_runner_flags(compare)

    sweep = sub.add_parser("sweep-v", help="sweep the cost-delay parameter")
    sweep.add_argument("--values", default="0.1,2.5,7.5,20")
    sweep.add_argument("--beta", type=float, default=0.0)
    sweep.add_argument("--horizon", type=int, default=500)
    sweep.add_argument("--seed", type=int, default=0)
    _add_runner_flags(sweep)

    resilience = sub.add_parser(
        "resilience", help="fault drill: inject a fault, report recovery"
    )
    resilience.add_argument("--kind", choices=FAULT_KINDS, default="outage")
    resilience.add_argument("--dc", type=int, default=1, help="0-based site index")
    resilience.add_argument("--start", type=int, default=150)
    resilience.add_argument("--duration", type=int, default=60)
    resilience.add_argument(
        "--severity", type=float, default=1.0, help="capacity fraction lost"
    )
    resilience.add_argument("--v", type=float, default=7.5)
    resilience.add_argument("--beta", type=float, default=0.0)
    resilience.add_argument("--horizon", type=int, default=400)
    resilience.add_argument("--seed", type=int, default=0)
    resilience.add_argument(
        "--compare",
        action="store_true",
        help="also run the Always and RandomRouting baselines",
    )

    profile = sub.add_parser(
        "profile", help="run with telemetry on; print the hot-path table"
    )
    profile.add_argument(
        "--scenario",
        choices=("default", "paper", "small"),
        default="default",
        help="which scenario to profile (default = the paper scenario)",
    )
    profile.add_argument("--scheduler", choices=scheduler_names(), default="grefar")
    profile.add_argument("--v", type=float, default=7.5)
    profile.add_argument("--beta", type=float, default=0.0)
    profile.add_argument("--threshold", type=float, default=0.4)
    profile.add_argument("--horizon", type=int, default=200)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--trace", default=None, help="also stream per-slot trace events (JSONL)"
    )
    profile.add_argument(
        "--output",
        default=None,
        help="baseline file path (default: BENCH_<date>.json in the cwd)",
    )
    profile.add_argument(
        "--no-baseline",
        action="store_true",
        help="print the table only; write no BENCH_*.json",
    )

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", help=f"one of {sorted(_EXPERIMENTS)}")
    exp.add_argument("--horizon", type=int, default=None)
    exp.add_argument("--seed", type=int, default=0)
    _add_runner_flags(exp)
    _add_checkpoint_flags(exp)

    chaos = sub.add_parser(
        "chaos", help="solver-fault drill: flaky backend, supervised recovery"
    )
    chaos.add_argument(
        "--fail-rate",
        type=float,
        default=0.15,
        help="fraction of slot solves the primary backend fails on",
    )
    chaos.add_argument(
        "--mode",
        choices=("raise", "nan", "error"),
        default="raise",
        help="how the flaky backend fails (typed raise, NaN result, "
        "untyped raise)",
    )
    chaos.add_argument(
        "--scenario", choices=("paper", "small"), default="paper"
    )
    chaos.add_argument("--v", type=float, default=7.5)
    chaos.add_argument("--beta", type=float, default=0.0)
    chaos.add_argument("--horizon", type=int, default=300)
    chaos.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="run the live job-submission gateway (docs/SERVICE.md)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral; printed)"
    )
    serve.add_argument(
        "--scenario",
        choices=("paper", "small"),
        default="small",
        help="environment trace (availability, prices); arrivals are live",
    )
    serve.add_argument("--scheduler", choices=scheduler_names(), default="grefar")
    serve.add_argument("--v", type=float, default=7.5)
    serve.add_argument("--beta", type=float, default=0.0)
    serve.add_argument("--threshold", type=float, default=0.4)
    serve.add_argument(
        "--cost-beta", type=float, default=0.0, help="measurement beta for g(t)"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--capacity-slots",
        type=int,
        default=500,
        metavar="T",
        help="pre-generated environment horizon; the service stops there",
    )
    serve.add_argument(
        "--slot-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock seconds per slot (omit for manual "
        "POST /v1/admin/tick ticking)",
    )
    serve.add_argument(
        "--intake-capacity",
        type=int,
        default=200,
        metavar="JOBS",
        help="intake buffer bound; beyond it submissions get 429 + Retry-After",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=100.0,
        help="per-account sustained rate limit (jobs/second)",
    )
    serve.add_argument(
        "--burst", type=float, default=200.0, help="per-account burst budget (jobs)"
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="ckpt-v2 checkpoint after every N completed slots (new "
        "slots appended to the history journal, fixed-size snapshot "
        "replaced)",
    )
    serve.add_argument(
        "--data-dir",
        default=".repro_cache/service",
        help="root for write-ahead logs and service checkpoints",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="restart from the last checkpoint + write-ahead log "
        "(no acknowledged submission is lost)",
    )

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=("info", "clear"))

    lint = sub.add_parser(
        "lint", help="project static checker (determinism, queue hygiene, ...)"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"], help="files/directories to scan"
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--select", default=None, help="comma-separated rule ids")
    lint.add_argument("--list-rules", action="store_true")
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="suppress findings recorded in FILE; fail only on new ones",
    )
    lint.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="snapshot current findings to FILE and exit 0",
    )

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "sweep-v": _cmd_sweep_v,
    "resilience": _cmd_resilience,
    "chaos": _cmd_chaos,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "experiment": _cmd_experiment,
    "cache": _cmd_cache,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
