"""repro — a full reproduction of *Provably-Efficient Job Scheduling for
Energy and Fairness in Geographically Distributed Data Centers*
(GreFar, ICDCS 2012).

The package provides:

* :class:`GreFarScheduler` — the paper's online drift-plus-penalty
  scheduler (Algorithm 1), with exact greedy and LP slot backends and
  a Frank-Wolfe QP backend for the fairness-aware (beta > 0) slots;
* the full system model of Section III (clusters, server classes, job
  types, exact queue dynamics with per-job delay ledgers);
* fairness functions (the paper's quadratic score plus alternates);
* baselines ("Always", the optimal T-step lookahead comparator of
  Theorem 1, and ablation baselines);
* workload substrates standing in for the proprietary inputs (Cosmos
  traces, FERC prices);
* a time-slotted simulator with the paper's running-average metrics;
* Theorem 1 constants/bounds and slackness checking;
* a fault-injection & resilience subsystem (:mod:`repro.faults`):
  outages, capacity crashes, stale price feeds and partitions with
  degraded-mode scheduling and recovery reporting;
* a declarative run engine (:mod:`repro.runner`): frozen
  :class:`RunSpec` descriptions executed serially or across a process
  pool (bit-identical), with a content-addressed on-disk result cache;
* a supervision layer (:mod:`repro.resilient`): supervised slot solves
  with fallback chains (no backend exception escapes a slot),
  NaN/Inf/negative input guards, and atomic checkpoint/resume that is
  bit-identical to an uninterrupted run;
* a serving layer (:mod:`repro.service`): a REST/JSON gateway
  (``repro serve``) accepting streaming job submissions with
  backpressure and per-account rate limits, slot-ticking GreFar live,
  answering placement/fairness/metrics queries, and restarting from
  ckpt-v2 checkpoints (fixed-size snapshot + per-slot history journal)
  without losing acknowledged submissions.

Quickstart::

    from repro import RunSpec, ScenarioSpec, run_many

    specs = [
        RunSpec(
            scenario=ScenarioSpec(kind="paper", horizon=500, seed=1),
            scheduler="grefar",
            scheduler_kwargs={"v": 7.5, "beta": 100.0},
        )
    ]
    (result,) = run_many(specs, jobs=2)
    print(result.summary.as_dict())
"""

import importlib
import sys
from typing import Any, Callable, List, Mapping, Tuple

__version__ = "1.0.0"


def _export_table(
    package: str, table: Mapping[str, str]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for *package*'s *table*.

    Every package ``__init__`` under ``repro`` is such a table, mapping
    each exported name to the module that defines it.  Importing the
    package loads none of those modules; the first access to a name
    imports its defining module once and stores the value on the
    package, so later accesses never reach ``__getattr__`` again.  A
    name that equals its module's last component (``"fig2_v_sweep":
    ".fig2_v_sweep"``) exports the submodule itself.  Code inside
    ``repro`` imports from defining modules, never through these
    tables, so type checkers see every type.
    """

    def __getattr__(name: str) -> Any:
        try:
            target = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(target, package)
        value = module if module.__name__.rpartition(".")[2] == name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return sorted(table), __getattr__, __dir__


__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "AccountQuotaAdmission": ".core.admission",
        "AdmissionPolicy": ".core.admission",
        "AdmitAll": ".core.admission",
        "BacklogCapAdmission": ".core.admission",
        "TheoremConstants": ".core.bounds",
        "parallelism_service_bounds": ".core.constraints",
        "GreFarScheduler": ".core.grefar",
        "CostModel": ".core.objective",
        "SlotCost": ".core.objective",
        "SlacknessReport": ".core.slackness",
        "check_slackness": ".core.slackness",
        "AlphaFairness": ".fairness.alpha_fair",
        "FairnessFunction": ".fairness.base",
        "JainFairness": ".fairness.jain",
        "MaxMinFairness": ".fairness.maxmin",
        "QuadraticFairness": ".fairness.quadratic",
        "FaultEvent": ".faults.events",
        "FaultSchedule": ".faults.events",
        "RandomFaultProcess": ".faults.events",
        "FaultInjector": ".faults.injector",
        "RequeuePolicy": ".faults.injector",
        "FaultImpact": ".faults.resilience",
        "ResilienceObserver": ".faults.resilience",
        "ResilienceReport": ".faults.resilience",
        "Action": ".model.action",
        "Cluster": ".model.cluster",
        "DataCenter": ".model.datacenter",
        "Account": ".model.job",
        "JobType": ".model.job",
        "LinearPricing": ".model.pricing",
        "PricingModel": ".model.pricing",
        "TieredPricing": ".model.pricing",
        "DelayStats": ".model.queues",
        "QueueNetwork": ".model.queues",
        "ServerClass": ".model.server",
        "ClusterState": ".model.state",
        "FlakyBackend": ".resilient.chaos",
        "run_chaos_drill": ".resilient.chaos",
        "Checkpointer": ".resilient.checkpoint",
        "SimulationKilled": ".resilient.checkpoint",
        "sanitize_state": ".resilient.guards",
        "SolverIncident": ".resilient.supervisor",
        "SupervisedSolver": ".resilient.supervisor",
        "solve_service": ".resilient.supervisor",
        "ResultCache": ".runner.cache",
        "default_cache": ".runner.cache",
        "CheckpointPolicy": ".runner.engine",
        "resume_from_checkpoint": ".runner.engine",
        "run_many": ".runner.engine",
        "run_spec": ".runner.engine",
        "set_checkpoint_policy": ".runner.engine",
        "RunResult": ".runner.result",
        "RunSpec": ".runner.spec",
        "ScenarioSpec": ".runner.spec",
        "PAPER_FAIR_SHARES": ".scenarios",
        "PAPER_PRICE_MEANS": ".scenarios",
        "paper_cluster": ".scenarios",
        "paper_scenario": ".scenarios",
        "small_cluster": ".scenarios",
        "small_scenario": ".scenarios",
        "AlwaysScheduler": ".schedulers.always",
        "Scheduler": ".schedulers.base",
        "LookaheadPolicy": ".schedulers.lookahead",
        "LookaheadSolution": ".schedulers.lookahead",
        "PriceThresholdScheduler": ".schedulers.price_threshold",
        "RandomRoutingScheduler": ".schedulers.random_dc",
        "RecedingHorizonScheduler": ".schedulers.receding_horizon",
        "RoundRobinScheduler": ".schedulers.round_robin",
        "TroughFillingScheduler": ".schedulers.trough_filling",
        "SchedulerService": ".service.app",
        "ServiceClient": ".service.client",
        "ServiceConfig": ".service.state",
        "MetricsCollector": ".simulation.metrics",
        "SimulationSummary": ".simulation.metrics",
        "SimulationResult": ".simulation.simulator",
        "Simulator": ".simulation.simulator",
        "run_comparison": ".simulation.simulator",
        "Scenario": ".simulation.trace",
        "AvailabilityModel": ".workloads.availability",
        "CosmosWorkload": ".workloads.cosmos",
        "PriceModel": ".workloads.prices",
    },
)
