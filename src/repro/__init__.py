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

from repro.core.bounds import TheoremConstants
from repro.core.constraints import parallelism_service_bounds
from repro.core.grefar import GreFarScheduler
from repro.core.objective import CostModel, SlotCost
from repro.core.slackness import SlacknessReport, check_slackness
from repro.fairness import (
    AlphaFairness,
    FairnessFunction,
    JainFairness,
    MaxMinFairness,
    QuadraticFairness,
)
from repro.model import (
    Account,
    Action,
    Cluster,
    ClusterState,
    DataCenter,
    DelayStats,
    JobType,
    LinearPricing,
    PricingModel,
    QueueNetwork,
    ServerClass,
    TieredPricing,
)
from repro.scenarios import (
    PAPER_FAIR_SHARES,
    PAPER_PRICE_MEANS,
    paper_cluster,
    paper_scenario,
    small_cluster,
    small_scenario,
)
from repro.core.admission import (
    AccountQuotaAdmission,
    AdmissionPolicy,
    AdmitAll,
    BacklogCapAdmission,
)
from repro.faults import (
    FaultEvent,
    FaultImpact,
    FaultInjector,
    FaultSchedule,
    RandomFaultProcess,
    RequeuePolicy,
    ResilienceObserver,
    ResilienceReport,
)
from repro.resilient import (
    Checkpointer,
    FlakyBackend,
    SimulationKilled,
    SolverIncident,
    SupervisedSolver,
    run_chaos_drill,
    sanitize_state,
    solve_service,
)
from repro.runner import (
    CheckpointPolicy,
    ResultCache,
    RunResult,
    RunSpec,
    ScenarioSpec,
    default_cache,
    resume_from_checkpoint,
    run_many,
    run_spec,
    set_checkpoint_policy,
)
from repro.service import (
    SchedulerService,
    ServiceClient,
    ServiceConfig,
)
from repro.schedulers import (
    AlwaysScheduler,
    LookaheadPolicy,
    LookaheadSolution,
    PriceThresholdScheduler,
    RandomRoutingScheduler,
    RecedingHorizonScheduler,
    RoundRobinScheduler,
    Scheduler,
    TroughFillingScheduler,
)
from repro.simulation import (
    MetricsCollector,
    Scenario,
    SimulationResult,
    SimulationSummary,
    Simulator,
    run_comparison,
)
from repro.workloads import (
    AvailabilityModel,
    CosmosWorkload,
    PriceModel,
)

__version__ = "1.0.0"

__all__ = [
    "Account",
    "AccountQuotaAdmission",
    "Action",
    "AdmissionPolicy",
    "AdmitAll",
    "BacklogCapAdmission",
    "AlphaFairness",
    "AlwaysScheduler",
    "AvailabilityModel",
    "CheckpointPolicy",
    "Checkpointer",
    "Cluster",
    "ClusterState",
    "CosmosWorkload",
    "CostModel",
    "DataCenter",
    "DelayStats",
    "FairnessFunction",
    "FaultEvent",
    "FaultImpact",
    "FaultInjector",
    "FaultSchedule",
    "FlakyBackend",
    "GreFarScheduler",
    "JainFairness",
    "JobType",
    "LinearPricing",
    "LookaheadPolicy",
    "LookaheadSolution",
    "MaxMinFairness",
    "MetricsCollector",
    "PAPER_FAIR_SHARES",
    "PAPER_PRICE_MEANS",
    "PriceModel",
    "PriceThresholdScheduler",
    "PricingModel",
    "QuadraticFairness",
    "QueueNetwork",
    "RandomFaultProcess",
    "RandomRoutingScheduler",
    "RecedingHorizonScheduler",
    "RequeuePolicy",
    "ResilienceObserver",
    "ResilienceReport",
    "ResultCache",
    "RoundRobinScheduler",
    "RunResult",
    "RunSpec",
    "Scenario",
    "ScenarioSpec",
    "Scheduler",
    "SchedulerService",
    "ServiceClient",
    "ServiceConfig",
    "ServerClass",
    "SimulationKilled",
    "SimulationResult",
    "SimulationSummary",
    "Simulator",
    "SlacknessReport",
    "SlotCost",
    "SolverIncident",
    "SupervisedSolver",
    "TheoremConstants",
    "TieredPricing",
    "TroughFillingScheduler",
    "check_slackness",
    "default_cache",
    "paper_cluster",
    "parallelism_service_bounds",
    "paper_scenario",
    "resume_from_checkpoint",
    "run_chaos_drill",
    "run_comparison",
    "run_many",
    "run_spec",
    "sanitize_state",
    "set_checkpoint_policy",
    "small_cluster",
    "small_scenario",
    "solve_service",
]
