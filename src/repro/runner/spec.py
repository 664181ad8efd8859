"""Declarative run descriptions: :class:`ScenarioSpec` and :class:`RunSpec`.

A :class:`RunSpec` is a frozen, hashable, picklable value describing
exactly one simulation run — which scenario to materialize, which
scheduler to build (by registry name + kwargs), the measurement beta,
the run horizon, an optional fault schedule and which result series to
collect.  Because the description is pure data, it can be

* shipped to a worker process and executed there bit-identically to an
  in-process run (:func:`repro.runner.run_many`), and
* hashed into a stable content address for the on-disk result cache
  (:mod:`repro.runner.cache`).

Anything that cannot be described declaratively (a pre-built
:class:`~repro.simulation.trace.Scenario`, a live scheduler instance)
is handled by the engine as an *override* alongside the spec.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence, Tuple

from repro._validation import require_integer, require_non_negative
from repro.faults.events import FaultSchedule
from repro.runner.collect import validate_collect

__all__ = ["SCENARIO_KINDS", "RunSpec", "ScenarioSpec", "canonical_json", "spec_digest"]

#: Registered scenario factories a :class:`ScenarioSpec` may name.
#: Maps kind -> (module, attribute); imported lazily so worker processes
#: resolve them without dragging the whole package in at spec time.
SCENARIO_KINDS: dict = {
    "paper": ("repro.scenarios", "paper_scenario"),
    "small": ("repro.scenarios", "small_scenario"),
}


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding used for hashing spec descriptions."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spec_digest(payload: Any) -> str:
    """SHA-256 content address of a JSON-encodable description."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _freeze_kwargs(kwargs: Any, name: str) -> Tuple[Tuple[str, Any], ...]:
    """Normalize a kwargs mapping to a sorted, hashable tuple of pairs."""
    if kwargs is None:
        return ()
    if isinstance(kwargs, Mapping):
        items = kwargs.items()
    else:
        items = tuple(kwargs)
    frozen = []
    for key, value in sorted(items):
        if not isinstance(key, str):
            raise TypeError(f"{name} keys must be strings, got {key!r}")
        if isinstance(value, (list, dict, set)):
            raise TypeError(
                f"{name}[{key!r}] must be a hashable primitive "
                f"(got {type(value).__name__}); specs must stay hashable"
            )
        frozen.append((key, value))
    return tuple(frozen)


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative reference to a generated scenario.

    Parameters
    ----------
    kind:
        One of :data:`SCENARIO_KINDS` (``"paper"`` or ``"small"``).
    horizon:
        Number of slots to generate.
    seed:
        Scenario seed; numpy seeding is per-spec, so two workers
        materializing the same spec produce bit-identical traces.
    params:
        Extra factory kwargs (e.g. ``mean_total_work``) as a mapping or
        a tuple of pairs; normalized to a sorted tuple.
    """

    kind: str = "paper"
    horizon: int = 2000
    seed: int = 0
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; "
                f"choose from {sorted(SCENARIO_KINDS)}"
            )
        require_integer(self.horizon, "horizon", minimum=1)
        require_integer(self.seed, "seed", minimum=0)
        object.__setattr__(self, "params", _freeze_kwargs(self.params, "params"))

    def materialize(self):
        """Build the actual :class:`~repro.simulation.trace.Scenario`."""
        import importlib

        module, attribute = SCENARIO_KINDS[self.kind]
        factory = getattr(importlib.import_module(module), attribute)
        return factory(horizon=self.horizon, seed=self.seed, **dict(self.params))

    def describe(self) -> dict:
        """JSON-encodable identity used in the cache key."""
        return {
            "kind": self.kind,
            "horizon": self.horizon,
            "seed": self.seed,
            "params": [list(pair) for pair in self.params],
        }


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one ``Simulator(...).run()`` call.

    Parameters
    ----------
    scenario:
        A :class:`ScenarioSpec`, or ``None`` when the engine will be
        handed a pre-built scenario override for this spec.
    scheduler:
        Registry name (see :func:`repro.schedulers.build_scheduler`),
        or ``None`` for a *scenario-only* spec that materializes the
        trace and evaluates scenario collectors without simulating.
    scheduler_kwargs:
        Constructor kwargs for the scheduler (mapping or tuple of
        pairs; normalized to a sorted tuple).
    cost_beta:
        Measurement beta for the cost model ``g(t)`` — experiments
        typically measure energy and fairness separately, so this
        defaults to 0 exactly like ``Simulator``'s default.
    horizon:
        Run horizon (``None`` = the scenario's full horizon).
    collect:
        Names of extra result series to extract (see
        :mod:`repro.runner.collect`); the summary is always returned.
    faults:
        Optional :class:`~repro.faults.events.FaultSchedule` injected
        through a :class:`~repro.faults.injector.FaultInjector`.
    queue_bound:
        Optional Theorem 1a bound; when set, a
        :func:`~repro._contracts.queue_bound_observer` is attached (it
        asserts only under ``REPRO_CONTRACTS=1``).
    """

    scenario: ScenarioSpec | None = field(default_factory=ScenarioSpec)
    scheduler: str | None = "grefar"
    scheduler_kwargs: Tuple[Tuple[str, Any], ...] = ()
    cost_beta: float = 0.0
    horizon: int | None = None
    collect: Tuple[str, ...] = ()
    faults: FaultSchedule | None = None
    queue_bound: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "scheduler_kwargs",
            _freeze_kwargs(self.scheduler_kwargs, "scheduler_kwargs"),
        )
        if self.scheduler is not None:
            # Fail at spec construction, not inside a worker process.
            from repro.schedulers import scheduler_entry

            entry = scheduler_entry(self.scheduler)
            unknown = sorted(
                {key for key, _ in self.scheduler_kwargs} - set(entry.params)
            )
            if unknown:
                raise ValueError(
                    f"scheduler {self.scheduler!r} does not accept {unknown}; "
                    f"accepted parameters: {sorted(entry.params)}"
                )
        require_non_negative(self.cost_beta, "cost_beta")
        if self.horizon is not None:
            require_integer(self.horizon, "horizon", minimum=1)
        if self.queue_bound is not None:
            require_non_negative(self.queue_bound, "queue_bound")
        collect = tuple(self.collect)
        validate_collect(collect, simulated=self.scheduler is not None)
        object.__setattr__(self, "collect", collect)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-encodable identity of this spec (cache key material)."""
        return {
            "scenario": None if self.scenario is None else self.scenario.describe(),
            "scheduler": self.scheduler,
            "scheduler_kwargs": [list(pair) for pair in self.scheduler_kwargs],
            "cost_beta": self.cost_beta,
            "horizon": self.horizon,
            "collect": list(self.collect),
            "faults": _describe_faults(self.faults),
            "queue_bound": self.queue_bound,
        }

    @property
    def spec_hash(self) -> str:
        """Content address of the declarative description alone."""
        return spec_digest(self.describe())

    def replace(self, **changes) -> "RunSpec":
        """A copy with *changes* applied (convenience for sweeps)."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)


def _describe_faults(schedule: FaultSchedule | None) -> list | None:
    if schedule is None:
        return None
    return [
        {
            "kind": event.kind,
            "dc": event.dc,
            "start": event.start,
            "duration": event.duration,
            "severity": event.severity,
        }
        for event in schedule
    ]
