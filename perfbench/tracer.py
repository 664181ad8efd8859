"""Outside-in span tracer for the benchmark's per-layer metrics.

Nothing here is imported by the program.  The tracer replaces named
methods, module functions and ``BACKENDS`` entries with thin wrappers
that record one span per call -- name, start, end, parent span and
thread -- and puts every original back when the ``with`` block exits.
Spans nest per thread (each thread keeps its own stack), stay in memory
while the workload runs, and are summarised (or written out) after it.

A layer's *self* time is its span's duration minus the time its child
spans cover.  Children of a span are the spans opened on the same thread
while it was open, so they never overlap and the covered time is the
plain sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

__all__ = ["LAYERS", "Layer", "Tracer", "layer_metrics", "patched", "self_times"]


@dataclass(frozen=True)
class Layer:
    """One wrapped callable.

    ``name`` is ``<module>.<function>``, the prefix of its metric names.
    ``module`` and ``path`` say where the callable is *looked up* at run
    time: ``("repro.service.app", "parse_submission")`` patches the name
    the gateway calls, not the defining module.  A path's last element is
    an attribute of a class or module, or a key of a dict (``BACKENDS``).
    ``per`` is the unit its counts are normalised by: ``"slot"`` or
    ``"submission"``.  ``tally`` (if set) maps ``(args, result)`` to a
    number summed over calls -- a changed/degraded flag or a byte count.
    """

    name: str
    module: str
    path: tuple
    per: str = "slot"
    tally: Optional[Callable] = None


def _clip_changed(args, result) -> float:
    """``clip_feasible(h)``: did the clip alter the backend's ``h``?"""
    return float(not np.array_equal(np.asarray(args[1], dtype=np.float64), result))


def _action_changed(args, result) -> float:
    """``clip_to_content(action)``: did the clip alter the decided action?"""
    before = args[1]
    return float(
        not (
            np.array_equal(before.route, result.route)
            and np.array_equal(before.serve, result.serve)
            and np.array_equal(before.busy, result.busy)
        )
    )


def _degraded(args, result) -> float:
    """``SupervisedSolver.solve``: did a fallback backend serve the slot?"""
    return float(result.degraded)


def _file_bytes(args, result) -> float:
    """``Checkpointer.save`` returns the path it wrote: its size."""
    return float(Path(result).stat().st_size)


#: Every wrapped layer.  The metric names, and which end-to-end metric
#: each should move on which workload, are listed in perfbench/README.md.
LAYERS = (
    Layer("simulation.trace.Scenario.state_at", "repro.simulation.trace", ("Scenario", "state_at")),
    Layer("runner.ScenarioSpec.materialize", "repro.runner.spec", ("ScenarioSpec", "materialize")),
    Layer("runner.run_many", "repro.experiments.fig2_v_sweep", ("run_many",)),
    Layer("simulation.simulator.Simulator.run", "repro.simulation.simulator", ("Simulator", "run")),
    Layer("core.grefar.GreFarScheduler.decide", "repro.core.grefar", ("GreFarScheduler", "decide")),
    Layer("core.grefar.GreFarScheduler.prepare_state", "repro.core.grefar", ("GreFarScheduler", "prepare_state")),
    Layer("optimize.SlotServiceProblem.__init__", "repro.optimize.slot_problem", ("SlotServiceProblem", "__init__")),
    Layer("optimize.BACKENDS.greedy", "repro.resilient.supervisor", ("BACKENDS", "greedy")),
    Layer("optimize.BACKENDS.qp", "repro.resilient.supervisor", ("BACKENDS", "qp")),
    Layer("optimize.SlotServiceProblem.busy_for", "repro.optimize.slot_problem", ("SlotServiceProblem", "busy_for")),
    Layer("resilient.supervisor.SupervisedSolver.solve", "repro.resilient.supervisor", ("SupervisedSolver", "solve"), tally=_degraded),
    Layer("resilient.supervisor.clip_feasible", "repro.optimize.slot_problem", ("SlotServiceProblem", "clip_feasible"), tally=_clip_changed),
    Layer("resilient.supervisor.is_feasible", "repro.optimize.slot_problem", ("SlotServiceProblem", "is_feasible")),
    Layer("model.queues.QueueNetwork.step", "repro.model.queues", ("QueueNetwork", "step")),
    Layer("model.queues.QueueNetwork.clip_to_content", "repro.model.queues", ("QueueNetwork", "clip_to_content"), tally=_action_changed),
    Layer("core.objective.CostModel.evaluate", "repro.core.objective", ("CostModel", "evaluate")),
    Layer("simulation.metrics.MetricsCollector.record", "repro.simulation.metrics", ("MetricsCollector", "record")),
    Layer("service.wire.parse_submission", "repro.service.app", ("parse_submission",), per="submission"),
    Layer("service.ratelimit.AccountRateLimiter.admit", "repro.service.ratelimit", ("AccountRateLimiter", "admit"), per="submission"),
    Layer("service.ingest.Ingestor.submit", "repro.service.ingest", ("Ingestor", "submit"), per="submission"),
    Layer("service.ingest.SubmissionLog.append", "repro.service.ingest", ("SubmissionLog", "append"), per="submission"),
    Layer("service.ingest.IntakeBuffer.offer", "repro.service.ingest", ("IntakeBuffer", "offer"), per="submission"),
    Layer("service.ingest.IntakeBuffer.drain_slot", "repro.service.ingest", ("IntakeBuffer", "drain_slot")),
    Layer("service.app.SchedulerService.submit", "repro.service.app", ("SchedulerService", "submit"), per="submission"),
    Layer("service.ticker.tick_once", "repro.service.ticker", ("tick_once",)),
    Layer("service.ticker.SlotTicker.save_checkpoint", "repro.service.ticker", ("SlotTicker", "save_checkpoint")),
    Layer("resilient.checkpoint.Checkpointer.save", "repro.resilient.checkpoint", ("Checkpointer", "save"), tally=_file_bytes),
)


class patched:
    """Context manager: replace callables, put the originals back on exit.

    ``replace(module, path, make)`` swaps the callable at *path* for
    ``make(original)``.  Class attributes are read from the class's own
    ``__dict__`` so an inherited method is shadowed (and the shadow
    deleted on exit) rather than its base class being edited.
    """

    def __init__(self) -> None:
        self._undo: list = []

    def replace(self, module: str, path: tuple, make: Callable) -> None:
        owner = importlib.import_module(module)
        for part in path[:-1]:
            owner = getattr(owner, part)
        key = path[-1]
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = make(original)
            self._undo.append(functools.partial(owner.__setitem__, key, original))
        elif key in vars(owner):
            original = vars(owner)[key]
            setattr(owner, key, make(original))
            self._undo.append(functools.partial(setattr, owner, key, original))
        else:
            setattr(owner, key, make(getattr(owner, key)))
            self._undo.append(functools.partial(delattr, owner, key))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "patched":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer(patched):
    """Record a span around every call of the given :data:`LAYERS`.

    Use as ``with Tracer(LAYERS) as tracer: ...``; spans are tuples
    ``(span_id, name, start, end, parent_id, thread_id)`` with parent 0
    for a span opened on an empty stack.  :meth:`span` also opens spans
    the benchmark itself owns (one workload repetition).
    """

    def __init__(self, layers=LAYERS) -> None:
        super().__init__()
        self.spans: list = []
        #: name -> [sum of tally values, calls tallied]
        self.tallies: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tally_lock = threading.Lock()
        for layer in layers:
            self.replace(layer.module, layer.path, functools.partial(self._wrap, layer))

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        record = self.span
        tally = layer.tally
        name = layer.name

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with record(name):
                result = original(*args, **kwargs)
            if tally is not None:
                value = tally(args, result)
                with self._tally_lock:
                    entry = self.tallies.setdefault(name, [0.0, 0])
                    entry[0] += value
                    entry[1] += 1
            return result

        return wrapper

    def span(self, name: str) -> "_SpanContext":
        """A context manager recording one span named *name*."""
        return _SpanContext(self, name)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self) -> dict:
        """JSON-encodable spans and tallies (written out after a run)."""
        return {"spans": [list(span) for span in self.spans], "tallies": self.tallies}


class _SpanContext:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        stack = tracer._stack()
        self.sid = next(tracer._ids)
        self.parent = stack[-1] if stack else 0
        stack.append(self.sid)
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        end = time.perf_counter()
        tracer._stack().pop()
        tracer.spans.append(
            (self.sid, self.name, self.start, end, self.parent, threading.get_ident())
        )


def self_times(spans) -> dict:
    """``{name: [calls, inclusive_s, self_s]}`` from raw span tuples."""
    covered: dict = {}
    for _sid, _name, start, end, parent, _thread in spans:
        if parent:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    totals: dict = {}
    for sid, name, start, end, _parent, _thread in spans:
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += (end - start) - covered.get(sid, 0.0)
    return totals


def layer_metrics(totals: dict, tallies: dict, slots: int, submissions: int, wall_s: float) -> dict:
    """Per-layer metrics: calls, self ms and share of wall for every layer.

    Counts are normalised per slot, or per submission for the ingest
    layers (``Layer.per``); a layer the workload never calls reads 0.
    """
    metrics: dict = {}
    for layer in LAYERS:
        base = submissions if layer.per == "submission" else slots
        calls, _inclusive, self_s = totals.get(layer.name, (0, 0.0, 0.0))
        unit = "slot" if layer.per == "slot" else "sub"
        metrics[f"{layer.name}.calls"] = (calls / base if base else 0.0, f"calls/{unit}")
        metrics[f"{layer.name}.self_ms"] = (1e3 * self_s / base if base else 0.0, f"ms/{unit}")
        metrics[f"{layer.name}.share"] = (self_s / wall_s if wall_s else 0.0, "ratio")
    for name, metric in (
        ("resilient.supervisor.SupervisedSolver.solve", "fallback_frac"),
        ("resilient.supervisor.clip_feasible", "changed_frac"),
        ("model.queues.QueueNetwork.clip_to_content", "changed_frac"),
    ):
        total, count = tallies.get(name, (0.0, 0))
        metrics[f"{name}.{metric}"] = (total / count if count else 0.0, "ratio")
    total, count = tallies.get("resilient.checkpoint.Checkpointer.save", (0.0, 0))
    metrics["resilient.checkpoint.Checkpointer.save.bytes"] = (
        total / count if count else 0.0,
        "bytes/save",
    )
    # Gateway-only metrics; the gateway workload overwrites them.
    metrics["service.app.http.self_ms"] = (0.0, "ms/sub")
    metrics["service.app.http.share"] = (0.0, "ratio")
    metrics["service.ingest.SubmissionLog.append.bytes"] = (0.0, "bytes/sub")
    return metrics
