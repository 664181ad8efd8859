"""Structured per-slot trace events and the sinks that collect them.

One :class:`SlotTraceEvent` is emitted per simulated slot while the
metrics registry is enabled: what the queues looked like after the
slot's dynamics, which solver backend produced the service decision,
how long the solve took and what it was worth.  Sinks are intentionally
dumb — an in-memory list for tests and the profiler, a JSONL file for
offline analysis — and events round-trip losslessly through both.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Any, Dict, List, Mapping, Optional, Union

__all__ = ["InMemorySink", "JsonlSink", "SlotTraceEvent", "read_trace_jsonl"]


@dataclass(frozen=True)
class SlotTraceEvent:
    """Everything recorded about one simulated slot.

    Parameters
    ----------
    slot:
        The slot index ``t``.
    scheduler:
        The deciding scheduler's display name.
    front_backlog / dc_backlog:
        Total central / summed data-center queue lengths *after* the
        slot's dynamics (jobs).
    solver:
        Service backend that produced the decision (``"greedy"``,
        ``"lp"``, ``"qp"``; empty for schedulers that do not solve the
        slot problem).
    iterations:
        Solver-reported iteration count (0 for closed-form backends).
    gap:
        Solver-certified bound on the objective's distance from the
        slot optimum (the ``qp`` Frank-Wolfe gap; 0 for exact backends).
    objective:
        The slot objective (14) evaluated at the applied service matrix.
    solve_seconds:
        Wall-clock time of the service solve.
    energy_cost:
        Electricity cost ``e(t)`` of the applied action.
    served_jobs:
        Jobs actually completed this slot (ledger-drained).
    """

    slot: int
    scheduler: str
    front_backlog: float
    dc_backlog: float
    solver: str = ""
    iterations: int = 0
    gap: float = 0.0
    objective: float = 0.0
    solve_seconds: float = 0.0
    energy_cost: float = 0.0
    served_jobs: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SlotTraceEvent":
        return cls(
            slot=int(payload["slot"]),
            scheduler=str(payload["scheduler"]),
            front_backlog=float(payload["front_backlog"]),
            dc_backlog=float(payload["dc_backlog"]),
            solver=str(payload.get("solver", "")),
            iterations=int(payload.get("iterations", 0)),
            gap=float(payload.get("gap", 0.0)),
            objective=float(payload.get("objective", 0.0)),
            solve_seconds=float(payload.get("solve_seconds", 0.0)),
            energy_cost=float(payload.get("energy_cost", 0.0)),
            served_jobs=float(payload.get("served_jobs", 0.0)),
        )


class InMemorySink:
    """Collect events in a list (tests, the profiler)."""

    def __init__(self) -> None:
        self.events: List[SlotTraceEvent] = []

    def write(self, event: SlotTraceEvent) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink:
    """Stream events to a JSON-lines file, one event per line.

    Usable as a context manager; :meth:`close` is idempotent and the
    file is opened eagerly so a bad path fails at construction, not
    mid-run.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = self.path.open("w", encoding="utf-8")
        self.count = 0

    def write(self, event: SlotTraceEvent) -> None:
        if self._handle is None:
            raise ValueError(f"JsonlSink({self.path}) is closed")
        self._handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self.count += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_trace_jsonl(path: Union[str, Path]) -> List[SlotTraceEvent]:
    """Load every event from a :class:`JsonlSink` file, in write order."""
    events: List[SlotTraceEvent] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(SlotTraceEvent.from_dict(json.loads(line)))
    return events
