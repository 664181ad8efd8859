"""The slot ticker: advance GreFar one slot at a time, decoupled from HTTP.

:func:`tick_once` runs one slot through ``Simulator.step`` — the same
slot body the offline ``Simulator.run`` loop uses — with the arrival
vector taken from the live intake buffer instead of a pre-generated
trace.  That shared body is what makes the service's per-slot metrics
bit-identical to an offline replay of its accepted-arrival log.

:class:`SlotTicker` wraps that step with scheduling (manual ticks
for tests and CI, a wall-clock thread for real serving), the shared
service lock, and the ckpt-v2 checkpoint cadence.  Blocking waits live
only in the pacing loop, never in the tick path (staticcheck GF009
enforces this).
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from repro.resilient.checkpoint import Checkpointer
from repro.service.ingest import Ingestor
from repro.service.ratelimit import AccountRateLimiter
from repro.service.state import ServiceState
from repro.tools import tsan

__all__ = ["CapacityExhausted", "SlotTicker", "tick_once"]


class CapacityExhausted(RuntimeError):
    """The pre-generated environment trace has no more slots to tick."""


def tick_once(state: ServiceState, arrivals: np.ndarray) -> dict:
    """Advance the service exactly one slot; returns the slot record."""
    sim = state.sim
    t = sim.next_slot
    if t >= state.config.capacity_slots:
        raise CapacityExhausted(
            f"environment trace exhausted after {t} slots; "
            "restart with a larger --capacity-slots"
        )
    arrivals = np.asarray(arrivals, dtype=np.float64)
    action = sim.step(arrivals)
    state.account_work += action.account_work(state.cluster)
    state.arrivals_log.append(arrivals.copy())
    return state.slot_record(t)


class SlotTicker:
    """Drive :func:`tick_once` on a schedule, with checkpoints.

    Parameters
    ----------
    state:
        The service state store.
    ingestor:
        Ingestion pipeline; each tick drains its buffer into the slot's
        arrival vector (bounded per type by ``A_j^max``).
    limiter:
        The rate limiter, snapshotted into every checkpoint.
    checkpointer:
        ckpt-v2 schedule from ``ServiceConfig.checkpointer()``; a save
        lands after every ``every`` completed slots.
    lock:
        The service-wide lock shared with the query endpoints, so
        queries never observe a half-applied slot.
    """

    def __init__(
        self,
        state: ServiceState,
        ingestor: Ingestor,
        limiter: AccountRateLimiter,
        checkpointer: Checkpointer,
        lock: Optional[threading.RLock] = None,
    ) -> None:
        self.state = state
        self.ingestor = ingestor
        self.limiter = limiter
        self.checkpointer = checkpointer
        # The gateway injects its own lock, so "SlotTicker.lock" and
        # "SchedulerService.lock" are one runtime object; the alias
        # comment merges them into one node of the static lock graph.
        self.lock = (  # lock-alias: SchedulerService.lock
            lock
            if lock is not None
            else tsan.named_lock("SchedulerService.lock", reentrant=True)
        )
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.ticks_completed = 0  # guarded-by: self.lock
        tsan.watch(self)

    # ------------------------------------------------------------------
    def tick(self, slots: int = 1) -> List[dict]:
        """Advance *slots* slots synchronously; returns their records."""
        records: List[dict] = []
        for _ in range(slots):
            with self.lock:
                arrivals, _consumed = self.ingestor.buffer.drain_slot(
                    self.state.max_arrivals
                )
                record = tick_once(self.state, arrivals)
                self.ticks_completed += 1
                if self.checkpointer.due(self.state.sim.next_slot):
                    self.save_checkpoint()
            records.append(record)
        return records

    def save_checkpoint(self) -> None:
        """Write one consistent ckpt-v2 checkpoint (state + ingestion).

        The slots completed since the last save are appended to the
        history journal; the snapshot itself has a fixed size.
        """
        with self.lock:
            pending, next_seq, counters = self.ingestor.freeze()
            payload = self.state.checkpoint_payload(
                {
                    "pending": pending,
                    "next_seq": int(next_seq),
                    "ingest_counters": counters,
                    "ratelimit": self.limiter.state(),
                }
            )
            # A consistent checkpoint needs model + ingestion frozen
            # under the service lock while the journal append and the
            # atomic snapshot write land.
            self.checkpointer.save(payload)  # staticcheck: ignore[GF012] -- checkpoint atomicity requires the write under the service lock; cadence-bounded

    # ------------------------------------------------------------------
    # Wall-clock pacing (kept out of the tick path; GF009)
    # ------------------------------------------------------------------
    def start(self, slot_seconds: float) -> None:
        """Start the wall-clock pacing thread (one tick per period)."""
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError("ticker already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._pace_loop,
            args=(float(slot_seconds),),
            name="repro-slot-ticker",
            daemon=True,
        )
        self._thread.start()

    def _pace_loop(self, slot_seconds: float) -> None:
        # Fixed-period pacing: wait one period, then take one slot.
        # Event.wait doubles as the shutdown signal, so stop() never
        # has to interrupt a sleep.
        while not self._stop.wait(slot_seconds):
            try:
                self.tick(1)
            except CapacityExhausted:
                break

    def stop(self) -> None:
        """Stop the pacing thread (if any) and wait for it to exit.

        Must never be called with the service lock held: the pacing
        thread may be inside ``tick()`` waiting for that very lock, and
        joining it here would deadlock.  ``shutdown()`` therefore stops
        the ticker *before* taking the lock for the final checkpoint —
        GF012 flags the join if it ever moves inside a critical section.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
