"""Crash-safe checkpointing: a fixed-size snapshot plus a history journal.

A killed process must not lose a long horizon.  The simulator
periodically saves its mid-run state under
``.repro_cache/checkpoints/<key>``.  Resuming restores every object and
continues from the next slot, producing bit-identical metrics and trace
to an uninterrupted run: the restored state is exactly the state the
uninterrupted run had at that slot, and everything downstream is
deterministic.

File format (``ckpt-v2``), two files side by side:

* ``<key>.ckpt`` — the **snapshot**, one pickle of ``{"schema":
  CHECKPOINT_SCHEMA, "key": ..., "payload": {...}, "history_len": n,
  "journal_bytes": b}``.  The payload is the fixed-size state: queue
  network, scheduler (including any RNG state, e.g. the random-routing
  baseline's generator), admission policy, fault injector, loop
  counters.  Writes go to a same-directory temp file followed by
  ``os.replace``, so a crash mid-write leaves the previous snapshot
  intact rather than a torn file.
* ``<key>.hist`` — the append-only **history journal**: the per-slot
  rows (one per completed slot), as a sequence of pickle frames.  A
  payload's ``"history"`` entry (a :class:`ColumnHistory`) is never
  pickled into the snapshot; each save appends only the rows completed
  since the previous save, so a save costs the same at slot 100 as at
  slot 10,000.

A save appends to the journal first and replaces the snapshot second.
The snapshot records how many rows (``history_len``) and bytes
(``journal_bytes``) of the journal belong to it, so a crash between the
two steps leaves a journal tail the snapshot does not claim: loading
ignores it and the next append overwrites it.  A journal shorter than
the snapshot claims is corrupt.

A schema-tag or key mismatch, a torn snapshot or a short journal on
load is treated as "no checkpoint" (:meth:`Checkpointer.load` returns
``None``) — stale snapshots from an older code version are never
resumed into newer code.  :meth:`Checkpointer.load_strict` raises
:class:`CheckpointError` naming the reason instead, for callers (the
live service) for which a fresh start would rewrite history that
clients have already read.

:class:`SimulationKilled` powers the crash drill: a checkpointer with
``kill_at`` set saves its snapshot and then raises mid-run, letting
tests and the CI ``chaos`` job kill a run at an exact slot and prove
the resumed run is bit-identical.
"""

from __future__ import annotations

import io
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro._validation import require_integer
from repro.obs.registry import stats_registry

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "Checkpointer",
    "ColumnHistory",
    "DEFAULT_CHECKPOINT_DIR",
    "SimulationKilled",
    "checkpoint_path",
    "journal_path",
    "load_checkpoint",
    "save_checkpoint",
]

#: Bump whenever the snapshot payload layout changes; mismatching
#: checkpoints are ignored, never migrated.
CHECKPOINT_SCHEMA = "ckpt-v2"

#: Checkpoints live next to the result cache.
DEFAULT_CHECKPOINT_DIR = Path(".repro_cache") / "checkpoints"

# What a torn or foreign pickle can raise while loading.
_UNPICKLE_ERRORS = (OSError, pickle.UnpicklingError, EOFError, AttributeError, ValueError)


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or read."""


class SimulationKilled(RuntimeError):
    """Raised by the crash drill after the ``kill_at`` slot completed.

    Carries where the run died and where its checkpoint (if any) lives
    so the CLI can print an actionable resume hint.
    """

    def __init__(self, slot: int, path: Optional[Path] = None) -> None:
        self.slot = slot
        self.path = path
        hint = f"; resume from {path}" if path is not None else ""
        super().__init__(f"simulation killed after slot {slot} (crash drill){hint}")


class ColumnHistory:
    """A per-slot history held as parallel lists, read as rows.

    ``len(history)`` is the number of slots and ``history[start:]`` the
    list of row tuples from slot *start* on, one entry per column.  Put
    one under a payload's ``"history"`` key: :meth:`Checkpointer.save`
    journals only the rows it has not written yet, and loading hands
    back the rows as a list.
    """

    def __init__(self, columns: Sequence[list]) -> None:
        self.columns = list(columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index: slice) -> List[tuple]:
        return list(zip(*(column[index] for column in self.columns)))


def checkpoint_path(
    key: str, directory: Union[str, Path, None] = None
) -> Path:
    """Where the checkpoint snapshot for cache-key *key* lives."""
    if not key:
        raise ValueError("checkpointing requires a non-empty run key")
    base = Path(directory) if directory is not None else DEFAULT_CHECKPOINT_DIR
    return base / f"{key}.ckpt"


def journal_path(path: Union[str, Path]) -> Path:
    """The history journal beside the snapshot at *path*."""
    return Path(path).with_suffix(".hist")


def save_checkpoint(
    path: Union[str, Path],
    key: str,
    payload: Dict[str, Any],
    history_len: Optional[int] = None,
    journal_bytes: int = 0,
) -> Path:
    """Atomically write the snapshot *payload* under the current schema tag.

    *history_len* and *journal_bytes* say how much of the journal beside
    *path* belongs to this snapshot (``None``: the payload has no
    history).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "schema": CHECKPOINT_SCHEMA,
        "key": key,
        "payload": payload,
        "history_len": history_len,
        "journal_bytes": int(journal_bytes),
    }
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            pickle.dump(record, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except (OSError, pickle.PicklingError) as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise CheckpointError(f"could not write checkpoint {path}: {exc}") from exc
    stats_registry().counter_add("resilient.checkpoint.saves")
    return path


def _append_rows(path: Path, rows: list, offset: int) -> int:
    """Write *rows* as one pickle frame at byte *offset*; the new length.

    Whatever lay beyond *offset* (a tail no snapshot claims) is cut off
    first.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "r+b" if offset else "wb") as handle:
            if handle.seek(0, os.SEEK_END) < offset:
                raise CheckpointError(
                    f"history journal {path} is shorter than its snapshot claims"
                )
            handle.seek(offset)
            handle.truncate()
            pickle.dump(rows, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            return handle.tell()
    except (OSError, pickle.PicklingError) as exc:
        raise CheckpointError(f"could not append to {path}: {exc}") from exc


def _read_rows(path: Path, size: int, count: int) -> list:
    """The first *count* rows, from the first *size* bytes of the journal."""
    if size == 0:
        rows: list = []
    else:
        with open(path, "rb") as handle:
            data = handle.read(size)
        if len(data) < size:
            raise EOFError(f"history journal is {len(data)} bytes, snapshot claims {size}")
        stream = io.BytesIO(data)
        rows = []
        while stream.tell() < size:
            rows.extend(pickle.load(stream))
    if len(rows) != count:
        raise ValueError(f"history journal holds {len(rows)} rows, snapshot claims {count}")
    return rows


def _unusable(counter: str, path: Path, reason: str) -> CheckpointError:
    stats_registry().counter_add(f"resilient.checkpoint.{counter}")
    return CheckpointError(f"checkpoint {path} is unusable: {reason}")


def _read_checkpoint(
    path: Union[str, Path], key: Optional[str] = None
) -> Optional[Dict[str, Any]]:
    """The full checkpoint record at *path*, or ``None`` if there is none.

    The record's payload carries the journalled rows under
    ``"history"`` when the snapshot was saved with a history.  A file
    that exists but cannot be resumed — a torn or corrupt snapshot or
    journal, a schema-tag mismatch, or (when *key* is given) a key
    mismatch — raises :class:`CheckpointError` naming the reason.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            record = pickle.load(handle)
    except FileNotFoundError:
        return None
    except _UNPICKLE_ERRORS as exc:
        raise _unusable("corrupt", path, f"unreadable snapshot ({exc})") from exc
    schema = record.get("schema") if isinstance(record, dict) else None
    if schema != CHECKPOINT_SCHEMA:
        raise _unusable(
            "schema_mismatch",
            path,
            f"schema {schema!r}, this version reads {CHECKPOINT_SCHEMA!r}",
        )
    if key is not None and record.get("key") != key:
        raise _unusable(
            "key_mismatch", path, f"written for key {record.get('key')!r}, not {key!r}"
        )
    history_len = record.get("history_len")
    if history_len is not None:
        try:
            rows = _read_rows(journal_path(path), record["journal_bytes"], history_len)
        except _UNPICKLE_ERRORS as exc:
            raise _unusable("corrupt", path, f"bad history journal ({exc})") from exc
        record["payload"]["history"] = rows
    stats_registry().counter_add("resilient.checkpoint.loads")
    return record


def load_checkpoint(
    path: Union[str, Path], key: Optional[str] = None
) -> Optional[Dict[str, Any]]:
    """Load a checkpoint payload; ``None`` if absent, stale or unreadable.

    A missing file, a torn/corrupt snapshot or journal, a schema-tag
    mismatch or (when *key* is given) a key mismatch all mean "no
    usable checkpoint": resuming silently falls back to a fresh run
    rather than crashing or, worse, resuming the wrong run.
    """
    try:
        record = _read_checkpoint(path, key)
    except CheckpointError:
        return None
    return None if record is None else record["payload"]


@dataclass
class Checkpointer:
    """Per-run checkpoint schedule handed to :meth:`Simulator.run`.

    Parameters
    ----------
    key:
        Stable identity of the run (the runner's cache key); names the
        checkpoint files and guards against resuming a different spec.
    every:
        Save after every *every* completed slots (``None``: never save
        periodically — useful for a resume-only policy).
    directory:
        Checkpoint directory, default ``.repro_cache/checkpoints``.
    kill_at:
        Crash drill: raise :class:`SimulationKilled` once this many
        slots completed (after saving a final snapshot first, so the
        killed run is always resumable).
    """

    key: str
    every: Optional[int] = None
    directory: Union[str, Path] = field(default=DEFAULT_CHECKPOINT_DIR)
    kill_at: Optional[int] = None
    #: (rows, bytes) of the journal that the last snapshot this
    #: checkpointer wrote or loaded claims; the next append starts there.
    _journal: Tuple[int, int] = field(
        default=(0, 0), init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("checkpointing requires a non-empty run key")
        if self.every is not None:
            require_integer(self.every, "every", minimum=1)
        if self.kill_at is not None:
            require_integer(self.kill_at, "kill_at", minimum=1)

    @property
    def path(self) -> Path:
        return checkpoint_path(self.key, self.directory)

    # ------------------------------------------------------------------
    def due(self, completed_slots: int) -> bool:
        """True when a periodic save is due after *completed_slots*."""
        if self.every is None:
            return False
        return completed_slots % self.every == 0

    def should_kill(self, completed_slots: int) -> bool:
        return self.kill_at is not None and completed_slots >= self.kill_at

    def save(self, payload: Dict[str, Any]) -> Path:
        """Journal the new history rows, then replace the snapshot.

        Returns the snapshot path.  A payload without ``"history"`` is
        written as a snapshot alone.
        """
        history = payload.get("history")
        if history is None:
            return save_checkpoint(self.path, self.key, payload)
        rows, offset = self._journal
        if len(history) < rows:
            # A shorter history is a different run: start the journal over.
            rows, offset = 0, 0
        if len(history) > rows:
            offset = _append_rows(journal_path(self.path), history[rows:], offset)
        snapshot = {name: value for name, value in payload.items() if name != "history"}
        path = save_checkpoint(self.path, self.key, snapshot, len(history), offset)
        self._journal = (len(history), offset)
        return path

    def load(self) -> Optional[Dict[str, Any]]:
        """The saved payload; ``None`` if absent, stale or unreadable."""
        try:
            return self.load_strict()
        except CheckpointError:
            return None

    def load_strict(self) -> Optional[Dict[str, Any]]:
        """Like :meth:`load`, but an unusable file raises :class:`CheckpointError`."""
        self._journal = (0, 0)
        record = _read_checkpoint(self.path, key=self.key)
        if record is None:
            return None
        if record["history_len"] is not None:
            self._journal = (record["history_len"], record["journal_bytes"])
        return record["payload"]

    def clear(self) -> None:
        """Remove the snapshot and its journal (after a successful run)."""
        self._journal = (0, 0)
        for path in (self.path, journal_path(self.path)):
            try:
                path.unlink()
            except OSError:
                pass
