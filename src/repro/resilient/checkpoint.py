"""Crash-safe checkpointing: two in-place snapshot slots plus a history journal.

A killed process must not lose a long horizon.  The simulator
periodically saves its mid-run state under
``.repro_cache/checkpoints/<key>``.  Resuming restores every object and
continues from the next slot, producing bit-identical metrics and trace
to an uninterrupted run: the restored state is exactly the state the
uninterrupted run had at that slot, and everything downstream is
deterministic.

File format (``ckpt-v3``), three files side by side:

* ``<key>.ckpt`` and ``<key>.ckpt.1`` — the two **snapshot slots**
  (:func:`snapshot_slots`).  Each holds one record: a 28-byte header
  (magic ``b"GFckpt3\\n"``, sequence number, payload length and CRC-32,
  little-endian ``<8sQQI``; the CRC covers the first three fields and
  the payload) followed by the payload, one pickle of ``{"schema":
  CHECKPOINT_SCHEMA, "key": ..., "payload": {...}, "history_len": n,
  "journal_bytes": b}``.  The payload is the fixed-size run state: queue
  network, scheduler (including any RNG state, e.g. the random-routing
  baseline's generator), admission policy, fault injector, loop
  counters.  The cluster is static input, not run state: a payload
  names its run's cluster under ``"cluster"``, which is never written;
  every reference to it is written as a token instead, which loading
  resolves to an :class:`UnboundCluster` stand-in.  :func:`bind_cluster`
  replaces the stand-in with the live scenario's cluster
  (:meth:`Simulator.restore <repro.simulation.simulator.Simulator.restore>`
  does so on every resume).
* ``<key>.hist`` — the append-only **history journal**: the per-slot
  rows (one per completed slot), as a sequence of pickle frames.  A
  payload's ``"history"`` entry (a :class:`ColumnHistory`) is never
  pickled into the snapshot; each save appends only the rows completed
  since the previous save, so a save costs the same at slot 100 as at
  slot 10,000.

A :class:`Checkpointer` opens its files at its first save and
keeps them open, so later saves make no open, create or rename.  A
save appends to the journal first, then rewrites the slot holding the
older snapshot in place, header and payload in one write, under the
next sequence number; a slot left longer than its new record is
truncated to it.  Loading reads both slots and takes the highest
sequence whose length and CRC check.  A crash mid-write can therefore
tear only the slot being written: the other slot keeps the previous
snapshot.  Each snapshot records how many rows (``history_len``) and
bytes (``journal_bytes``) of the journal belong to it, so the rows a
crashed save appended are a tail no snapshot claims: loading ignores
it and the next append overwrites it.  A journal shorter than the
snapshot claims is corrupt.  Nothing is ``fsync``-ed: the guarantee
is against a process crash, not a power loss.

A fresh checkpointer's first save empties both slots before it writes,
so an older run's snapshot can never be loaded after it; a slot torn in
that first save, beside an empty one, reads as no checkpoint.  After a
load, saves continue from the loaded snapshot's sequence number into
the other slot.  A ``ckpt-v2`` snapshot (one bare pickle at
``<key>.ckpt``, written through a temp file and ``os.replace``) still
loads when neither slot holds a record; nothing writes that layout any
more.

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

import copy
import glob
import io
import os
import pickle
import struct
import zlib
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
    "UnboundCluster",
    "bind_cluster",
    "checkpoint_path",
    "journal_path",
    "load_checkpoint",
    "save_checkpoint",
    "snapshot_slots",
]

#: Bump whenever the snapshot layout changes; mismatching checkpoints
#: are ignored, never migrated.
CHECKPOINT_SCHEMA = "ckpt-v3"

#: The one older layout that still loads: a bare pickle at ``<key>.ckpt``.
_V2_SCHEMA = "ckpt-v2"

#: A snapshot slot's header: magic, sequence number, payload length,
#: then the CRC-32 of those three fields and the payload.
_MAGIC = b"GFckpt3\n"
_PREFIX = struct.Struct("<8sQQ")
_HEADER = struct.Struct("<8sQQI")

#: Checkpoints live next to the result cache.
DEFAULT_CHECKPOINT_DIR = Path(".repro_cache") / "checkpoints"

# What a torn or foreign pickle can raise while loading.
_UNPICKLE_ERRORS = (OSError, pickle.UnpicklingError, EOFError, AttributeError, ValueError)


class UnboundCluster:
    """Stands in for the run's cluster in a loaded snapshot.

    It has no attributes; :func:`bind_cluster` replaces it with a cluster.
    """

    __slots__ = ()


_UNBOUND = UnboundCluster()


def _scenario_cluster() -> UnboundCluster:
    """What the token a snapshot holds in place of its run's cluster loads as."""
    return _UNBOUND


def bind_cluster(obj: Any, cluster: Any) -> Any:
    """A copy of *obj* that holds *cluster* wherever it held an :class:`UnboundCluster`."""
    return copy.deepcopy(obj, {id(_UNBOUND): cluster})


class _SnapshotPickler(pickle.Pickler):
    """Pickles a snapshot with every reference to *cluster* as a token."""

    def __init__(self, file, cluster: Any) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._cluster = cluster

    def reducer_override(self, obj: Any) -> Any:
        # Called only for objects without a built-in pickler, so the
        # floats, lists and dicts of the run state pay nothing for it.
        if obj is self._cluster:
            return _scenario_cluster, ()
        return NotImplemented


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
    """Where the checkpoint for cache-key *key* lives: its first snapshot slot."""
    if not key:
        raise ValueError("checkpointing requires a non-empty run key")
    base = Path(directory) if directory is not None else DEFAULT_CHECKPOINT_DIR
    return base / f"{key}.ckpt"


def snapshot_slots(path: Union[str, Path]) -> Tuple[Path, Path]:
    """The two snapshot slot files of the checkpoint at *path*."""
    path = Path(path)
    return path, path.with_name(path.name + ".1")


def journal_path(path: Union[str, Path]) -> Path:
    """The history journal beside the snapshot at *path*."""
    return Path(path).with_suffix(".hist")


def _encode(
    sequence: int,
    key: str,
    payload: Dict[str, Any],
    history_len: Optional[int],
    journal_bytes: int,
) -> memoryview:
    """One snapshot slot's bytes: the header, then the record's pickle.

    A payload's ``"cluster"`` is not written: references to it are
    written as a token (see :class:`UnboundCluster`).
    """
    cluster = payload.get("cluster")
    if cluster is not None:
        payload = {name: value for name, value in payload.items() if name != "cluster"}
    record = {
        "schema": CHECKPOINT_SCHEMA,
        "key": key,
        "payload": payload,
        "history_len": history_len,
        "journal_bytes": int(journal_bytes),
    }
    buffer = io.BytesIO()
    buffer.seek(_HEADER.size)
    _SnapshotPickler(buffer, cluster).dump(record)
    frame = buffer.getbuffer()
    length = len(frame) - _HEADER.size
    crc = zlib.crc32(frame[_HEADER.size :], zlib.crc32(_PREFIX.pack(_MAGIC, sequence, length)))
    _HEADER.pack_into(frame, 0, _MAGIC, sequence, length, crc)
    return frame


def _decode(data: bytes) -> Tuple[int, memoryview]:
    """The sequence number and record pickle of one slot's bytes.

    Raises ``ValueError`` when the slot holds no whole record: no
    header, fewer payload bytes than the header claims, or a CRC
    mismatch.
    """
    if not data.startswith(_MAGIC) or len(data) < _HEADER.size:
        raise ValueError("no snapshot header")
    _, sequence, length, crc = _HEADER.unpack_from(data)
    view = memoryview(data)
    body = view[_HEADER.size : _HEADER.size + length]
    if len(body) < length:
        raise ValueError(f"{len(body)} of {length} payload bytes")
    if zlib.crc32(body, zlib.crc32(view[: _PREFIX.size])) != crc:
        raise ValueError("CRC mismatch")
    return sequence, body


def _open_in_place(path: Path):
    """*path* open for reads and in-place writes, created if absent."""
    return open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b", buffering=0)


def _write_at(handle, data, offset: int) -> None:
    """Write all of *data* at byte *offset* of the unbuffered *handle*."""
    handle.seek(offset)
    view = memoryview(data)
    while view:
        view = view[handle.write(view) :]


class _OpenFiles:
    """A checkpoint's two snapshot slots and journal, held open across saves.

    *newest* is the ``(sequence, slot)`` of the snapshot on disk to keep:
    the next save goes to the other slot under the next sequence number.
    ``None`` empties both slots first, so a fresh run never leaves an
    older run's snapshot behind to be loaded.  The files are closed when
    the object is collected.
    """

    def __init__(self, path: Path, newest: Optional[Tuple[int, int]]) -> None:
        self.slots: list = []
        self.journal = None
        self.paths = snapshot_slots(path)
        self.journal_path = journal_path(path)
        self.journal_end = 0
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            for slot in self.paths:
                self.slots.append(_open_in_place(slot))
                if newest is None:
                    self.slots[-1].truncate(0)
            self.sizes = [handle.seek(0, os.SEEK_END) for handle in self.slots]
        except OSError as exc:
            self.close()
            raise CheckpointError(f"could not open checkpoint {path}: {exc}") from exc
        self.newest = newest

    def append(self, rows: list, offset: int) -> int:
        """Write *rows* as one pickle frame at journal byte *offset*; the new length.

        Whatever lay beyond *offset* (a tail no snapshot claims) is cut
        off first.
        """
        try:
            if self.journal is None:
                self.journal = _open_in_place(self.journal_path)
                self.journal_end = self.journal.seek(0, os.SEEK_END)
            if self.journal_end < offset:
                raise CheckpointError(
                    f"history journal {self.journal_path} is shorter than its snapshot claims"
                )
            frame = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
            if self.journal_end > offset:
                self.journal.truncate(offset)
            _write_at(self.journal, frame, offset)
        except (OSError, pickle.PicklingError) as exc:
            raise CheckpointError(f"could not append to {self.journal_path}: {exc}") from exc
        self.journal_end = offset + len(frame)
        return self.journal_end

    def write_snapshot(self, index: int, frame: memoryview) -> Path:
        """Rewrite slot *index* with *frame* in place; its path."""
        handle = self.slots[index]
        _write_at(handle, frame, 0)
        if self.sizes[index] > len(frame):
            handle.truncate(len(frame))
        self.sizes[index] = len(frame)
        return self.paths[index]

    def save(
        self,
        key: str,
        payload: Dict[str, Any],
        history_len: Optional[int],
        journal_bytes: int,
    ) -> Path:
        """Write the snapshot into the other slot than the newest; its path."""
        sequence, newest = self.newest or (0, 1)
        try:
            frame = _encode(sequence + 1, key, payload, history_len, journal_bytes)
            written = self.write_snapshot(1 - newest, frame)
        except (OSError, pickle.PicklingError) as exc:
            raise CheckpointError(f"could not write checkpoint {self.paths[0]}: {exc}") from exc
        self.newest = (sequence + 1, 1 - newest)
        stats_registry().counter_add("resilient.checkpoint.saves")
        return written

    def close(self) -> None:
        for handle in (*self.slots, self.journal):
            if handle is not None:
                handle.close()
        self.slots, self.journal = [], None

    __del__ = close


def save_checkpoint(
    path: Union[str, Path],
    key: str,
    payload: Dict[str, Any],
    history_len: Optional[int] = None,
    journal_bytes: int = 0,
) -> Path:
    """Replace the checkpoint at *path* with the snapshot *payload*; its slot's path.

    Like a fresh :class:`Checkpointer`'s first save, this empties both
    snapshot slots, then writes the first.  *history_len* and
    *journal_bytes* say how much of the journal beside *path* belongs to
    this snapshot (``None``: the payload has no history).  A payload's
    ``"cluster"`` is not written: references to it are written as a
    token (see :class:`UnboundCluster`).
    """
    files = _OpenFiles(Path(path), None)
    try:
        return files.save(key, payload, history_len, journal_bytes)
    finally:
        files.close()


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


def _read_slot(path: Path) -> bytes:
    """The bytes of a snapshot slot; empty if the file is missing."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""


def _unusable(counter: str, path: Path, reason: str) -> CheckpointError:
    stats_registry().counter_add(f"resilient.checkpoint.{counter}")
    return CheckpointError(f"checkpoint {path} is unusable: {reason}")


def _read_checkpoint(
    path: Union[str, Path], key: Optional[str] = None
) -> Optional[Tuple[Dict[str, Any], Tuple[int, int]]]:
    """The newest whole checkpoint record at *path* and its ``(sequence, slot)``.

    ``None`` if there is none.  The record's payload carries the
    journalled rows under ``"history"`` when the snapshot was saved with
    a history, and an :class:`UnboundCluster` wherever the saved payload
    referred to its run's cluster.  Empty slots, and a lone slot torn in
    its run's first save, are no checkpoint.  A checkpoint that exists
    but cannot be resumed — no whole snapshot, a corrupt journal, a
    schema-tag mismatch, or (when *key* is given) a key mismatch —
    raises :class:`CheckpointError` naming the reason.
    """
    path = Path(path)
    try:
        slots = [_read_slot(slot) for slot in snapshot_slots(path)]
    except OSError as exc:
        raise _unusable("corrupt", path, f"unreadable snapshot ({exc})") from exc
    records = []
    for index, data in enumerate(slots):
        try:
            sequence, body = _decode(data)
        except ValueError:
            continue
        records.append(((sequence, index), body))
    if records:
        newest, body = max(records, key=lambda record: record[0])
    elif slots[0] and not slots[0].startswith(_MAGIC):
        newest, body = (0, 0), slots[0]  # a ckpt-v2 snapshot
    elif not (slots[0] and slots[1]):
        return None
    else:
        raise _unusable("corrupt", path, "neither snapshot slot holds a whole record")
    try:
        record = pickle.loads(body)
    except _UNPICKLE_ERRORS as exc:
        raise _unusable("corrupt", path, f"unreadable snapshot ({exc})") from exc
    schema = record.get("schema") if isinstance(record, dict) else None
    if schema not in (CHECKPOINT_SCHEMA, _V2_SCHEMA):
        raise _unusable(
            "schema_mismatch",
            path,
            f"schema {schema!r}, this version reads {CHECKPOINT_SCHEMA!r} and {_V2_SCHEMA!r}",
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
    return record, newest


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
        found = _read_checkpoint(path, key)
    except CheckpointError:
        return None
    return None if found is None else found[0]["payload"]


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

    The first save opens the checkpoint's files and later saves reuse
    them; :meth:`close`, :meth:`clear` and :meth:`load_strict` close
    them.
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
    #: ``(sequence, slot)`` of the newest snapshot this checkpointer
    #: wrote or loaded while its files are closed; ``None``: the next
    #: save starts a fresh checkpoint.
    _newest: Optional[Tuple[int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The files the last save opened, until they are closed.
    _files: Optional[_OpenFiles] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("checkpointing requires a non-empty run key")
        if self.every is not None:
            require_integer(self.every, "every", minimum=1)
        if self.kill_at is not None:
            require_integer(self.kill_at, "kill_at", minimum=1)

    @property
    def path(self) -> Path:
        """The checkpoint's first snapshot slot, which every save leaves in place."""
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
        """Journal the new history rows, then rewrite the older snapshot slot.

        Returns the path of the slot written.  A payload without
        ``"history"`` is written as a snapshot alone.  The payload's
        ``"cluster"`` (the run's static input) is not written;
        references to it are written as a token.  A failed save closes
        the files, so the next one starts from what is on disk.
        """
        if self._files is None:
            self._files = _OpenFiles(self.path, self._newest)
        files = self._files
        history = payload.get("history")
        try:
            if history is None:
                return files.save(self.key, payload, None, 0)
            rows, offset = self._journal
            if len(history) < rows:
                # A shorter history is a different run: start the journal over.
                rows, offset = 0, 0
            if len(history) > rows:
                offset = files.append(history[rows:], offset)
            snapshot = {name: value for name, value in payload.items() if name != "history"}
            written = files.save(self.key, snapshot, len(history), offset)
        except CheckpointError:
            self.close()
            raise
        self._journal = (len(history), offset)
        return written

    def load(self) -> Optional[Dict[str, Any]]:
        """The saved payload; ``None`` if absent, stale or unreadable.

        Where the saved objects held the run's cluster, the loaded ones
        hold an :class:`UnboundCluster`, which
        :meth:`Simulator.restore <repro.simulation.simulator.Simulator.restore>`
        replaces with its scenario's cluster.
        """
        try:
            return self.load_strict()
        except CheckpointError:
            return None

    def load_strict(self) -> Optional[Dict[str, Any]]:
        """Like :meth:`load`, but an unusable file raises :class:`CheckpointError`.

        The next save goes to the other slot than the loaded snapshot's,
        under the next sequence number, and appends to the journal at
        the loaded snapshot's offset.
        """
        self.close()
        self._journal, self._newest = (0, 0), None
        found = _read_checkpoint(self.path, key=self.key)
        if found is None:
            return None
        record, self._newest = found
        if record["history_len"] is not None:
            self._journal = (record["history_len"], record["journal_bytes"])
        return record["payload"]

    def close(self) -> None:
        """Close the files saves keep open; the next save reopens them."""
        if self._files is not None:
            self._newest = self._files.newest
            self._files.close()
            self._files = None

    def clear(self) -> None:
        """Remove every file of the checkpoint (after a successful run)."""
        self.close()
        self._journal, self._newest = (0, 0), None
        path = self.path
        # A ckpt-v2 writer killed mid-save left its temp file behind.
        temps = path.parent.glob(f"{glob.escape(path.stem)}.tmp.*")
        for stale in (*snapshot_slots(path), journal_path(path), *temps):
            try:
                stale.unlink()
            except OSError:
                pass
