"""Read and tear ckpt-v3 snapshot slots from their documented byte layout.

A slot is a 28-byte header — magic ``b"GFckpt3\\n"``, sequence number,
payload length and a CRC-32 over those three fields and the payload,
little-endian ``<8sQQI`` — followed by the payload, the record's
pickle.  This module parses that layout on its own, so the tests that
use it also check the format ``repro.resilient.checkpoint`` writes.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from pathlib import Path
from typing import Optional

from repro.resilient.checkpoint import snapshot_slots

HEADER = struct.Struct("<8sQQI")
MAGIC = b"GFckpt3\n"


def slot_payload(slot: Path) -> Optional[tuple]:
    """``(sequence, pickle bytes)`` of a slot holding a whole record, else ``None``."""
    data = slot.read_bytes() if slot.exists() else b""
    if len(data) < HEADER.size:
        return None
    magic, sequence, length, crc = HEADER.unpack_from(data)
    body = data[HEADER.size : HEADER.size + length]
    if magic != MAGIC or len(body) != length:
        return None
    if zlib.crc32(data[: HEADER.size - 4] + body) != crc:
        return None
    return sequence, body


def newest_slot(path: Path) -> Path:
    """The slot of the checkpoint at *path* holding the highest whole sequence."""
    whole = [(slot_payload(slot), slot) for slot in snapshot_slots(path)]
    return max((found[0], slot) for found, slot in whole if found is not None)[1]


def older_slot(path: Path) -> Path:
    """The other slot than :func:`newest_slot`."""
    first, second = snapshot_slots(path)
    return second if newest_slot(path) == first else first


def snapshot_pickle(path: Path) -> bytes:
    """The pickle of the newest snapshot of the checkpoint at *path*."""
    return slot_payload(newest_slot(path))[1]


def slot_record(slot: Path) -> dict:
    """The unpickled record a whole slot holds."""
    return pickle.loads(slot_payload(slot)[1])


def truncate(slot: Path) -> None:
    """Cut the slot off inside its payload, as a write killed halfway does."""
    data = slot.read_bytes()
    slot.write_bytes(data[: HEADER.size + (len(data) - HEADER.size) // 2])


def flip_payload_byte(slot: Path) -> None:
    """Flip one bit of the slot's last payload byte."""
    data = bytearray(slot.read_bytes())
    data[-1] ^= 0x01
    slot.write_bytes(bytes(data))


def zero_header(slot: Path) -> None:
    """Overwrite the slot's header with zeros."""
    data = slot.read_bytes()
    slot.write_bytes(bytes(HEADER.size) + data[HEADER.size :])


#: The three ways the tests tear the newer snapshot slot.
TEARS = (truncate, flip_payload_byte, zero_header)
