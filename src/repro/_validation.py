"""Shared validation helpers used across the :mod:`repro` package.

These helpers centralize argument checking so that every public
constructor raises consistent, informative errors.  All of them raise
:class:`ValueError` (or :class:`TypeError` for type mismatches) with a
message that names the offending parameter.
"""

from __future__ import annotations

from dataclasses import fields
from typing import ClassVar, Iterable, Sequence

import numpy as np

__all__ = [
    "require_positive",
    "require_non_negative",
    "require_at_least",
    "require_in_range",
    "require_integer",
    "require_array_shape",
    "require_non_negative_array",
    "as_float_array",
    "as_int_array",
    "is_sealed",
    "ValueEquality",
]


def require_positive(value: float, name: str) -> float:
    """Return *value* if strictly positive, else raise ``ValueError``."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def require_non_negative(value: float, name: str) -> float:
    """Return *value* if ``>= 0`` and finite, else raise ``ValueError``."""
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return float(value)


def require_at_least(value: float, minimum: float, name: str) -> float:
    """Return *value* if finite and ``>= minimum``, else raise ``ValueError``."""
    if not np.isfinite(value) or value < minimum:
        raise ValueError(f"{name} must be a finite number >= {minimum}, got {value!r}")
    return float(value)


def require_in_range(value: float, low: float, high: float, name: str) -> float:
    """Return *value* if it lies in the closed interval ``[low, high]``."""
    if not np.isfinite(value) or value < low or value > high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value!r}")
    return float(value)


def require_integer(value: int, name: str, minimum: int | None = None) -> int:
    """Return *value* as ``int`` after checking type and optional minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    out = int(value)
    if minimum is not None and out < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {out}")
    return out


def require_array_shape(arr: np.ndarray, shape: Sequence[int], name: str) -> np.ndarray:
    """Return *arr* if its shape matches *shape* exactly."""
    if tuple(arr.shape) != tuple(shape):
        raise ValueError(f"{name} must have shape {tuple(shape)}, got {arr.shape}")
    return arr


def require_non_negative_array(arr: np.ndarray, name: str) -> np.ndarray:
    """Return *arr* if all entries are finite and non-negative."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    if np.any(arr < 0):
        raise ValueError(f"{name} must be element-wise non-negative")
    return arr


def as_float_array(values: Iterable[float], name: str) -> np.ndarray:
    """Convert *values* to a 1-D float64 array, raising on failure."""
    try:
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be convertible to a float array") from exc
    return arr


def as_int_array(values: Iterable[int], name: str) -> np.ndarray:
    """Convert *values* to an int64 array, raising if lossy."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    out = arr.astype(np.int64)
    if not np.array_equal(out, arr):
        raise ValueError(f"{name} must contain only integer values")
    return out


def is_sealed(arr: np.ndarray) -> bool:
    """True if no writable array can reach *arr*'s memory.

    *arr* and every array it is a view of are read-only, and the chain
    ends in memory numpy owns.  A read-only view of a writable array is
    not sealed: whoever holds the writable array can still change it.
    """
    while not arr.flags.writeable:
        base = arr.base
        if base is None:
            return True
        if not isinstance(base, np.ndarray):
            return False  # foreign memory (a buffer, an mmap): assume writable
        arr = base
    return False


class ValueEquality:
    """Value ``==``/``hash`` over the fields of a ``@dataclass(frozen=True, eq=False)``.

    The generated methods raise on ndarray fields.  Here an array counts
    by shape and entries (``-0.0 == 0.0``, NaN equals NaN); attributes
    that are not fields (caches) take no part.
    """

    __dataclass_fields__: ClassVar[dict]

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self))
        return tuple(
            (v.shape, np.where(np.isnan(v), np.nan, v + 0.0).tobytes())
            if isinstance(v, np.ndarray) else v
            for v in values
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())
