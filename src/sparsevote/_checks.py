"""The library's one set of argument checks: counts, reals, flags, generators,
batch sizes and index arrays.

Every module's public functions check their scalar arguments and index
arrays here; structural checks (shapes, order, sums) stay beside the code
they guard.  Each check returns its value unchanged (an index array as int64) or
raises one ValueError line that names the argument; `within` names an
optional range in that line's words.  A bool is neither a count nor a real.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

# Counts reach numpy and scipy as int64.
_INT64_MAX = 2**63 - 1
# numpy refuses an array of more bytes than an int64 counts: at most this many floats.
FLOATS_MAX = _INT64_MAX // 8

_RANGES = {
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
}


def is_count(value) -> bool:
    """A non-bool integer, numpy integers included."""
    # The exact type first: most calls pass an int, and isinstance on an ABC costs more.
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite non-bool int or float; an int past the float range is not finite."""
    if type(value) is float:
        return math.isfinite(value)
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _within(value, name: str, within: str | None):
    if within is not None and not _RANGES[within](value):
        raise ValueError(f"{name} must be {within}, got {value}")
    return value


def count(value, name: str, within: str = "positive", high: int | None = _INT64_MAX):
    """A count in range, at most high unless high is None."""
    if not is_count(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")
    return _within(value, name, within)


def real(value, name: str, within: str | None = None):
    if not is_real(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return _within(value, name, within)


def flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def generator(rng, name: str):
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"{name} must be a numpy Generator, got {rng!r}")
    return rng


def batch_size(value, name: str):
    """A positive count or integral float such as 4.0, in the float range (its root is taken)."""
    if not (is_count(value) or is_real(value) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return real(value, name, "positive")


def indices(values, name: str, high: int | None = None, of: str = "") -> np.ndarray:
    """An array of integers, in [0, high) unless high is None, as int64; an
    empty array of any dtype passes.  of says where high comes from, as in "dim=4"."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {arr.dtype} values")
    arr = arr.astype(np.int64, copy=False)
    # As uint64 a negative int64 (or a wrapped uint64 past it) is 2**63 or
    # more, so one max finds a value out of range at either end.
    if high is not None and arr.size and arr.view(np.uint64).max() >= min(high, 1 << 63):
        raise ValueError(f"{name} out of range for {of}: must lie in [0, {high}), got [{arr.min()}, {arr.max()}]")
    return arr
