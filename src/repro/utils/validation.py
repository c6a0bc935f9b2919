"""Argument-validation helpers shared across the package.

These raise early, with messages that name the offending parameter, so that
algorithm code can assume clean inputs and stay branch-free in hot loops.
"""

from __future__ import annotations

import numpy as np


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (``> 0``; or ``>= 0`` when
    ``strict=False``) and finite. Returns the value for chaining."""
    v = float(value)
    if not np.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if strict and v <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and v < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return v


def check_fraction(name: str, value: float, *, low: float = 0.0, high: float = 0.5) -> float:
    """Validate an accuracy parameter ``value`` in the open interval
    ``(low, high)``; the paper assumes ``0 < eps < 1/2``."""
    v = float(value)
    if not (low < v < high):
        raise ValueError(f"{name} must lie in ({low}, {high}), got {value!r}")
    return v


def ensure_int_array(name: str, arr, *, ndim: int = 1) -> np.ndarray:
    """Coerce ``arr`` to a contiguous int64 array of dimension ``ndim``."""
    out = np.ascontiguousarray(arr, dtype=np.int64)
    if out.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {out.shape}")
    return out


def ensure_float_array(name: str, arr, *, ndim: int = 1, require_finite: bool = True) -> np.ndarray:
    """Coerce ``arr`` to a contiguous float64 array of dimension ``ndim``."""
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {out.shape}")
    if require_finite and out.size and not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must contain only finite values")
    return out
