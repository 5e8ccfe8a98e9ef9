"""Verification kernels: lattice reduction and coverage counting in numpy."""

from __future__ import annotations

import numpy as np


def reduce_points(xs, ys, a, b, c):
    """Map points to canonical representatives in [0, a) x [0, b).

    (a, 0) and (c, b) form a triangular basis of the quotient lattice.
    """
    k = np.floor_divide(ys, b)
    yr = ys - k * b
    xr = np.mod(xs - k * c, a)
    return xr, yr


def coverage_counts(xs, ys, a, b, c):
    """Per-quotient-cell coverage multiplicities as a flat (a*b,) array."""
    xr, yr = reduce_points(xs, ys, a, b, c)
    idx = yr.astype(np.int64) * a + xr
    return np.bincount(idx, minlength=a * b)


def backend() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "numpy"
