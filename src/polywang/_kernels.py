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


def coverage_counts(idx, counts):
    """Add one to ``counts`` at the flat cell index of every covered point,
    in time linear in the number of points."""
    np.add.at(counts, idx, counts.dtype.type(1))


def backend() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "numpy"
