"""Verification kernels in numpy: lattice reduction, and coverage counting
from row runs."""

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


def coverage_counts(starts, ends, diff):
    """Add one to ``diff`` at the flat index where each row run starts and
    take one off where it ends, in time linear in the number of runs; a
    prefix sum of ``diff`` then counts the runs covering each cell."""
    one = diff.dtype.type(1)  # a Python 1 would make np.add.at cast per index
    np.add.at(diff, starts, one)
    np.subtract.at(diff, ends, one)


def backend() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "numpy"
