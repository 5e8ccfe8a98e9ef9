"""Verification kernels in numpy: lattice reduction."""

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


def backend() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "numpy"
