"""Integer-lattice cell sets, the rasterization of fixed outlines, and torus
quotients.

All coordinates are unit cells (x, y) with y growing northward.  Cell sets
are plain frozensets of (x, y) tuples, or int64 (k, 2) arrays of (x, y)
rows, serialized in canonical (y, x) order.  A Polyomino also keeps its
row runs, the first cell and length of each maximal run along a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable

import numpy as np

Cell = tuple[int, int]
Vec = tuple[int, int]
CellSet = frozenset  # frozenset[Cell]

# Coordinates read from JSON stay below this magnitude, so that adding a
# piece cell to a placement offset cannot overflow int64 arithmetic.
COORD_BOUND = 2 ** 31


class GeometryError(ValueError):
    """Invalid outline, piece or lattice."""


def canonical(cells: Iterable[Cell]) -> tuple[Cell, ...]:
    """Cells sorted by (y, x), duplicate-free."""
    return tuple(sorted(set(cells), key=lambda c: (c[1], c[0])))


def is_coord_pair(v) -> bool:
    """Whether a JSON value is two ints (not bools) below COORD_BOUND."""
    return (isinstance(v, list) and len(v) == 2
            and all(type(x) is int and abs(x) < COORD_BOUND for x in v))


def coord_array(values) -> np.ndarray | None:
    """A JSON list as an int64 (k, 2) array if each value is_coord_pair,
    else None: C-level passes over types and lengths and over the values,
    flattened once, for type and np.fromiter (refusing any past int64)."""
    if not (isinstance(values, list) and set(map(type, values)) <= {list}
            and set(map(len, values)) <= {2}
            and set(map(type, flat := [*chain.from_iterable(values)])) <= {int}):
        return None
    try:
        xy = np.fromiter(flat, np.int64, len(flat))
    except OverflowError:
        return None
    if len(xy) and not -COORD_BOUND < xy.min() <= xy.max() < COORD_BOUND:
        return None
    return xy.reshape(-1, 2)


def translate(cells: Iterable[Cell], v: Vec) -> CellSet:
    dx, dy = v
    return frozenset((x + dx, y + dy) for x, y in cells)


def cell_array(cells) -> np.ndarray:
    """Cells as an int64 (k, 2) array of (x, y) rows, in the order given."""
    if not isinstance(cells, np.ndarray):
        cells = np.fromiter(chain.from_iterable(cells), np.int64)
    return cells.astype(np.int64, copy=False).reshape(-1, 2)


def bounding_box(cells) -> tuple[int, int, int, int]:
    """(xmin, ymin, xmax, ymax), max exclusive, reduced column by column."""
    x, y = cell_array(cells).T
    return int(x.min()), int(y.min()), int(x.max()) + 1, int(y.max()) + 1


def _connected_rows(*xys: np.ndarray) -> list:
    """For each (x, y) array, its distinct cells in canonical (y, x) order
    and their ``row_runs`` if it is non-empty and edge-connected, else None.
    One pass serves them all, each array marked as it would be alone.  An
    array whose side is as long as its cells are many is not connected and
    is dropped first.  Each other one is keyed row-major in its bounding box,
    at the widest box's width, into its own range of rows, with a blank row
    before the next range; the keys are sorted once and split into runs, and
    each array takes its slice.  Two runs touch iff one's first cell is next
    to the other, above or below: one search of the run bounds pairs them,
    and hooking larger roots under smaller ones and pointer jumping joins
    the pairs (Shiloach and Vishkin, 1982); an array is connected iff all
    its runs join its first."""
    out, n = [None] * len(xys), [len(xy) for xy in xys]
    at = [i for i, k in enumerate(n) if k]  # the non-empty arrays
    if not at:
        return out
    xy = np.concatenate(xys) if len(xys) > 1 else xys[0]
    starts = [s for s, k in zip(accumulate(n, initial=0), n) if k]
    lo, hi = np.minimum.reduceat(xy, starts), np.maximum.reduceat(xy, starts)
    # Spans as Python ints: those of far int64 values need not fit int64.
    span = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(lo.tolist(), hi.tolist())]
    keep = [max(s) < n[i] for s, i in zip(span, at)]
    if not (span := [s for s, k in zip(span, keep) if k]):
        return out
    if not all(keep):
        xy, at, lo = xy[np.repeat(keep, [n[i] for i in at])], \
            [i for i, k in zip(at, keep) if k], lo[keep]
    n, width = [n[i] for i in at], max(s[0] for s in span) + 1
    base = [*accumulate((s[1] + 2 for s in span[:-1]), initial=0)]  # first rows
    # An array's cell (x, y) takes key (y - y0 + base) * width + x - x0, its
    # box's corner (x0, y0) moved down ``base`` rows; int64 arithmetic wraps,
    # but the key is small, so it is exact.
    lo[:, 1] -= base
    key = xy[:, 1] * width
    key += xy[:, 0]
    key -= np.repeat(lo[:, 1] * width + lo[:, 0], n)
    del xy  # the cells are rebuilt from their keys
    key.sort()
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    # A run starts where a key does not follow the one before, or a row starts.
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1] + 1))
                           | (key % width == 0))
    lengths = np.concatenate((first[1:], [len(key)])) - first
    start = key[first]
    # A key lies in run i iff exactly 2i + 1 run bounds are at most it.
    found = np.searchsorted(np.column_stack((start, start + lengths)).ravel(),
                            np.concatenate((start + width, start - width)), "right")
    touch = found % 2 == 1
    root = np.arange(len(first))
    a, b = lo_run, hi_run = np.concatenate((root, root))[touch], found[touch] // 2
    while (a != b).any():
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while (root != (jumped := root[root])).any():
            root = jumped
        a, b = root[lo_run], root[hi_run]
    # Each array's first cell and first run.  No run joins another array's,
    # and a root is the least run of its tree: an array is connected iff its
    # runs' greatest root is its first run.
    cells = np.searchsorted(key, [b * width for b in base] + [key[-1] + 1])
    runs = np.searchsorted(first, cells)
    joined = (np.maximum.reduceat(root, runs[:-1]) == runs[:-1]).tolist()
    xy = np.empty((len(key), 2), np.int64)
    np.divmod(key, width, out=(xy[:, 1], xy[:, 0]))
    cells, runs = cells.tolist(), runs.tolist()
    for k, i in enumerate(at):
        if joined[k]:
            c, r = slice(*cells[k:k + 2]), slice(*runs[k:k + 2])
            # One column at a time: adding a 2-vector to a (k, 2) block
            # loops row by row.
            xy[c, 0] += lo[k, 0]
            xy[c, 1] += lo[k, 1]
            out[i] = xy[c], xy[first[r]], lengths[r]
    return out


def row_runs(cells) -> tuple[np.ndarray, np.ndarray]:
    """First cell and length of each maximal run of cells along a row, in
    (y, x) order: a Polyomino's stored runs, or those of cells as
    ``cell_array`` takes them (a repeated cell counts once)."""
    if isinstance(cells, Polyomino):
        return cells.runs
    x, y = (xy := cell_array(cells))[np.lexsort(xy.T)].T
    # Sorted cells run on while they stay in a row and step 0 or 1 along it.
    cut = np.flatnonzero((np.diff(y) != 0) | (np.diff(x) > 1)) + 1
    first = np.concatenate(([0], cut))[:len(x)]
    last = np.concatenate((cut - 1, [len(x) - 1]))[:len(x)]
    return np.column_stack((x[first], y[first])), x[last] - x[first] + 1


def is_connected(cells: Iterable[Cell]) -> bool:
    """True iff the shared-edge adjacency graph on the cells is connected
    (never for no cells; diagonal contact does not count)."""
    return _connected_rows(cell_array(cells))[0] is not None


def rasterize(outline: tuple[Cell, ...]) -> CellSet:
    """Cells whose centers lie inside a closed outline (even-odd rule): its
    integer vertices listed cyclically, each edge horizontal or vertical.

    Cell centers never sit on such an edge, so the even-odd scanline over
    the vertical edges is exact.  A cell count that differs from the
    shoelace area raises GeometryError: the two count the cells of most
    outlines that cross or retrace themselves differently.
    """
    edges = list(zip(outline, outline[1:] + outline[:1]))
    vertical = []
    for (x0, y0), (x1, y1) in edges:
        if x0 == x1:
            vertical.append((x0, min(y0, y1), max(y0, y1)))
        elif y0 != y1:
            raise GeometryError(f"edge {(x0, y0)}-{(x1, y1)} is not axis-parallel")
    ys = [y for _, y in outline]
    cells = set()
    for y in range(min(ys), max(ys)):
        # The edges that the line through the row's centers, y + 0.5, crosses.
        xs = sorted(x for x, lo, hi in vertical if lo <= y < hi)
        for start, end in zip(xs[::2], xs[1::2]):
            cells.update((x, y) for x in range(start, end))
    area = abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in edges)) // 2
    if len(cells) != area:
        raise GeometryError(f"outline covers {len(cells)} cells, "
                            f"but its shoelace area is {area}")
    return frozenset(cells)


@dataclass(frozen=True)
class TorusLattice:
    """Integer lattice defining a plane quotient (a torus of |det| cells)."""

    b1: Vec
    b2: Vec

    def __post_init__(self):
        object.__setattr__(self, "b1", tuple(self.b1))
        object.__setattr__(self, "b2", tuple(self.b2))
        if self.det == 0:
            raise GeometryError("degenerate lattice")

    @property
    def det(self) -> int:
        return self.b1[0] * self.b2[1] - self.b1[1] * self.b2[0]

    @property
    def num_cells(self) -> int:
        return abs(self.det)

    @cached_property
    def hnf(self) -> tuple[int, int, int]:
        """(A, B, C) with basis (A, 0), (C, B) of the same lattice: 0 <= C < A,
        A*B = |det| and B is the gcd of the basis y-components, so reduction
        maps every point to the rectangle [0, A) x [0, B)."""
        (x1, y1), (x2, y2) = self.b1, self.b2
        g = math.gcd(y1, y2)  # > 0: det != 0, so not both y-components are 0
        # m*y1 + n*y2 == g
        m = pow(y1 // g, -1, abs(y2 // g)) if y2 else y1 // g
        n = (g - m * y1) // y2 if y2 else 0
        a = self.num_cells // g
        return a, g, (m * x1 + n * x2) % a

    def reduce(self, c: Cell) -> Cell:
        """Canonical representative of c modulo the lattice."""
        a, b, cc = self.hnf
        x, y = c
        k = y // b
        return ((x - k * cc) % a, y - k * b)

    def reduce_points(self, xs, ys):
        """``reduce`` of each point (xs, ys) of two int arrays, as two arrays."""
        a, b, c = self.hnf
        k = np.floor_divide(ys, b)
        return np.mod(xs - k * c, a), ys - k * b

    def representatives(self):
        """Iterate the |det| canonical representatives."""
        a, b, _ = self.hnf
        for y in range(b):
            for x in range(a):
                yield (x, y)


def piece_entry(obj) -> tuple[np.ndarray, str]:
    """The cells and name of a piece file's ``{"name": str, "cells": [[x, y],
    ...]}`` entry, whose cells may already be the array ``coord_array`` made
    of them; GeometryError for an entry of any other structure."""
    if not (isinstance(obj, dict) and isinstance(obj.get("name"), str)):
        raise GeometryError("a piece entry needs a string 'name'")
    cells = obj.get("cells")
    if (xy := cells if isinstance(cells, np.ndarray) else coord_array(cells)) is None:
        raise GeometryError(f"piece {obj['name']!r} needs 'cells': integer pairs")
    return xy, obj["name"]


def polyominoes(named_cells: list) -> tuple[Polyomino, ...]:
    """``Polyomino(cells, name)`` of each (cells, name) pair, in order, all
    checked by one ``_connected_rows`` pass; the first bad piece raises as
    it would alone."""
    xys = [cell_array(cells) for cells, _ in named_cells]
    rows = _connected_rows(*xys) if xys else []
    return tuple(Polyomino(xy, name, r)
                 for (_, name), xy, r in zip(named_cells, xys, rows))


class Polyomino:
    """A named, non-empty, edge-connected set of unit cells: ``xy``, a
    read-only int64 array of distinct (x, y) rows in canonical (y, x) order,
    and ``runs``, its read-only ``row_runs``, both from the connectivity
    check, ``_connected_rows`` of its cells alone or ``rows``, their part of
    the pass over all the pieces of a list (``polyominoes``); ``cells`` is a
    frozenset view of ``xy``, derived on first use."""

    def __init__(self, cells, name: str, rows=None):
        self.name = name
        xy = cell_array(cells)
        if not len(xy):
            raise GeometryError(f"polyomino {name!r} is empty")
        if (rows := rows or _connected_rows(xy)[0]) is None:
            raise GeometryError(f"polyomino {name!r} is not edge-connected")
        for a in rows:
            a.flags.writeable = False
        self.xy, self.runs = rows[0], rows[1:]

    @cached_property
    def cells(self) -> CellSet:
        return frozenset(self.canonical_cells())

    def __len__(self) -> int:
        return len(self.xy)

    def canonical_cells(self) -> tuple[Cell, ...]:
        return tuple(zip(*self.xy.T.tolist()))

    def to_json(self) -> dict:
        """The piece's entry for ``cli._json_text``: its cells stay the array."""
        return {"name": self.name, "cells": self.xy}

    @classmethod
    def from_json(cls, obj: dict) -> "Polyomino":
        """A piece from its entry in a piece file (``piece_entry``)."""
        return cls(*piece_entry(obj))
