"""Translational exact-cover tiling engine and linear tiling checker.

``solve`` searches regions of at most ``_REGION_CAP`` cells, in every mode on
one tree that branches on the first uncovered cell.  A rectangle's cells are
taken along its shorter side, column by column when it is wider than tall,
so its frontier is min(width, height) cells wide.  Count mode sweeps its
states by frontier layers (the transfer-matrix method, Stanley, EC1 4.7).
First and enumerate walk the same states depth first on an explicit stack,
skipping states already shown to hold no tiling, at most ``_MEMO_CAP`` of them.
``check_tiling`` verifies a placement list.  It readies each piece's row runs
once, places them as flat intervals, sorts their starts and ends (int32 below
2**31 cells) and sweeps over them (after Bentley's note on Klee's measure
problem); no array it builds is sized by the area.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from math import inf
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .geometry import (Cell, CellSet, Polyomino, TorusLattice, Vec, canonical,
                       cell_array, coord_array, is_coord_pair)

SolveMode = Literal["first", "count", "enumerate"]
_BATCH_POINTS = 1 << 18  # placed points check_tiling materialises at a time
# States solve stores, at most: dead states in first and enumerate, live frontier
# states in count mode; about 160 B of heap each (tracemalloc), 10 MB in all.
_MEMO_CAP = 1 << 16
# Cells of the largest region build_universe takes: first mode for {h, m} on
# 128 x 128 peaks at 7.5 MiB of heap (tracemalloc).
_REGION_CAP = 1 << 14


class SolverInputError(ValueError):
    pass


class RegionLimitError(RuntimeError):
    """Over _REGION_CAP cells or Wang items, or a count of over _MEMO_CAP states."""


class SearchLimitError(RuntimeError):
    """Node budget exhausted; carries the partial solution count."""

    def __init__(self, partial_count: int):
        super().__init__(f"search limit exceeded after {partial_count} solutions")
        self.partial_count = partial_count


@dataclass(frozen=True)
class Rectangle:
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise SolverInputError("rectangle dimensions must be positive")

    @property
    def area(self) -> int:
        return self.width * self.height

    def index(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Flat cell index y * width + x of each point; -1 outside."""
        inside = (xs >= 0) & (xs < self.width) & (ys >= 0) & (ys < self.height)
        return np.where(inside, ys * self.width + xs, -1)

    def prepare(self, first: np.ndarray, lengths: np.ndarray):
        """A piece's row runs (first cells, lengths) as ``runs`` takes them."""
        return (*first.T, lengths)

    def runs(self, runs, ox: np.ndarray, oy: np.ndarray):
        """Row start, flat [start, end) of the cells inside and times it
        wraps its row (never) of each prepared run placed at each offset
        (ox, oy), one row per placement; empty, at row 0, on a row outside."""
        rx, ry, lengths = runs
        xs, ys = ox[:, None] + rx, oy[:, None] + ry
        inside = (ys >= 0) & (ys < self.height)
        row = np.where(inside, ys * self.width, 0)
        start = np.clip(xs, 0, self.width)
        end = np.where(inside, np.clip(xs + lengths, 0, self.width), start)
        return row, row + start, row + end, np.zeros_like(start)

    def to_json(self) -> dict:
        return {"rect": [self.width, self.height]}


@dataclass(frozen=True)
class Torus:
    lattice: TorusLattice

    @property
    def width(self) -> int:
        return self.lattice.hnf[0]

    @property
    def height(self) -> int:
        return self.lattice.hnf[1]

    @property
    def area(self) -> int:
        return self.lattice.num_cells

    def index(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Flat index y * width + x of each point's representative cell."""
        xr, yr = self.lattice.reduce_points(xs, ys)
        return yr * self.width + xr

    def prepare(self, first: np.ndarray, lengths: np.ndarray):
        """As Rectangle.prepare: starts reduced, lengths as whole rows + rest."""
        return (*self.lattice.reduce_points(*first.T), *np.divmod(lengths, self.width))

    def runs(self, runs, ox: np.ndarray, oy: np.ndarray):
        """As Rectangle.runs, at reduced offsets: a run covers its row ``wraps``
        times plus [start, end), or minus [end, start) if end < start.  Reduced
        starts at reduced offsets lie within one basis step (c, b) of the domain."""
        a, b, c = self.lattice.hnf
        rx, ry, whole, rest = runs
        row = oy[:, None] + ry
        over = row >= b
        row -= over * b
        x = ox[:, None] + rx - over * c
        x += (x < 0) * a
        x -= (x >= a) * a
        end = x + rest
        seam = end >= a
        end -= seam * a
        row *= a
        return row, x + row, end + row, whole + seam

    def to_json(self) -> dict:
        return {"lattice": [list(self.lattice.b1), list(self.lattice.b2)]}


Region = Rectangle | Torus


def region_from_json(obj: dict) -> Region:
    """The region of a tiling object: its "lattice" or its "rect" entry."""
    if isinstance(obj, dict) and "lattice" in obj:
        basis = obj["lattice"]
        if not (isinstance(basis, list) and len(basis) == 2
                and all(map(is_coord_pair, basis))):
            raise SolverInputError(f"'lattice' must be two integer pairs, got {basis!r}")
        return Torus(TorusLattice(*basis))
    if isinstance(obj, dict) and "rect" in obj:
        if not is_coord_pair(obj["rect"]):
            raise SolverInputError(f"'rect' must be two integers, got {obj['rect']!r}")
        return Rectangle(*obj["rect"])
    raise SolverInputError("a tiling needs a region: 'lattice' or 'rect'")


Placement = NamedTuple("Placement", [("piece", str), ("at", Vec)])


class Records:
    """Records with the same ``keys`` as one column per key (an int array of
    shape (k,) or (k, 2), or a ``Placements`` for its piece names), for
    ``cli._json_text``."""

    def __init__(self, keys: tuple[str, ...], *columns):
        self.keys, self.columns = keys, columns

    def __len__(self) -> int:
        return len(self.columns[0])


class Placements(Records):
    """Placement records as columns, in file order: piece ``names`` in order
    of first use, a ``piece`` index into them and a read-only int64 ``at``."""

    keys = ("piece", "at")

    def __init__(self, names: Iterable[str], piece, at):
        self.names, self.piece, self.at = tuple(names), np.asarray(piece), cell_array(at)
        self.at.flags.writeable = False

    @classmethod
    def of(cls, placements: Placements | Iterable[Placement]) -> Placements:
        if isinstance(placements, cls):
            return placements
        return cls._of_columns(*(tuple(zip(*placements)) or ((), ())))

    @classmethod
    def _of_columns(cls, pieces: Sequence[str], ats) -> Placements:
        """From a piece name and an (x, y) pair per placement."""
        index = dict(zip(dict.fromkeys(pieces), count()))
        return cls(index, np.fromiter(map(index.__getitem__, pieces), np.intp,
                                      len(pieces)), ats)

    @classmethod
    def from_json(cls, records: list) -> Placements:
        """From ``{"piece": str, "at": [x, y]}`` records, in C-level passes."""
        dicts = set(map(type, records)) <= {dict}
        pieces, ats = ([*map(dict.get, records, repeat(key))] if dicts else [None]
                       for key in ("piece", "at"))
        if not set(map(type, pieces)) <= {str} or (ats := coord_array(ats)) is None:
            for obj in records:  # the first bad record names the fault
                if not (isinstance(obj, dict) and isinstance(obj.get("piece"), str)):
                    raise SolverInputError(f"placement needs a piece name: {obj!r}")
                if not is_coord_pair(at := obj.get("at")):
                    raise SolverInputError(f"placement 'at' must be two integers of "
                                           f"magnitude below 2**31, got {at!r}")
        return cls._of_columns(pieces, ats)

    @property
    def columns(self) -> tuple:
        return self, self.at

    def __len__(self) -> int:
        return len(self.piece)

    def __iter__(self) -> Iterator[Placement]:
        return map(Placement, map(self.names.__getitem__, self.piece.tolist()),
                   map(tuple, self.at.tolist()))


@dataclass(frozen=True, eq=False)
class CoverReport:
    """Exact-cover verdict as int64 columns: uncovered cells ``gaps``, each
    overlap record's ``cell`` and placements ``a``, ``b``, and cells ``outside``
    the region; tuple views derived on first read.  Valid iff all are empty."""

    gaps: np.ndarray
    cell: np.ndarray
    a: np.ndarray
    b: np.ndarray
    outside: np.ndarray

    @property
    def exact(self) -> bool:
        return not (len(self.gaps) or len(self.a) or len(self.outside))

    uncovered = cached_property(lambda self: tuple(zip(*self.gaps.T.tolist())))
    overlaps = cached_property(lambda self: tuple(zip(
        zip(*self.cell.T.tolist()), self.a.tolist(), self.b.tolist())))
    out_of_region = cached_property(lambda self: tuple(zip(*self.outside.T.tolist())))

    def to_json(self) -> dict:
        """The report for ``cli._json_text``, written from the columns."""
        return {"uncovered": self.gaps,
                "overlaps": Records(("cell", "a", "b"), self.cell, self.a, self.b),
                "out_of_region": self.outside}


def piece_map(pieces: Iterable[Polyomino]) -> dict[str, Polyomino]:
    out: dict[str, Polyomino] = {}
    for p in pieces:
        if p.name in out:
            raise SolverInputError(f"duplicate piece name {p.name!r}")
        out[p.name] = p
    return out


def _intervals(row, start, end, wraps, width: int, dtype):
    """Non-empty flat [lo, hi) intervals, of ``dtype``, that cover each cell
    as often as the runs (row, start, end, wraps) from ``region.runs`` do."""
    row, start, end, wraps = row.ravel(), start.ravel(), end.ravel(), wraps.ravel()
    seam = end < start  # [start, row end) and [row start, end), one wrap less
    whole = np.repeat(row, wraps - seam)
    lo = np.concatenate([start, row[seam], whole], dtype=dtype)
    hi = np.concatenate([np.where(seam, row + width, end), end[seam], whole + width],
                        dtype=dtype)
    keep = lo < hi
    return lo[keep], hi[keep]


def check_tiling(region: Region, pieces: Iterable[Polyomino],
                 placements: Placements | Sequence[Placement]) -> CoverReport:
    """Exact-cover check from sorted run endpoints; reports gaps and double covers.

    Each piece's stored row runs are readied once by ``region.prepare``.  A
    batch (whole placements of one piece, at most ``_BATCH_POINTS`` placed
    points, or one placement of a larger piece) places them: ``region.runs``
    gives each run's row and flat [start, end), clipped to a rectangle or
    wrapped round a torus row, one or more flat intervals.  The cover is
    exact iff the sorted starts and ends (int32 for areas below 2**31) chain
    from 0 to the area.  Else a sweep over starts (+1) and ends (-1) gives
    each segment's coverage.  Memory is bounded by the number of runs, not by
    the area or by placements x piece size.  Points are materialised only
    for placements with a run that leaves a rectangle or meets a segment
    covered twice; sorted by cell and owner, they give the overlap records by
    index arithmetic: O(points + records), no Python loop.
    """
    table = piece_map(pieces)
    placements = Placements.of(placements)
    if unknown := [name for name in placements.names if name not in table]:
        raise SolverInputError(f"unknown piece {unknown[0]!r}")

    # A torus moves each offset into its fundamental domain, once.
    at = (np.column_stack(region.lattice.reduce_points(*placements.at.T))
          if isinstance(region, Torus) else placements.at)
    ox, oy = at.T
    # Each piece in file order, its runs as region.runs takes them, its placements.
    shapes = [(piece, region.prepare(*piece.runs), np.flatnonzero(placements.piece == k))
              for k, piece in enumerate(map(table.get, placements.names))]

    def batches():
        """Each batch's placement ids, its piece, and region.runs of the
        piece's runs, one row per placement."""
        for piece, prepared, pids in shapes:
            step = max(1, _BATCH_POINTS // len(piece))
            for lo in range(0, len(pids), step):
                ids = pids[lo:lo + step]
                yield ids, piece, region.runs(prepared, ox[ids], oy[ids])

    def cells_of(ids, piece):
        """x, y and flat cell index of the points the placements ``ids`` place."""
        xs, ys = (at[ids, None] + piece.xy).reshape(-1, 2).T
        return xs, ys, region.index(xs, ys)

    width, area = region.width, region.area
    key = np.int32 if area < 2 ** 31 else np.int64  # interval ends lie in [0, area]
    starts, ends = [np.zeros(0, key)], [np.zeros(0, key)]
    outside: list[Cell] = []
    for ids, piece, (row, start, end, wraps) in batches():
        lo, hi = _intervals(row, start, end, wraps, width, key)
        starts.append(lo)
        ends.append(hi)
        cut = isinstance(region, Rectangle) and (end - start < piece.runs[1]).any(axis=1)
        if np.any(cut):  # a torus never clips a run
            xs, ys, idx = cells_of(ids[cut], piece)
            off = idx < 0
            outside.extend(zip(xs[off].tolist(), ys[off].tolist()))
    outside = cell_array(canonical(outside))
    starts, ends = np.concatenate(starts), np.concatenate(ends)
    starts.sort()
    ends.sort()
    no_cells, no_ids = np.zeros((0, 2), np.int64), np.zeros(0, np.int64)
    if (len(starts) and starts[0] == 0 and ends[-1] == area
            and np.array_equal(starts[1:], ends[:-1])):
        return CoverReport(no_cells, no_cells, no_ids, no_ids, outside)

    # Segment [edges[i], edges[i + 1]) is covered cover[i] times; events at 0
    # and the area bound the first and the last.
    events = np.concatenate([starts, ends, [0, area]])
    order = np.argsort(events, kind="stable")
    edges = events[order]
    cover = np.cumsum(np.repeat([1, -1, 0], [len(starts), len(ends), 2])[order])[:-1]
    cover[edges[:-1] == edges[1:]] = 1  # an empty segment is neither gap nor hot
    seg_lo, size = edges[:-1][cover == 0], np.diff(edges)[cover == 0]
    try:  # list the uncovered cells, segment by segment
        gaps = np.arange(size.sum()) + np.repeat(seg_lo - np.cumsum(size) + size, size)
    except ValueError as exc:  # more bytes than numpy can address
        raise MemoryError(str(exc)) from None
    ys, xs = np.divmod(gaps, width)
    gaps, overlaps = np.column_stack((xs, ys)), (no_cells, no_ids, no_ids)
    if (cover > 1).any():
        # Sorted hot segments (covered twice or more), and the area past them.
        hot_lo, hot_hi = np.append(edges[:-1][cover > 1], area), edges[1:][cover > 1]

        def hot(lo, hi):  # whether [lo, hi), lo < hi, meets a hot segment
            return hot_lo[np.searchsorted(hot_hi, lo, side="right")] < hi

        hot_idx, hot_owner = [], []
        for ids, piece, (row, start, end, wraps) in batches():
            # A run that wraps may touch any cell of its row.
            lo = np.where(wraps > 0, row, start)
            hi = np.where(wraps > 0, row + width, end)
            # An empty run may read as hot: its cells are filtered below.
            ids = ids[hot(lo, hi).any(axis=1)]
            _, _, idx = cells_of(ids, piece)
            keep = hot(idx, idx + 1)  # index -1, outside a rectangle, is not
            hot_idx.append(idx[keep])
            hot_owner.append(np.repeat(ids, len(piece))[keep])
        idx, owner = np.concatenate(hot_idx), np.concatenate(hot_owner)
        order = np.lexsort((owner, idx))
        idx, owner, n = idx[order], owner[order], len(order)
        # Each point pairs with the ``later`` points after it on its cell, in
        # combinations order; a piece wrapped round a small torus can pair with itself.
        first = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
        end = np.repeat(np.append(first[1:], n), np.diff(first, append=n))
        later = end - np.arange(n) - 1
        a = np.repeat(np.arange(n), later)
        b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
        ys, xs = np.divmod(idx[a], width)
        overlaps = np.column_stack((xs, ys)), owner[a], owner[b]
    return CoverReport(gaps, *overlaps, outside)


def contained_placements(container: CellSet,
                         pieces: Sequence[Polyomino]) -> list[Placement]:
    """Every translation of every piece that fits entirely inside container."""
    container = frozenset(container)
    out: list[Placement] = []
    for piece in pieces:
        cells = piece.canonical_cells()
        ax, ay = cells[0]
        out.extend(Placement(piece.name, (cx - ax, cy - ay))
                   for cx, cy in canonical(container)
                   if all((x + cx - ax, y + cy - ay) in container for x, y in cells))
    return out


@dataclass
class PlacementUniverse:
    """Placements inside a region as columns: ``placements`` (a piece index
    and an offset each, in id order), and each one's lowest cell ``lo`` and
    its cells as a ``mask`` shifted down by lo, in ``build_universe``'s
    sweep order."""

    region: Region
    pieces: tuple[Polyomino, ...]
    placements: Placements
    lo: list[int]
    mask: list[int]


def build_universe(region: Region, pieces: Sequence[Polyomino]) -> PlacementUniverse:
    """Anchor each piece's first canonical cell at every region cell in
    row-major turn; keep the placements whose cells are inside and pairwise
    distinct.  Cells are numbered in sweep order, along the shorter side:
    x * height + y in a rectangle wider than tall, else y * width + x.  A
    piece's placements share its first one's mask; one a torus seam bends
    has its own."""
    piece_map(pieces)  # uniqueness check
    if region.area > _REGION_CAP:
        raise RegionLimitError(f"a region of {region.area} cells is over the "
                               f"search limit of {_REGION_CAP} cells")
    grid = np.indices((region.height, region.width))[::-1].reshape(2, -1).T  # (x, y)
    wide = isinstance(region, Rectangle) and region.width > region.height
    index, at, lo, masks = [], [np.empty((0, 2), np.int64)], [], []
    for k, piece in enumerate(pieces):
        off = grid - piece.xy[0]  # its first cell at each cell
        xs, ys = (off[:, None] + piece.xy).transpose(2, 0, 1)
        idx = region.index(xs, ys)
        if wide:
            idx = np.where(idx < 0, -1, xs * region.height + ys)
        ranked = np.sort(idx, axis=1)
        keep = (ranked[:, 0] >= 0) & (np.diff(ranked, axis=1) != 0).all(axis=1)
        ranked, n = ranked[keep], len(masks)
        shape = ranked - ranked[:, :1]
        masks += [sum(1 << c for c in row) for row in shape[:1].tolist()] * len(shape)
        for i in np.flatnonzero((shape != shape[:1]).any(axis=1)).tolist():
            masks[n + i] = sum(1 << c for c in shape[i].tolist())
        index += [k] * len(shape)
        at.append(off[keep])
        lo += ranked[:, 0].tolist()
    return PlacementUniverse(region, tuple(pieces), Placements(
        [p.name for p in pieces], np.array(index, np.intp), np.concatenate(at)), lo, masks)


def _area_reachable(total: int, areas: Sequence[int]) -> bool:
    """Whether total is a nonnegative integer combination of the areas."""
    mask, bits = (1 << (total + 1)) - 1, 1  # bit i: whether i is one
    for area in set(areas) - {0}:
        shift = area
        while shift <= total:
            bits = (bits | bits << shift) & mask
            shift *= 2
    return bits >> total & 1 == 1


def _starts(universe: PlacementUniverse):
    """Per cell lo, the masks and ids (parallel lists) of the placements whose
    lowest cell is lo, in id order."""
    n = universe.region.area
    masks, ids = [[] for _ in range(n)], [[] for _ in range(n)]
    for pid, lo, mask in zip(count(), universe.lo, universe.mask):
        masks[lo].append(mask)
        ids[lo].append(pid)
    return masks, ids


def count_covers(starts: list[list[int]], n_items: int, max_nodes: int | None) -> int:
    """The exact covers, counted by frontier layers.  ``layers[i]`` maps each
    covered-item mask whose first uncovered item is i, shifted down by i, to
    the search paths that reach it; ``starts[i]`` holds the masks, shifted
    down by i, of the options whose lowest item is i.  Each state of layer i
    moves its paths through each start it misses, to the layer of its new
    first uncovered item; only layers ahead are held, ``_MEMO_CAP`` states
    at most.  ``nodes`` adds up the paths moved; past ``max_nodes``, the
    covers completed so far."""
    layers: list[dict[int, int] | None] = [{0: 1}, *({} for _ in range(n_items))]
    budget = inf if max_nodes is None else max_nodes
    nodes, live = 0, 1
    for i in range(n_items):
        layer, layers[i] = layers[i], None
        live -= len(layer)
        for state, paths in layer.items():
            for start in starts[i]:
                if state & start:
                    continue
                mask = state | start
                j = (~mask & (mask + 1)).bit_length() - 1
                nodes += paths
                if nodes > budget:
                    raise SearchLimitError(layers[n_items].get(0, 0))
                nxt, key = layers[i + j], mask >> j
                if key in nxt:
                    nxt[key] += paths
                    continue
                nxt[key] = paths
                live += 1
                if live > _MEMO_CAP:
                    raise RegionLimitError(f"the count needs more than {_MEMO_CAP} live "
                                           "frontier states, over the search limit")
    return layers[n_items].get(0, 0)


def walk_covers(starts: list[list[int]], ids: list[list[int]], n_items: int,
                stop: float, max_nodes: int | None) -> list[list[int]]:
    """The first ``stop`` covers, as option ids, of a depth-first walk of
    ``count_covers``' states on an explicit stack: state (i, mask) takes the
    starts of item i in id order.  A state with no cover below it is stored
    with its subtree's nodes, ``_MEMO_CAP`` states at most, and skipped when
    met again; its nodes count as if searched, so ``nodes`` counts those of
    the unmemoised tree.  Past ``max_nodes``, the covers found so far."""
    budget = inf if max_nodes is None else max_nodes
    dead: dict[tuple[int, int], int] = {}  # (i, mask) -> nodes below it
    solutions: list[list[int]] = []
    chosen: list[int] = []  # the placement that opened each frame
    nodes = 0
    # Frame: cell, mask, next start, and nodes and solutions on entry.
    stack = [[0, 0, 0, 0, 0]]
    while stack and len(solutions) < stop:
        frame = stack[-1]
        i, state, k, nodes_in, found_in = frame
        if k == len(starts[i]):
            stack.pop()
            if len(solutions) == found_in and len(dead) < _MEMO_CAP:
                dead[i, state] = nodes - nodes_in
            if chosen:
                chosen.pop()
            continue
        frame[2] = k + 1
        start = starts[i][k]
        if state & start:
            continue
        mask = state | start
        j = (~mask & (mask + 1)).bit_length() - 1
        below = dead.get((i + j, mask >> j))
        nodes += 1 + (below or 0)  # a dead state's subtree, as if searched
        if nodes > budget:
            raise SearchLimitError(len(solutions))
        if i + j == n_items:
            solutions.append([*chosen, ids[i][k]])
        elif below is None:
            chosen.append(ids[i][k])
            stack.append([i + j, mask >> j, 0, nodes, len(solutions)])
    return solutions


def solve(universe: PlacementUniverse, mode: SolveMode = "first",
          limit: int | None = None, max_nodes: int | None = None):
    """Exhaustive exact-cover search over the placement universe.

    Every mode searches one tree: it branches on the first uncovered cell in
    sweep order (``build_universe``: along a rectangle's shorter side), on
    the placements whose lowest cell it is, in id order.  A state is that
    cell and the covered-cell mask shifted down by it; ``_starts`` groups
    the universe's start masks by cell.  Count mode returns ``count_covers``'
    sweep of the states by frontier layers, at most ``limit``.  First and
    enumerate return ``walk_covers``' depth-first tilings in the tree's order,
    the first ``limit`` of them, as the only ``Placement`` records made,
    each sorted by piece, then y, then x.  In every mode ``max_nodes``
    bounds the nodes below the root of that tree, unmemoised, and raises
    SearchLimitError past it.
    """
    if mode not in ("first", "count", "enumerate"):
        raise SolverInputError(f"unknown mode {mode!r}")
    if limit is not None and limit < 0:
        raise SolverInputError("limit must be nonnegative")
    if max_nodes is not None and max_nodes < 0:
        raise SolverInputError("max_nodes must be nonnegative")
    n_cells = universe.region.area
    reachable = _area_reachable(n_cells, [len(p) for p in universe.pieces])
    if mode == "count":
        total = (count_covers(_starts(universe)[0], n_cells, max_nodes)
                 if reachable and limit != 0 else 0)
        return total if limit is None else min(total, limit)
    if not reachable:
        return None if mode == "first" else []

    stop = 1 if mode == "first" else inf if limit is None else limit
    solutions = walk_covers(*_starts(universe), n_cells, stop, max_nodes)
    pl = universe.placements
    tilings = [sorted(Placements(pl.names, pl.piece[sol], pl.at[sol]),
                      key=lambda p: (p.piece, p.at[1], p.at[0])) for sol in solutions]
    return tilings if mode == "enumerate" else tilings[0] if tilings else None
