"""Translational exact-cover tiling engine and linear tiling checker.

``solve`` runs a deterministic exact-cover search (fewest-candidates cell
selection) and is meant for small regions; ``check_tiling`` verifies a given
placement list in time linear in the covered area and is the workhorse for
simulator output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from . import _kernels
from .geometry import Cell, CellSet, Polyomino, TorusLattice, Vec, canonical

SolveMode = Literal["first", "count", "enumerate"]

# Placement coordinates stay below this magnitude so that adding piece cells
# cannot overflow the int64 arithmetic of check_tiling.
COORD_BOUND = 2 ** 31


class SolverInputError(ValueError):
    pass


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


@dataclass(frozen=True)
class Torus:
    lattice: TorusLattice

    @property
    def area(self) -> int:
        return self.lattice.num_cells


Region = Rectangle | Torus


@dataclass(frozen=True)
class Placement:
    piece: str
    at: Vec

    def to_json(self) -> dict:
        return {"piece": self.piece, "at": list(self.at)}

    @classmethod
    def from_json(cls, obj: dict) -> "Placement":
        if not (isinstance(obj, dict) and isinstance(obj.get("piece"), str)):
            raise SolverInputError(f"placement needs a piece name: {obj!r}")
        at = obj.get("at")
        if not (isinstance(at, list) and len(at) == 2
                and all(type(v) is int and abs(v) < COORD_BOUND for v in at)):
            raise SolverInputError(
                f"placement 'at' must be two integers of magnitude below "
                f"2**31, got {at!r}")
        return cls(obj["piece"], tuple(at))


@dataclass(frozen=True)
class CoverReport:
    """Exact-cover verdict: a tiling is valid iff every field is empty."""

    uncovered: tuple[Cell, ...]
    overlaps: tuple[tuple[Cell, int, int], ...]
    out_of_region: tuple[Cell, ...] = ()

    @property
    def exact(self) -> bool:
        return not (self.uncovered or self.overlaps or self.out_of_region)

    def to_json(self) -> dict:
        return {
            "uncovered": [list(c) for c in self.uncovered],
            "overlaps": [
                {"cell": list(c), "a": i, "b": j} for c, i, j in self.overlaps
            ],
            "out_of_region": [list(c) for c in self.out_of_region],
        }


def _piece_map(pieces: Iterable[Polyomino]) -> dict[str, Polyomino]:
    out: dict[str, Polyomino] = {}
    for p in pieces:
        if p.name in out:
            raise SolverInputError(f"duplicate piece name {p.name!r}")
        out[p.name] = p
    return out


def _piece_arrays(piece: Polyomino) -> tuple[np.ndarray, np.ndarray]:
    cells = piece.canonical_cells()
    arr = np.asarray(cells, dtype=np.int64)
    return arr[:, 0].copy(), arr[:, 1].copy()


def check_tiling(region: Region, pieces: Iterable[Polyomino],
                 placements: Sequence[Placement]) -> CoverReport:
    """Coverage multiplicity per region cell; reports gaps and double covers."""
    table = _piece_map(pieces)
    for pl in placements:
        if pl.piece not in table:
            raise SolverInputError(f"unknown piece {pl.piece!r}")
    if isinstance(region, Torus):
        a, b, c = region.lattice.hnf
    else:
        a, b, c = region.width, region.height, 0

    sizes = []
    xs_parts, ys_parts = [], []
    for pl in placements:
        px, py = _piece_arrays(table[pl.piece])
        xs_parts.append(px + pl.at[0])
        ys_parts.append(py + pl.at[1])
        sizes.append(px.shape[0])
    if placements:
        xs = np.concatenate(xs_parts)
        ys = np.concatenate(ys_parts)
    else:
        xs = ys = np.zeros(0, dtype=np.int64)

    out_of_region: tuple[Cell, ...] = ()
    if isinstance(region, Torus):
        counts = _kernels.coverage_counts(xs, ys, a, b, c)
        xr, yr = _kernels.reduce_points(xs, ys, a, b, c)
    else:
        inside = (xs >= 0) & (xs < a) & (ys >= 0) & (ys < b)
        out_of_region = canonical(zip(xs[~inside].tolist(), ys[~inside].tolist()))
        xr, yr = xs, ys
        idx_in = yr[inside] * a + xr[inside]
        counts = np.bincount(idx_in, minlength=a * b)
        # keep per-placement reduced coords aligned for the overlap pass
        xr = np.where(inside, xr, -1)

    holes = np.flatnonzero(counts == 0)
    uncovered = canonical(((int(i) % a, int(i) // a) for i in holes))

    overlaps: list[tuple[Cell, int, int]] = []
    if np.any(counts > 1):
        hot = set(np.flatnonzero(counts > 1).tolist())
        covered_by: dict[int, list[int]] = {h: [] for h in hot}
        pos = 0
        for pi, size in enumerate(sizes):
            seg_x = xr[pos:pos + size]
            seg_y = yr[pos:pos + size]
            pos += size
            idx = seg_y * a + seg_x
            for v in idx.tolist():
                if v in covered_by:
                    covered_by[v].append(pi)
        for v in sorted(covered_by):
            cell = (v % a, v // a)
            owners = covered_by[v]
            for i in range(len(owners)):
                for j in range(i + 1, len(owners)):
                    overlaps.append((cell, owners[i], owners[j]))
    return CoverReport(uncovered, tuple(overlaps), out_of_region)


def contained_placements(container: CellSet,
                         pieces: Sequence[Polyomino]) -> list[Placement]:
    """Every translation of every piece that fits entirely inside container."""
    container = frozenset(container)
    out: list[Placement] = []
    for piece in pieces:
        cells = piece.canonical_cells()
        anchor = cells[0]
        offsets = set()
        for cx, cy in container:
            v = (cx - anchor[0], cy - anchor[1])
            if all((x + v[0], y + v[1]) in container for x, y in cells):
                offsets.add(v)
        out.extend(Placement(piece.name, v)
                   for v in sorted(offsets, key=lambda o: (o[1], o[0])))
    return out


@dataclass
class PlacementUniverse:
    """Materialized placements of the pieces inside a region.

    Internal placements index region cells linearly; ``candidates[cell]``
    lists the placements covering that cell.
    """

    region: Region
    pieces: tuple[Polyomino, ...]
    placements: list[Placement] = field(default_factory=list)
    _cover: list[tuple[int, ...]] = field(default_factory=list)
    _candidates: list[list[int]] = field(default_factory=list)

    @property
    def num_cells(self) -> int:
        return self.region.area


def build_universe(region: Region, pieces: Sequence[Polyomino]) -> PlacementUniverse:
    _piece_map(pieces)  # uniqueness check
    uni = PlacementUniverse(region, tuple(pieces))
    if isinstance(region, Rectangle):
        a, b = region.width, region.height
        def all_offsets(piece: Polyomino):
            xs = [c[0] for c in piece.cells]
            ys = [c[1] for c in piece.cells]
            for oy in range(-min(ys), b - max(ys)):
                for ox in range(-min(xs), a - max(xs)):
                    yield (ox, oy)
        def reduce_cell(x, y):
            return (x, y)
    else:
        lat = region.lattice
        a, b, _ = lat.hnf
        def all_offsets(piece: Polyomino):
            anchor = piece.canonical_cells()[0]
            for ry in range(b):
                for rx in range(a):
                    yield (rx - anchor[0], ry - anchor[1])
        def reduce_cell(x, y):
            return lat.reduce((x, y))

    seen: set[tuple[int, int]] = set()
    for piece in uni.pieces:
        for off in all_offsets(piece):
            idxs = []
            for x, y in piece.canonical_cells():
                cx, cy = reduce_cell(x + off[0], y + off[1])
                idxs.append(cy * a + cx)
            key = tuple(sorted(idxs))
            if len(set(key)) != len(key):
                continue  # piece self-overlaps on a tiny torus
            uni.placements.append(Placement(piece.name, off))
            uni._cover.append(tuple(idxs))
    uni._candidates = [[] for _ in range(region.area)]
    for pid, cover in enumerate(uni._cover):
        for idx in cover:
            uni._candidates[idx].append(pid)
    return uni


def _area_reachable(total: int, areas: Sequence[int]) -> bool:
    """Whether total is a nonnegative integer combination of the areas."""
    mask = (1 << (total + 1)) - 1
    bits = 1
    for area in sorted(set(areas)):
        if area == 0 or area > total:
            continue
        shift = area
        while True:
            nxt = (bits | (bits << shift)) & mask
            if nxt == bits:
                break
            bits = nxt
            shift *= 2
        if (bits >> total) & 1:
            return True
    return (bits >> total) & 1 == 1


def solve(universe: PlacementUniverse, mode: SolveMode = "first",
          limit: int | None = None, max_nodes: int | None = None):
    """Exhaustive exact-cover search over the placement universe.

    Deterministic: the uncovered cell with fewest live candidates is chosen
    (ties by lowest linear index) and candidates branch in canonical order.
    ``limit`` keeps the first solutions in that order; ``max_nodes`` bounds
    the search nodes below the root and raises SearchLimitError past it.
    """
    if limit is not None and limit < 0:
        raise SolverInputError("limit must be nonnegative")
    n_cells = universe.num_cells
    cover = universe._cover
    candidates = universe._candidates
    areas = [len(p.cells) for p in universe.pieces]
    if not _area_reachable(n_cells, areas):
        if mode == "count":
            return 0
        return None if mode == "first" else []

    covered = bytearray(n_cells)
    nodes = 0
    found = 0

    def live(pid: int) -> bool:
        return all(not covered[i] for i in cover[pid])

    def pick() -> list[int]:
        """Live candidates of the uncovered cell with the fewest of them."""
        best: list[int] | None = None
        for idx in range(n_cells):
            if covered[idx]:
                continue
            cands = [pid for pid in candidates[idx] if live(pid)]
            if best is None or len(cands) < len(best):
                best = cands
                if len(cands) <= 1:
                    break
        return best

    def mark(pid: int, value: int):
        for i in cover[pid]:
            covered[i] = value

    def branches(remaining: int) -> Iterator[tuple[int, ...]]:
        for pid in pick():
            mark(pid, 1)
            for rest in search(remaining - len(cover[pid])):
                yield (pid,) + rest
            mark(pid, 0)

    def search(remaining: int) -> Iterator[tuple[int, ...]]:
        nonlocal nodes, found
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise SearchLimitError(found)
        if remaining == 0:
            found += 1
            yield ()
        else:
            yield from branches(remaining)

    # The root pick is not a search node; every branch below it is.
    solutions = islice(branches(n_cells), 1 if mode == "first" else limit)
    if mode == "count":
        return sum(1 for _ in solutions)
    tilings = [
        sorted((universe.placements[pid] for pid in sol),
               key=lambda pl: (pl.piece, pl.at[1], pl.at[0]))
        for sol in solutions
    ]
    if mode == "first":
        return tilings[0] if tilings else None
    return tilings
