"""Wang tile sets, edge-matching validation, and torus search by exact cover."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .solver import (_REGION_CAP, RegionLimitError, SolveMode, count_covers,
                     walk_covers)


class WangInputError(ValueError):
    """Malformed tile set or tiling input."""


@dataclass(frozen=True)
class WangTile:
    """Edge colors as indices into the set's color table."""

    north: int
    east: int
    south: int
    west: int

    def edges(self) -> tuple[int, int, int, int]:
        return (self.north, self.east, self.south, self.west)


@dataclass(frozen=True)
class WangTileSet:
    tiles: tuple[WangTile, ...]
    colors: tuple[str, ...]

    def __post_init__(self):
        if not self.tiles:
            raise WangInputError("empty tile set")
        m = len(self.colors)
        for tile in self.tiles:
            for c in tile.edges():
                if not 0 <= c < m:
                    raise WangInputError(f"color index {c} out of range")

    @property
    def n(self) -> int:
        return len(self.tiles)

    @property
    def m(self) -> int:
        return len(self.colors)

    @property
    def t(self) -> int:
        """Bits per color code, floored at one."""
        return max(1, (self.m - 1).bit_length())

    @classmethod
    def from_labels(cls, tiles, colors: list[str] | None = None) -> "WangTileSet":
        """Build from (n, e, s, w) label tuples.

        Color indices follow the optional explicit ``colors`` order, else
        first appearance in the tile list.
        """
        table: dict[str, int] = {}
        if colors is not None:
            for label in colors:
                if label in table:
                    raise WangInputError(f"duplicate color {label!r}")
                table[label] = len(table)
        out = []
        for edges in tiles:
            idx = []
            for label in edges:
                if label not in table:
                    if colors is not None:
                        raise WangInputError(f"color {label!r} not in color table")
                    table[label] = len(table)
                idx.append(table[label])
            out.append(WangTile(*idx))
        return cls(tuple(out), tuple(table))

    @classmethod
    def from_json(cls, obj: dict) -> "WangTileSet":
        try:
            tiles = [(t["n"], t["e"], t["s"], t["w"]) for t in obj["tiles"]]
        except (KeyError, TypeError) as exc:
            raise WangInputError(f"bad tile set object: {exc}") from exc
        colors = obj.get("colors")
        if colors is not None and not isinstance(colors, list):
            raise WangInputError("'colors' must be a list of labels")
        labels = [label for edges in tiles for label in edges] + (colors or [])
        if not all(isinstance(label, str) for label in labels):
            raise WangInputError("colors and edge labels must be strings")
        return cls.from_labels(tiles, colors)

    def to_json(self) -> dict:
        return {
            "colors": list(self.colors),
            "tiles": [
                {"n": self.colors[t.north], "e": self.colors[t.east],
                 "s": self.colors[t.south], "w": self.colors[t.west]}
                for t in self.tiles
            ],
        }


@dataclass(frozen=True)
class WangTiling:
    """Tile assignment on a p x q rectangle or torus, row-major in b."""

    p: int
    q: int
    torus: bool
    cells: tuple[int, ...]

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise WangInputError("dimensions must be positive")
        if len(self.cells) != self.p * self.q:
            raise WangInputError("assignment must be total on the region")

    def at(self, a: int, b: int) -> int:
        return self.cells[b * self.p + a]

    @classmethod
    def from_json(cls, obj: dict) -> "WangTiling":
        if not isinstance(obj, dict):
            raise WangInputError("a Wang tiling must be a JSON object")
        p, q, cells = obj.get("p"), obj.get("q"), obj.get("cells")
        if not (type(p) is int and type(q) is int):
            raise WangInputError(f"'p' and 'q' must be integers, got {p!r}, {q!r}")
        if not (isinstance(cells, list) and all(type(c) is int for c in cells)):
            raise WangInputError("'cells' must be a list of integer tile indices")
        if type(obj.get("torus", False)) is not bool:
            raise WangInputError(f"'torus' must be true or false, got {obj['torus']!r}")
        return cls(p, q, obj.get("torus", False), tuple(cells))

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q, "torus": self.torus,
                "cells": list(self.cells)}


def validate(tileset: WangTileSet, tiling: WangTiling) -> list[tuple]:
    """All violated adjacency constraints, empty for a valid tiling.

    Each violation is ("h"|"v", a, b) naming the edge east/north of (a, b).
    """
    n = tileset.n
    for idx in tiling.cells:
        if not 0 <= idx < n:
            raise WangInputError(f"tile index {idx} out of range")
    out = []
    for b in range(tiling.q):
        for a in range(tiling.p):
            here = tileset.tiles[tiling.at(a, b)]
            if a + 1 < tiling.p or tiling.torus:
                east = tileset.tiles[tiling.at((a + 1) % tiling.p, b)]
                if here.east != east.west:
                    out.append(("h", a, b))
            if b + 1 < tiling.q or tiling.torus:
                north = tileset.tiles[tiling.at(a, (b + 1) % tiling.q)]
                if here.north != north.south:
                    out.append(("v", a, b))
    return out


def solve_torus(tileset: WangTileSet, p: int, q: int,
                mode: SolveMode = "first"):
    """Valid p x q torus tilings: the first one, all of them, or their count.

    Edge matching as an exact cover (Knuth 2000) for ``count_covers`` and
    ``walk_covers``.  Row b's items: each cell's own, its east edge's m
    colours, then each cell's m north-edge colours.  A tile covers its cell,
    each colour but its own of its east and north edges, and its west and
    south colours of its neighbours' edges: an edge is covered once iff its
    two colours agree.  The tree places cells row-major, tiles ascending.
    """
    if p < 1 or q < 1:
        raise WangInputError("dimensions must be positive")
    if mode not in ("first", "count", "enumerate"):
        raise WangInputError(f"unknown mode {mode!r}")
    m = tileset.m
    w, full = 1 + m, (1 << m) - 1  # w items a cell: its own, its east edge's
    row = p * (w + m)  # then the row's north edges, m items each
    if (items := q * row) > _REGION_CAP:
        raise RegionLimitError(f"a {p}x{q} torus needs {items} exact-cover "
                               f"items, over the search limit of {_REGION_CAP}")
    starts, ids = [[] for _ in range(items)], [[] for _ in range(items)]
    for b in range(q):
        for a in range(p):
            cell, north = b * row + a * w, b * row + p * w + a * m
            west = b * row + (a - 1) % p * w + 1
            south = (b - 1) % q * row + p * w + a * m
            for k, t in enumerate(tileset.tiles):
                mask = (1 << cell | (full ^ 1 << t.east) << cell + 1
                        | (full ^ 1 << t.north) << north
                        | 1 << west + t.west | 1 << south + t.south)
                if mask.bit_count() == 2 * m + 1:  # else it meets itself
                    lo = (mask & -mask).bit_length() - 1
                    starts[lo].append(mask >> lo)
                    ids[lo].append(k)
    if mode == "count":
        return count_covers(starts, items, None)
    tilings = [WangTiling(p, q, True, tuple(cells)) for cells in
               walk_covers(starts, ids, items, 1 if mode == "first" else inf, None)]
    return tilings if mode == "enumerate" else tilings[0] if tilings else None


def find_periodic(tileset: WangTileSet, max_cells: int):
    """First solvable torus scanning sizes by p*q ascending, then by p.

    Returns (p, q, tiling) or None if no torus up to max_cells cells works;
    raises RegionLimitError at a torus over the search limit.
    """
    if max_cells < 1:
        raise WangInputError("max_cells must be positive")
    for area in range(1, max_cells + 1):
        for p in range(1, area + 1):
            if area % p:
                continue
            tiling = solve_torus(tileset, p, area // p, "first")
            if tiling is not None:
                return p, area // p, tiling
    return None

