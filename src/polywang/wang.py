"""Wang tile sets, edge-matching validation, and brute-force torus search."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .solver import SolveMode


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


def _torus_solutions(tileset: WangTileSet, p: int, q: int) -> Iterator[tuple[int, ...]]:
    """DFS over cells in row-major order, tile indices ascending.

    The search runs on ``cells`` itself: ``cells[idx]`` holds the tile being
    tried at the deepest cell, and the cells after it hold -1.
    """
    n = tileset.n
    tiles = tileset.tiles
    try:  # refused before any allocation when too long, or past any index
        cells = [-1] * (p * q)
    except (MemoryError, OverflowError):
        raise MemoryError(f"a {p}x{q} torus is too large to hold") from None

    def fits(idx: int) -> bool:
        # West and south neighbours are placed; so is the wrapped east or
        # north neighbour on the last column or row, unless it is the cell
        # itself, whose candidate is then compared with itself.
        b, a = divmod(idx, p)
        t = tiles[cells[idx]]
        return ((a == 0 or tiles[cells[idx - 1]].east == t.west)
                and (a < p - 1 or t.east == tiles[cells[b * p]].west)
                and (b == 0 or tiles[cells[idx - p]].north == t.south)
                and (b < q - 1 or t.north == tiles[cells[a]].south))

    idx = 0
    while idx >= 0:
        cells[idx] += 1
        while cells[idx] < n and not fits(idx):
            cells[idx] += 1
        if cells[idx] == n:  # no tile left here: back up one cell
            cells[idx] = -1
            idx -= 1
        elif idx + 1 == p * q:
            yield tuple(cells)
        else:
            idx += 1


def solve_torus(tileset: WangTileSet, p: int, q: int,
                mode: SolveMode = "first"):
    """Valid p x q torus tilings: the first one, all of them, or their count."""
    if p < 1 or q < 1:
        raise WangInputError("dimensions must be positive")
    sols = _torus_solutions(tileset, p, q)
    if mode == "first":
        for cells in sols:
            return WangTiling(p, q, True, cells)
        return None
    if mode == "count":
        return sum(1 for _ in sols)
    if mode == "enumerate":
        return [WangTiling(p, q, True, cells) for cells in sols]
    raise ValueError(f"unknown mode {mode!r}")


def find_periodic(tileset: WangTileSet, max_cells: int):
    """First solvable torus scanning sizes by p*q ascending, then by p.

    Returns (p, q, tiling) or None if no torus up to max_cells cells works.
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

