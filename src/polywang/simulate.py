"""Translate a periodic Wang tiling into placements of the seven pieces.

Wang cells are mapped to diamond coordinates (u, v) = (a, b - a); connectors
then sit on a rigid lattice with horizontal period P = 2n(2t+2) block
columns, and every Wang cell contributes one connector, one encoder, n-1
bigger fillers, 2t linkers, and 4t(n-1) tiny fillers.  Where these sit
relative to the cell's connector depends on its tile alone, so each tile's
placements are laid out once and moved to every cell that holds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BLOCK, CANONICAL_OFFSETS
from .compiler import (
    LINKER_PIECE,
    PIECE_NAMES,
    encode_color,
    encoder_block_at,
    encoder_width,
    require_supported,
)
from .geometry import TorusLattice, Vec
from .solver import Placements, Torus
from .wang import WangInputError, WangTileSet, WangTiling, validate


def wang_cell_to_diamond(a: int, b: int) -> tuple[int, int]:
    """Square cell to diamond cell: north becomes up-right, west up-left."""
    return (a, b - a)


@dataclass(frozen=True)
class PatternLattice:
    """Connector lattice of the tiling pattern, in block units."""

    n: int
    t: int

    @property
    def period(self) -> int:
        """Horizontal connector period P in block columns."""
        return 2 * self.n * (2 * self.t + 2)

    @property
    def step_right(self) -> Vec:
        return (self.period // 2, -6)

    @property
    def step_up(self) -> Vec:
        return (self.period // 2, 6)

    def connector_origin(self, u: int, v: int) -> Vec:
        """Block position of connector K(u, v) (its lower-left corner)."""
        return (self.period * u + (self.period // 2) * v, 6 * v - 3)

    def torus_lattice(self, p: int, q: int) -> TorusLattice:
        """Unit-cell quotient lattice for a p x q Wang torus."""
        sr, su = self.step_right, self.step_up
        return TorusLattice(
            (BLOCK * p * sr[0], BLOCK * p * sr[1]),
            (BLOCK * q * su[0], BLOCK * q * su[1]),
        )


@dataclass(frozen=True)
class SimulatedTiling:
    lattice: TorusLattice
    placements: Placements

    def to_json(self) -> dict:
        """The tiling file for ``cli._json_text``: placements stay columns."""
        return {**Torus(self.lattice).to_json(), "placements": self.placements}


def _tile_templates(tileset: WangTileSet) -> np.ndarray:
    """Each tile's placements, equally many per tile, as (PIECE_NAMES index,
    dx, dy) in units from the connector origin of a Wang cell holding it."""
    n, t = tileset.n, tileset.t
    width = encoder_width(tileset)
    half = PatternLattice(n, t).period // 2
    # Slot blocks of the encoder's top and bottom rows: (col, row, kind).
    slots = [(col, row, kind) for row in (0, 2) for col in range(0, width, 2)
             if (kind := encoder_block_at(tileset, col, row)) in LINKER_PIECE]

    def at(piece: str, col: int, row: int, unit: Vec = (0, 0)):
        return (PIECE_NAMES.index(piece), BLOCK * col + unit[0], BLOCK * row + unit[1])

    templates = []
    for i, tile in enumerate(tileset.tiles):
        k = n - 1 - i  # configuration index: number of A-fillers west of the encoder
        ex = 2 + 2 * k
        out = [at("connector", 0, 0)]
        out += [at("a_filler", 2 + 2 * j, 3) for j in range(k)]
        out.append(at("encoder", ex, 3))
        out += [at("b_filler", ex + width + 2 * j, 3) for j in range(i)]
        # Gap row above: one linker per color bit, typed by the bit's slot kind.
        west, north = encode_color(tile.west, t), encode_color(tile.north, t)
        for j in range(t):
            out.append(at(LINKER_PIECE[west[j]], 2 * n * (j + 1), 6))
            out.append(at(LINKER_PIECE[north[j]], half + 2 * n * (j + 1), 6))
        # Tiny fillers in every slot column that is not one of tile i's own.
        out += [at("t_filler", ex + col, 3 + row, CANONICAL_OFFSETS[kind])
                for col, row, kind in slots if col % (2 * n) != 2 * i]
        templates.append(out)
    return np.array(templates)


def emit_placements(tileset: WangTileSet, tiling: WangTiling) -> SimulatedTiling:
    """Forward-translate a valid Wang torus tiling into piece placements."""
    require_supported(tileset)
    if not tiling.torus:
        raise WangInputError("simulation requires a torus tiling")
    if validate(tileset, tiling):
        raise WangInputError("input Wang tiling has violations")
    pat = PatternLattice(tileset.n, tileset.t)
    lat = pat.torus_lattice(tiling.p, tiling.q)
    b, a = np.indices((tiling.q, tiling.p)).reshape(2, -1)
    kx, ky = np.multiply(BLOCK, pat.connector_origin(*wang_cell_to_diamond(a, b)))
    # Each Wang cell's tile template: (piece, dx, dy) rows from its connector.
    piece, dx, dy = _tile_templates(tileset)[list(tiling.cells)].T
    x, y = lat.reduce_points((dx + kx).ravel(), (dy + ky).ravel())
    order = np.lexsort((x, y, piece.ravel()))
    used, piece = np.unique(piece.ravel()[order], return_inverse=True)
    return SimulatedTiling(lat, Placements([PIECE_NAMES[i] for i in used], piece,
                                           np.column_stack((x, y))[order]))


def expected_placements_per_cell(n: int, t: int) -> int:
    return 2 + (n - 1) + 2 * t + 4 * t * (n - 1)


def linker_alignment_check(tileset: WangTileSet,
                           tiling: WangTiling) -> list[dict]:
    """Verify every emitted linker's tabs land in matching slot blocks.

    Both tab ends must hit slot blocks of the encoders below and above, and
    all three slot kinds (linker type, lower slot, upper slot) must agree.
    Returns one record per mismatch; empty for a valid Wang tiling.  The
    input tiling may be invalid (that is the point of the check).
    """
    if not tiling.torus:
        raise WangInputError("alignment check requires a torus tiling")
    n, t = tileset.n, tileset.t
    p, q = tiling.p, tiling.q
    mismatches = []
    for b in range(q):
        for a in range(p):
            i = tiling.at(a, b) + 1
            tile = tileset.tiles[i - 1]
            for j in range(t):
                # North-west linker: W bits of (a, b) against E bits of the
                # encoder up-left, i.e. Wang cell (a-1, b).
                i_w = tiling.at((a - 1) % p, b) + 1
                below = encoder_block_at(tileset, 2 * n * j + 2 * (i - 1), 2)
                above = encoder_block_at(
                    tileset, 2 * n * (t + 1 + j) + 2 * (i_w - 1), 0)
                linker = encode_color(tile.west, t)[j]
                if not (below == above == linker):
                    mismatches.append(_mismatch("nw", a, b, j, linker, below, above))
                # North-east linker: N bits of (a, b) against S bits of the
                # encoder above, i.e. Wang cell (a, b+1).
                i_n = tiling.at(a, (b + 1) % q) + 1
                below = encoder_block_at(
                    tileset, 2 * n * (t + 1 + j) + 2 * (i - 1), 2)
                above = encoder_block_at(tileset, 2 * n * j + 2 * (i_n - 1), 0)
                linker = encode_color(tile.north, t)[j]
                if not (below == above == linker):
                    mismatches.append(_mismatch("ne", a, b, j, linker, below, above))
    return mismatches


def _mismatch(side: str, a: int, b: int, bit: int, linker, below, above) -> dict:
    return {"side": side, "cell": [a, b], "bit": bit,
            "linker": linker.value, "below": below.value, "above": above.value}
