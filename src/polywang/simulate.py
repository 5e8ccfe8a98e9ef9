"""Translate a periodic Wang tiling into placements of the seven pieces.

Wang cells are mapped to diamond coordinates (u, v) = (a, b - a); connectors
then sit on a rigid lattice with horizontal period P = 2n(2t+2) block
columns, and every Wang cell contributes one connector, one encoder, n-1
bigger fillers, 2t linkers, and 4t(n-1) tiny fillers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import BLOCK, BlockKind
from .compiler import (
    PIECE_NAMES,
    TAB_ANCHOR_LEFT,
    TAB_ANCHOR_RIGHT,
    encode_color,
    encoder_block_at,
    encoder_width,
    require_supported,
)
from .geometry import TorusLattice, Vec
from .solver import Placement, Torus
from .wang import WangInputError, WangTileSet, WangTiling, validate

PIECE_ORDER = {name: i for i, name in enumerate(PIECE_NAMES)}


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
    placements: tuple[Placement, ...]

    def to_json(self) -> dict:
        return {**Torus(self.lattice).to_json(),
                "placements": [pl.to_json() for pl in self.placements]}


_LINKER_NAME = {BlockKind.SLOT_LEFT: "l_linker", BlockKind.SLOT_RIGHT: "r_linker"}


def _cell_placements(tileset: WangTileSet, tiling: WangTiling,
                     a: int, b: int) -> list[Placement]:
    """All placements attributed to Wang cell (a, b), in block units x 10."""
    n, t = tileset.n, tileset.t
    pat = PatternLattice(n, t)
    P = pat.period
    i = tiling.at(a, b) + 1  # 1-based tile index
    tile = tileset.tiles[i - 1]
    u, v = wang_cell_to_diamond(a, b)
    kx, ky = pat.connector_origin(u, v)

    def at_block(name: str, col: int, row: int, unit: Vec = (0, 0)) -> Placement:
        return Placement(name, (BLOCK * col + unit[0], BLOCK * row + unit[1]))

    out = [at_block("connector", kx, ky)]
    k = n - i  # configuration index: number of A-fillers west of the encoder
    for j in range(k):
        out.append(at_block("a_filler", kx + 2 + 2 * j, 6 * v))
    ex = kx + 2 + 2 * k
    out.append(at_block("encoder", ex, 6 * v))
    for j in range(n - 1 - k):
        out.append(at_block("b_filler", ex + encoder_width(tileset) + 2 * j, 6 * v))

    # Gap row above: one linker per color bit, typed by the bit's slot kind.
    west, north = encode_color(tile.west, t), encode_color(tile.north, t)
    for j in range(t):
        out.append(at_block(_LINKER_NAME[west[j]], kx + 2 * n * (j + 1), 6 * v + 3))
        out.append(at_block(_LINKER_NAME[north[j]],
                            kx + P // 2 + 2 * n * (j + 1), 6 * v + 3))

    # Tiny fillers in every slot column that is not one of tile i's own.
    for row in (0, 2):
        for col in range(0, encoder_width(tileset), 2):
            if col % (2 * n) == 2 * (i - 1):
                continue
            kind = encoder_block_at(tileset, col, row)
            if kind == BlockKind.SLOT_LEFT:
                out.append(at_block("t_filler", ex + col, 6 * v + row,
                                    TAB_ANCHOR_LEFT))
            elif kind == BlockKind.SLOT_RIGHT:
                out.append(at_block("t_filler", ex + col, 6 * v + row,
                                    TAB_ANCHOR_RIGHT))
    return out


def emit_placements(tileset: WangTileSet, tiling: WangTiling) -> SimulatedTiling:
    """Forward-translate a valid Wang torus tiling into piece placements."""
    require_supported(tileset)
    if not tiling.torus:
        raise WangInputError("simulation requires a torus tiling")
    if validate(tileset, tiling):
        raise WangInputError("input Wang tiling has violations")
    pat = PatternLattice(tileset.n, tileset.t)
    lat = pat.torus_lattice(tiling.p, tiling.q)
    placements = []
    for bb in range(tiling.q):
        for aa in range(tiling.p):
            for pl in _cell_placements(tileset, tiling, aa, bb):
                placements.append(Placement(pl.piece, lat.reduce(pl.at)))
    placements.sort(key=lambda pl: (PIECE_ORDER[pl.piece], pl.at[1], pl.at[0]))
    return SimulatedTiling(lat, tuple(placements))


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
