"""Build the seven polyominoes from a Wang tile set.

The pieces are assembled on a block grid: each grid cell holds one building
block, scaled by 10 units.  Tab blocks additionally carry a unit anchor
offset inside their grid cell (left slots at x=1, right slots at x=6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blocks
from .blocks import BLOCK, CANONICAL_OFFSETS, BlockKind, geometry, partner
from .geometry import Polyomino, Vec, polyominoes
from .wang import WangTileSet

PIECE_NAMES = ("encoder", "l_linker", "r_linker", "a_filler", "b_filler",
               "connector", "t_filler")

# The linker whose two tabs fill slots of each kind.
LINKER_PIECE = {BlockKind.SLOT_LEFT: "l_linker", BlockKind.SLOT_RIGHT: "r_linker"}


class CompileError(ValueError):
    """Unsupported input or inconsistent block assembly."""


def encode_color(index: int, t: int) -> tuple[BlockKind, ...]:
    """Big-endian t-bit code of a color index as slot kinds (0=l, 1=r)."""
    if not 0 <= index < (1 << t):
        raise CompileError(f"color index {index} needs more than {t} bits")
    return tuple(
        BlockKind.SLOT_RIGHT if (index >> (t - 1 - j)) & 1 else BlockKind.SLOT_LEFT
        for j in range(t)
    )


def encoder_width(tileset: WangTileSet) -> int:
    return 2 * tileset.n * (2 * tileset.t + 1)


def encoder_block_at(tileset: WangTileSet, col: int, row: int) -> BlockKind:
    """Block kind at a column/row of the encoder's block grid.

    The encoder interlaces all n tiles: in each encoding segment, tile i
    (1-based) owns the even column 2(i-1).  Left segments carry the west
    (top row) and south (bottom row) color bits, right segments the north
    and east bits; segment j of a side carries bit j+1 of the color code.
    """
    n, t = tileset.n, tileset.t
    width = encoder_width(tileset)
    if not (0 <= col < width and 0 <= row < 3):
        raise CompileError(f"encoder position ({col}, {row}) out of range")
    if row == 1:
        if col == 0:
            return BlockKind.A_DENT
        if col == width - 1:
            return BlockKind.B_BUMP
        return BlockKind.FUNCTIONAL
    if col % 2 == 1:
        return BlockKind.Y_PLUS if row == 2 else BlockKind.Y_MINUS
    seg, rem = divmod(col, 2 * n)
    if seg == t:
        return BlockKind.FUNCTIONAL
    tile = tileset.tiles[rem // 2]
    if seg < t:
        color = tile.west if row == 2 else tile.south
        bit_pos = seg + 1
    else:
        color = tile.north if row == 2 else tile.east
        bit_pos = seg - t
    return encode_color(color, t)[bit_pos - 1]


@dataclass
class BlockGrid:
    """Sparse block-coordinate grid; values are (kind, unit anchor)."""

    entries: dict[tuple[int, int], tuple[BlockKind, Vec]] = field(default_factory=dict)

    def place(self, col: int, row: int, kind: BlockKind, anchor: Vec = (0, 0)):
        if (col, row) in self.entries:
            raise CompileError(f"block cell ({col}, {row}) already occupied")
        self.entries[(col, row)] = (kind, anchor)


def assemble(grid: BlockGrid, name: str) -> np.ndarray:
    """Realize a block grid as the (x, y) rows of a unit-cell polyomino's
    cells, for ``Polyomino`` to check for connectivity.

    Cells may only coincide where a bump exactly fills a neighboring dent;
    a dent that faces an occupied neighbor must end up filled.  Both are
    checked on the sorted row-major keys of all the blocks' cells.
    """
    occupied = grid.entries
    cells, dents, dent_blocks = [], [], []
    for (col, row), (kind, anchor) in occupied.items():
        geo = geometry(kind)
        shift = (BLOCK * col + anchor[0], BLOCK * row + anchor[1])
        block, dent = geo.arrays
        cells.append(block + shift)
        if geo.bump_dir is not None:
            nb = (col + geo.bump_dir[0], row + geo.bump_dir[1])
            if nb in occupied and occupied[nb][0] != partner(kind):
                raise CompileError(f"{name}: bump at {(col, row)} hits {nb}")
        if geo.dent_dir is not None \
                and (col + geo.dent_dir[0], row + geo.dent_dir[1]) in occupied:
            dents.append(dent + shift)
            dent_blocks += [(col, row)] * len(dent)
    xy = np.concatenate(cells + dents)
    key = xy[:, 1] * (int(np.ptp(xy[:, 0])) + 1) + xy[:, 0]  # distinct per cell
    n = len(xy) - len(dent_blocks)
    taken = np.sort(key[:n])
    twice = taken[1:][taken[1:] == taken[:-1]]
    if len(twice):
        clash = set(map(tuple, xy[:n][np.isin(key[:n], twice)].tolist()))
        raise CompileError(f"{name}: overlap at {sorted(clash)[:3]}")
    hollow = np.flatnonzero(~np.isin(key[n:], taken))
    if len(hollow):
        raise CompileError(f"{name}: unfilled dent at {dent_blocks[hollow[0]]}")
    return xy[:n]


def _encoder_grid(tileset: WangTileSet) -> BlockGrid:
    grid = BlockGrid()
    for row in range(3):
        for col in range(encoder_width(tileset)):
            grid.place(col, row, encoder_block_at(tileset, col, row))
    return grid


def _linker_grid(tileset: WangTileSet, anchor: Vec) -> BlockGrid:
    grid = _linker_body(tileset)
    grid.place(0, -1, BlockKind.TAB, anchor)
    grid.place(0, 3, BlockKind.TAB, anchor)
    return grid


def _linker_body(tileset: WangTileSet, row0: int = 0,
                 grid: BlockGrid | None = None) -> BlockGrid:
    grid = BlockGrid() if grid is None else grid
    width = 2 * tileset.n
    mid = {0: BlockKind.X_DENT, width - 1: BlockKind.X_BUMP}
    for col in range(width):
        grid.place(col, row0,
                   BlockKind.Y_PLUS_DENT if col % 2 else BlockKind.FUNCTIONAL)
        grid.place(col, row0 + 2,
                   BlockKind.Y_MINUS_DENT if col % 2 else BlockKind.FUNCTIONAL)
        grid.place(col, row0 + 1, mid.get(col, BlockKind.FUNCTIONAL))
    return grid


def _filler_grid(dent: BlockKind, bump: BlockKind, row0: int = 0,
                 grid: BlockGrid | None = None) -> BlockGrid:
    grid = BlockGrid() if grid is None else grid
    grid.place(0, row0, BlockKind.FUNCTIONAL)
    grid.place(0, row0 + 1, dent)
    grid.place(0, row0 + 2, BlockKind.FUNCTIONAL)
    grid.place(1, row0, BlockKind.Y_MINUS)
    grid.place(1, row0 + 1, bump)
    grid.place(1, row0 + 2, BlockKind.Y_PLUS)
    return grid


def _connector_grid(tileset: WangTileSet) -> BlockGrid:
    grid = _linker_body(tileset)
    # Mixed filler (b dent west, A bump east) between the two bodies,
    # left-aligned; its Y bumps cancel the bodies' dents at column 1.
    _filler_grid(BlockKind.B_DENT, BlockKind.A_BUMP, 3, grid)
    _linker_body(tileset, 6, grid)
    return grid


@dataclass(frozen=True)
class SevenPieceSet:
    """The compiled pieces, in canonical order, plus their source set."""

    pieces: tuple[Polyomino, ...]
    source: WangTileSet

    def __post_init__(self):
        assert tuple(p.name for p in self.pieces) == PIECE_NAMES

    def __getitem__(self, name: str) -> Polyomino:
        for p in self.pieces:
            if p.name == name:
                return p
        raise KeyError(name)

    @property
    def cell_counts(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.pieces)

    def to_json(self) -> dict:
        """The piece file for ``cli._json_text``: cells stay arrays."""
        return {
            "source": self.source.to_json(),
            "n": self.source.n,
            "m": self.source.m,
            "t": self.source.t,
            "pieces": [p.to_json() for p in self.pieces],
        }


def require_supported(tileset: WangTileSet) -> None:
    """Reject a Wang set the construction does not cover."""
    if tileset.n < 2 or tileset.m < 2:
        raise CompileError("need at least 2 tiles and 2 colors")


def compile_pieces(tileset: WangTileSet) -> SevenPieceSet:
    """Compile a Wang tile set into its seven polyominoes."""
    require_supported(tileset)
    cells = (
        assemble(_encoder_grid(tileset), "encoder"),
        *(assemble(_linker_grid(tileset, CANONICAL_OFFSETS[slot]), name)
          for slot, name in LINKER_PIECE.items()),
        assemble(_filler_grid(BlockKind.A_DENT, BlockKind.A_BUMP), "a_filler"),
        assemble(_filler_grid(BlockKind.B_DENT, BlockKind.B_BUMP), "b_filler"),
        assemble(_connector_grid(tileset), "connector"),
        blocks.TAB_CELLS,
    )
    return SevenPieceSet(polyominoes([*zip(cells, PIECE_NAMES)]), tileset)
