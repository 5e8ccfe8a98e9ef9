import json
import random

import pytest

from conftest import random_tileset
from polywang import cli, geometry
from polywang.blocks import BlockKind
from polywang.compiler import (
    BlockGrid,
    CompileError,
    PIECE_NAMES,
    SevenPieceSet,
    assemble,
    compile_pieces,
    encode_color,
    encoder_block_at,
    encoder_width,
)
from polywang.geometry import GeometryError, Polyomino, is_connected
from polywang.wang import WangTile, WangTileSet

L, R = BlockKind.SLOT_LEFT, BlockKind.SLOT_RIGHT


def test_encode_color():
    assert encode_color(0, 2) == (L, L)
    assert encode_color(1, 2) == (L, R)
    assert encode_color(2, 2) == (R, L)
    assert encode_color(3, 2) == (R, R)
    with pytest.raises(CompileError):
        encode_color(4, 2)


def test_encoder_block_examples(three_tile_set):
    ts = three_tile_set
    assert encoder_width(ts) == 30
    # tile 1 west = green = 01: first bit is l
    assert encoder_block_at(ts, 0, 2) == L
    # tile 1 east = yellow = 10: first bit is r, in the first right segment
    assert encoder_block_at(ts, 18, 0) == R
    assert encoder_block_at(ts, 13, 0) == BlockKind.Y_MINUS
    assert encoder_block_at(ts, 14, 0) == BlockKind.FUNCTIONAL
    assert encoder_block_at(ts, 0, 1) == BlockKind.A_DENT
    assert encoder_block_at(ts, 29, 1) == BlockKind.B_BUMP
    assert encoder_block_at(ts, 15, 1) == BlockKind.FUNCTIONAL
    with pytest.raises(CompileError):
        encoder_block_at(ts, 30, 0)
    with pytest.raises(CompileError):
        encoder_block_at(ts, 0, 3)


def test_structural_segment_slot_free(three_tile_set):
    ts = three_tile_set
    n, t = ts.n, ts.t
    for row in (0, 2):
        for col in range(2 * n * t, 2 * n * (t + 1)):
            assert encoder_block_at(ts, col, row) not in (L, R)
        # every encoding segment carries exactly n slot blocks per outer row
        for seg in range(2 * t + 1):
            if seg == t:
                continue
            kinds = [encoder_block_at(ts, 2 * n * seg + c, row)
                     for c in range(2 * n)]
            assert sum(k in (L, R) for k in kinds) == n


def test_assemble_single_functional():
    grid = BlockGrid()
    grid.place(0, 0, BlockKind.FUNCTIONAL)
    piece = assemble(grid, "f")
    assert len(piece) == 100


def test_assemble_bump_dent_pair():
    grid = BlockGrid()
    grid.place(0, 0, BlockKind.Y_PLUS)
    grid.place(0, 1, BlockKind.Y_PLUS_DENT)
    piece = Polyomino(assemble(grid, "pair"), "pair")
    assert piece.cells == frozenset((x, y) for x in range(10) for y in range(20))


def test_assemble_rejects_mismatch():
    grid = BlockGrid()
    grid.place(0, 0, BlockKind.Y_PLUS)
    grid.place(0, 1, BlockKind.Y_MINUS_DENT)
    with pytest.raises(CompileError):
        assemble(grid, "bad")


def test_assemble_rejects_overlap():
    grid = BlockGrid()
    grid.place(0, 0, BlockKind.X_BUMP)
    grid.place(1, 0, BlockKind.FUNCTIONAL)
    with pytest.raises(CompileError):
        assemble(grid, "bad")


def test_assemble_rejects_disconnected_grid():
    # Two blocks with a gap between them, and a slot block on its own.
    apart = BlockGrid()
    apart.place(0, 0, BlockKind.FUNCTIONAL)
    apart.place(2, 0, BlockKind.FUNCTIONAL)
    slot = BlockGrid()
    slot.place(0, 0, L)
    for grid in (apart, slot):
        with pytest.raises(GeometryError, match="not edge-connected"):
            Polyomino(assemble(grid, "bad"), "bad")


def test_assemble_rejects_unfilled_dent():
    grid = BlockGrid()
    grid.place(0, 0, BlockKind.FUNCTIONAL)
    grid.place(1, 0, BlockKind.X_DENT)
    with pytest.raises(CompileError):
        assemble(grid, "bad")


def test_compile_three_tile_counts(three_tile_pieces):
    assert tuple(p.name for p in three_tile_pieces.pieces) == PIECE_NAMES
    assert three_tile_pieces.cell_counts == (8872, 1776, 1776, 620, 620, 4096, 18)
    for piece in three_tile_pieces.pieces:
        assert is_connected(piece.cells)


def test_compile_joins_small_pieces_in_connectivity_passes(three_tile_set, monkeypatch):
    passes, rows = [], geometry._connected_rows
    monkeypatch.setattr(geometry, "_connected_rows",
                        lambda *xys: passes.append([*map(len, xys)]) or rows(*xys))
    compile_pieces(three_tile_set)
    # The seven pieces share one pass.
    assert passes == [[8872, 1776, 1776, 620, 620, 4096, 18]]


def test_minimal_set_encoder_width():
    ts = WangTileSet((WangTile(0, 0, 0, 0), WangTile(1, 1, 1, 1)), ("a", "b"))
    assert encoder_width(ts) == 12
    pieces = compile_pieces(ts)
    assert len(pieces.pieces) == 7


def _synthetic(rng, n, t):
    m = 1 << t  # full color range for the given bit width
    return random_tileset(rng, n, m)


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("t", (1, 2, 3))
def test_area_identity(n, t):
    rng = random.Random(1000 * n + t)
    ts = _synthetic(rng, n, t)
    assert ts.t == t
    counts = dict(zip(PIECE_NAMES, compile_pieces(ts).cell_counts))
    assert counts["encoder"] == 4 + 1168 * n * t + 620 * n
    assert counts["l_linker"] == counts["r_linker"] == 580 * n + 36
    assert counts["a_filler"] == counts["b_filler"] == 620
    assert counts["connector"] == 1160 * n + 616
    assert counts["t_filler"] == 18
    total = (counts["encoder"] + counts["connector"] + (n - 1) * 620
             + 2 * t * (580 * n + 36) + 4 * t * (n - 1) * 18)
    assert total == 2400 * n * (t + 1)


def test_encoder_row_census(three_tile_pieces):
    ts = three_tile_pieces.source
    n, t = ts.n, ts.t
    w = 2 * n * (2 * t + 1)
    encoder = three_tile_pieces["encoder"]
    rows = {0: 0, 1: 0, 2: 0}
    for x, y in encoder.cells:
        rows[min(max(y // 10, 0), 2)] += 1
    assert rows[1] == 87 + 117 + 100 * (w - 2)
    outer = 110 * n * (2 * t + 1) + 82 * 2 * n * t + 100 * n
    assert rows[0] == rows[2] == outer


def test_tile_swap_preserves_counts(three_tile_set, three_tile_pieces):
    swapped = WangTileSet(
        (three_tile_set.tiles[1], three_tile_set.tiles[0], three_tile_set.tiles[2]),
        three_tile_set.colors,
    )
    assert compile_pieces(swapped).cell_counts == three_tile_pieces.cell_counts


def test_rejects_degenerate_sets():
    with pytest.raises(CompileError):
        compile_pieces(WangTileSet((WangTile(0, 0, 0, 0),), ("a", "b")))
    with pytest.raises(CompileError):
        compile_pieces(WangTileSet(
            (WangTile(0, 0, 0, 0), WangTile(0, 0, 0, 0)), ("a",)))


def test_piece_set_json_round_trip(three_tile_pieces):
    text = cli._json_text(three_tile_pieces.to_json())
    obj = json.loads(text)
    back = SevenPieceSet(tuple(map(Polyomino.from_json, obj["pieces"])),
                         WangTileSet.from_json(obj["source"]))
    assert back.cell_counts == three_tile_pieces.cell_counts
    assert all(a.cells == b.cells
               for a, b in zip(back.pieces, three_tile_pieces.pieces))
    assert cli._json_text(back.to_json()) == text
