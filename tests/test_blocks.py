import pytest

from polywang.blocks import (
    BLOCK,
    BUMP_KINDS,
    CANONICAL_OFFSETS,
    DENT_KINDS,
    SLOT_KINDS,
    SQUARE,
    TAB_CELLS,
    BlockKind,
    block_cells,
    complement_check,
    geometry,
    partner,
)
from polywang.geometry import is_connected, translate

CARDINALITIES = {
    BlockKind.FUNCTIONAL: 100,
    BlockKind.SLOT_LEFT: 82,
    BlockKind.SLOT_RIGHT: 82,
    BlockKind.TAB: 18,
    BlockKind.Y_PLUS: 110,
    BlockKind.Y_MINUS: 110,
    BlockKind.Y_PLUS_DENT: 90,
    BlockKind.Y_MINUS_DENT: 90,
    BlockKind.X_BUMP: 109,
    BlockKind.X_DENT: 91,
    BlockKind.A_BUMP: 113,
    BlockKind.A_DENT: 87,
    BlockKind.B_BUMP: 117,
    BlockKind.B_DENT: 83,
}


def test_cardinality_table():
    for kind, count in CARDINALITIES.items():
        assert len(block_cells(kind)) == count, kind


def test_functional_square_cells():
    assert block_cells(BlockKind.FUNCTIONAL) == SQUARE
    assert SQUARE == frozenset((x, y) for x in range(10) for y in range(10))


def test_slot_left_is_square_minus_slot():
    assert block_cells(BlockKind.SLOT_LEFT) == SQUARE - translate(TAB_CELLS, (1, 0))


def test_b_bump_protrusion_size():
    assert len(geometry(BlockKind.B_BUMP).protrusion) == 17


def test_connectivity():
    # Slots are the only disconnected blocks (bridged by neighbors in use).
    for kind in BlockKind:
        expected = kind not in SLOT_KINDS
        assert is_connected(block_cells(kind)) == expected, kind


def test_partner_table():
    assert partner(BlockKind.Y_PLUS) == BlockKind.Y_PLUS_DENT
    assert partner(BlockKind.A_BUMP) == BlockKind.A_DENT
    assert partner(BlockKind.SLOT_RIGHT) == BlockKind.TAB
    for bump, dent in zip(BUMP_KINDS, DENT_KINDS):
        assert partner(bump) == dent and partner(dent) == bump
    with pytest.raises(ValueError):
        partner(BlockKind.FUNCTIONAL)


def test_matched_pairs_complement():
    for bump in BUMP_KINDS:
        assert complement_check(bump, partner(bump), CANONICAL_OFFSETS[bump]), bump
    for slot in SLOT_KINDS:
        assert complement_check(slot, BlockKind.TAB, CANONICAL_OFFSETS[slot]), slot


def test_slot_tab_union_is_square():
    u = block_cells(BlockKind.SLOT_LEFT) | translate(TAB_CELLS, (1, 0))
    assert u == SQUARE


def test_mismatched_pairs_fail_at_all_adjacent_offsets():
    adjacent = ((BLOCK, 0), (-BLOCK, 0), (0, BLOCK), (0, -BLOCK))
    checked = 0
    for bump in BUMP_KINDS:
        for dent in DENT_KINDS:
            if dent == partner(bump):
                continue
            checked += 1
            for off in adjacent:
                assert not complement_check(bump, dent, off), (bump, dent, off)
    assert checked == 20


def _normalized(cells):
    xs = min(x for x, _ in cells)
    ys = min(y for _, y in cells)
    return frozenset((x - xs, y - ys) for x, y in cells)


def test_bump_shapes_pairwise_distinct():
    shapes = [_normalized(geometry(k).protrusion)
              for k in (BlockKind.X_BUMP, BlockKind.A_BUMP, BlockKind.B_BUMP)]
    assert len(set(shapes)) == 3


def test_tab_vertical_mirror_symmetry():
    mirrored = frozenset((x, 9 - y) for x, y in TAB_CELLS)
    assert mirrored == TAB_CELLS


def test_right_slot_is_left_slot_shifted():
    assert geometry(BlockKind.SLOT_RIGHT).dent == \
        translate(geometry(BlockKind.SLOT_LEFT).dent, (5, 0))


def test_block_frames():
    for kind in BlockKind:
        geo = geometry(kind)
        if kind == BlockKind.TAB:
            continue
        assert geo.base <= SQUARE, kind
        assert not (geo.protrusion & SQUARE), kind
        if geo.dent:
            assert geo.base | geo.dent == SQUARE, kind


# (len(base), len(protrusion), len(dent), dent_dir, bump_dir) and partner of
# every kind, as the hand-written catalogue gave them.
_CATALOG_PINS = {
    BlockKind.FUNCTIONAL: ((100, 0, 0, None, None), None),
    BlockKind.SLOT_LEFT: ((82, 0, 18, None, None), BlockKind.TAB),
    BlockKind.SLOT_RIGHT: ((82, 0, 18, None, None), BlockKind.TAB),
    BlockKind.TAB: ((18, 0, 0, None, None), None),
    BlockKind.Y_PLUS: ((100, 10, 0, None, (0, 1)), BlockKind.Y_PLUS_DENT),
    BlockKind.Y_PLUS_DENT: ((90, 0, 10, (0, -1), None), BlockKind.Y_PLUS),
    BlockKind.Y_MINUS: ((100, 10, 0, None, (0, -1)), BlockKind.Y_MINUS_DENT),
    BlockKind.Y_MINUS_DENT: ((90, 0, 10, (0, 1), None), BlockKind.Y_MINUS),
    BlockKind.X_BUMP: ((100, 9, 0, None, (1, 0)), BlockKind.X_DENT),
    BlockKind.X_DENT: ((91, 0, 9, (-1, 0), None), BlockKind.X_BUMP),
    BlockKind.A_BUMP: ((100, 13, 0, None, (1, 0)), BlockKind.A_DENT),
    BlockKind.A_DENT: ((87, 0, 13, (-1, 0), None), BlockKind.A_BUMP),
    BlockKind.B_BUMP: ((100, 17, 0, None, (1, 0)), BlockKind.B_DENT),
    BlockKind.B_DENT: ((83, 0, 17, (-1, 0), None), BlockKind.B_BUMP),
}


def test_catalogue_pinned():
    assert set(_CATALOG_PINS) == set(BlockKind)
    for kind, (shape, other) in _CATALOG_PINS.items():
        geo = geometry(kind)
        assert (len(geo.base), len(geo.protrusion), len(geo.dent),
                geo.dent_dir, geo.bump_dir) == shape, kind
        if other is None:
            with pytest.raises(ValueError):
                partner(kind)
        else:
            assert partner(kind) == other, kind
    assert CANONICAL_OFFSETS == {
        BlockKind.Y_PLUS: (0, 10), BlockKind.Y_MINUS: (0, -10),
        BlockKind.X_BUMP: (10, 0), BlockKind.A_BUMP: (10, 0),
        BlockKind.B_BUMP: (10, 0),
        BlockKind.SLOT_LEFT: (1, 0), BlockKind.SLOT_RIGHT: (6, 0),
    }
    assert BUMP_KINDS == (BlockKind.Y_PLUS, BlockKind.Y_MINUS, BlockKind.X_BUMP,
                          BlockKind.A_BUMP, BlockKind.B_BUMP)
    assert DENT_KINDS == tuple(map(partner, BUMP_KINDS))
    assert SLOT_KINDS == (BlockKind.SLOT_LEFT, BlockKind.SLOT_RIGHT)
