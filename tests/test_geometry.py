import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polywang import geometry
from polywang.geometry import (
    COORD_BOUND,
    GeometryError,
    Polyomino,
    TorusLattice,
    _connected_rows,
    bounding_box,
    canonical,
    cell_array,
    is_connected,
    is_coord_pair,
    polyominoes,
    rasterize,
    row_runs,
    translate,
)

L_SLOT_OUTLINE = ((1, 0), (1, 10), (2, 10), (2, 9), (4, 9), (4, 6), (3, 6),
                  (3, 8), (2, 8), (2, 2), (3, 2), (3, 4), (4, 4), (4, 1),
                  (2, 1), (2, 0))
L_SLOT_CELLS = frozenset(
    [(1, y) for y in range(10)]
    + [(2, 1), (3, 1), (3, 2), (3, 3), (3, 6), (3, 7), (2, 8), (3, 8)]
)


def _shoelace_area(outline) -> int:
    """The area a closed outline encloses, by the shoelace formula."""
    twice = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                in zip(outline, outline[1:] + outline[:1]))
    assert twice % 2 == 0
    return abs(twice) // 2


def test_rasterize_unit_square():
    assert rasterize(((0, 0), (1, 0), (1, 1), (0, 1))) == {(0, 0)}


def test_rasterize_slot_polygon_exact_cells():
    assert rasterize(L_SLOT_OUTLINE) == L_SLOT_CELLS
    assert len(L_SLOT_CELLS) == 18 == _shoelace_area(L_SLOT_OUTLINE)


def test_rasterize_upper_bump_polygon():
    outline = ((4, 10), (4, 13), (2, 13), (2, 12), (3, 12), (3, 11), (1, 11),
               (1, 14), (5, 14), (5, 10))
    assert len(rasterize(outline)) == 10 == _shoelace_area(outline)


def test_polygon_rejects_non_simple():
    # A figure eight: its two loops wind opposite ways, 3 cells, area 1.
    with pytest.raises(GeometryError, match="shoelace area"):
        rasterize(((0, 0), (2, 0), (2, 2), (1, 2), (1, -1), (0, -1)))


def test_polygon_rejects_diagonal_edge():
    with pytest.raises(GeometryError, match="not axis-parallel"):
        rasterize(((0, 0), (1, 1), (1, 0), (0, 0)))


def test_translate_trivial():
    assert translate({(0, 0)}, (0, 0)) == {(0, 0)}
    assert translate({(0, 0)}, (5, 0)) == {(5, 0)}


def test_translate_slot_left_gives_slot_right():
    right = tuple((x + 5, y) for x, y in L_SLOT_OUTLINE)
    assert translate(L_SLOT_CELLS, (5, 0)) == rasterize(right)


def test_is_connected():
    assert is_connected({(0, 0), (1, 0)})
    assert not is_connected({(0, 0), (1, 1)})  # diagonal does not count
    assert not is_connected(set())
    assert is_connected(L_SLOT_CELLS)  # 18-cell tab shape
    far = COORD_BOUND - 1
    assert is_connected([(far - 1, -far), (far, -far), (far, -far)])
    assert not is_connected([(far, 0), (-far, 0)])
    assert not is_connected([(0, far), (0, -far)])
    # Flat row-major indices of these two cells wrap int64 into a cell and
    # the one above it.
    assert not is_connected([(0, 0), (2, -0x5555555555555557)])


def _bfs_connected(cells) -> bool:
    """Oracle: a flood fill over shared edges from one cell reaches all."""
    cells = set(cells)
    if not cells:
        return False
    start = next(iter(cells))
    seen, stack = {start}, [start]
    while stack:
        x, y = stack.pop()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


_STEPS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


@st.composite
def walked_cells(draw):
    """A walk of edge and diagonal steps from a start that may be negative,
    with some cells cut out again: holes, diagonal-only contact, or none."""
    x, y = draw(st.tuples(st.integers(-30, 30), st.integers(-30, 30)))
    cells = [(x, y)]
    for dx, dy in draw(st.lists(st.sampled_from(_STEPS), max_size=40)):
        x, y = x + dx, y + dy
        cells.append((x, y))
    cut = draw(st.sets(st.sampled_from(cells), max_size=4))
    return [c for c in cells if c not in cut]


def _line(x0, y0, flags, vertical):
    return [(x0, y0 + i) if vertical else (x0 + i, y0)
            for i, on in enumerate(flags) if on]


@st.composite
def holed_rectangles(draw):
    x0, y0 = draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    holes = draw(st.sets(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))))
    return [(x0 + i, y0 + j) for i in range(w) for j in range(h)
            if (i, j) not in holes]


_CELL_SETS = (walked_cells() | holed_rectangles()
              | st.builds(_line, st.integers(-9, 9), st.integers(-9, 9),
                          st.lists(st.booleans(), max_size=12), st.booleans())
              | st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3))))


@given(_CELL_SETS)
@settings(max_examples=500)
def test_is_connected_matches_flood_fill(cells):
    assert is_connected(cells) == _bfs_connected(cells)
    assert is_connected(frozenset(cells)) == _bfs_connected(cells)


def _serpentine(lows):
    """Columns x = 0, 2, 4, ... up to one top row at least 8 rows above each
    bottom, joined at alternating ends: at the top after an even column, and
    at height lows[j] below columns 2j - 1 and 2j; column 0 ends at lows[0]."""
    top = max(lows) + 7
    bottoms = [lows[0]] + [low for low in lows[1:] for _ in (0, 1)]
    cells = set()
    for i, low in enumerate(bottoms):
        cells |= {(2 * i, y) for y in range(low, top + 1)}
        if i + 1 < len(bottoms):
            cells.add((2 * i + 1, top if i % 2 == 0 else bottoms[i + 1]))
    return cells


def _interleaved_combs(lows):
    """Two combs that share no edge.  One hangs a tooth down to 2 + lows[j]
    at x = 4j from a spine on its top row, whose segments are bridged by
    arches; the other stands its teeth at x = 4j + 2 on a spine along row 0."""
    top = max(lows) + 5
    cells = {(x, 0) for x in range(1, 4 * len(lows))}
    for j, low in enumerate(lows):
        x = 4 * j
        cells |= {(x, y) for y in range(2 + low, top)}
        cells |= {(x - 1, top), (x, top), (x + 1, top)}
        cells |= {(x + 2, y) for y in range(1, top - 1)}
        if j + 1 < len(lows):
            cells |= {(x + 1, top + 1), (x + 1, top + 2), (x + 2, top + 2),
                      (x + 3, top + 2), (x + 3, top + 1)}
    return cells


# Row-major run labels rise along a serpentine of stacked rows, so one round
# of hooking joins it.  These go up and down: with the turns at ruler heights
# below, the serpentine and the combs each take 4 rounds, as the n = 9, t = 2
# encoder does.
_RULER = [0, 3, 2, 3, 1, 3, 2, 3]


@given(st.lists(st.integers(0, 6), min_size=1, max_size=9))
@example(_RULER)
@settings(max_examples=100)
def test_connectivity_over_many_hook_rounds(lows):
    cells = _serpentine(lows)
    assert _bfs_connected(cells) and is_connected(cells)
    assert Polyomino(cells, "serpentine").canonical_cells() == canonical(cells)
    combs = _interleaved_combs(lows)
    assert not _bfs_connected(combs) and not is_connected(combs)
    with pytest.raises(GeometryError, match="not edge-connected"):
        Polyomino(combs, "combs")


# Far enough apart that a flat row-major index of the span between them
# wraps int64 (test_is_connected); and the ends of int64.
_FAR = 0x5555555555555557
_EXTREME = st.sampled_from([0, 1, -1, COORD_BOUND - 1, -COORD_BOUND + 1, _FAR, -_FAR,
                            -2 ** 63, -2 ** 63 + 1, 2 ** 63 - 2, 2 ** 63 - 1])
_SHIFT = st.integers(-COORD_BOUND + 1, COORD_BOUND - 1)
# Cell lists with repeats, disconnected ones, empty ones, pieces far apart
# and spans up to the coordinate bound and past int64.
_PIECE_CELLS = st.one_of(
    st.builds(lambda cells, dx, dy: [(x + dx, y + dy) for x, y in cells],
              _CELL_SETS, _SHIFT, _SHIFT),
    st.lists(st.tuples(_EXTREME, _EXTREME), max_size=3),
    st.lists(st.tuples(_SHIFT, _SHIFT), min_size=1, max_size=2))


@given(st.lists(_PIECE_CELLS, min_size=1, max_size=8))
# A piece whose span is at least its cell count is dropped before any key is
# formed: the far piece's keys would overflow and widen the shared rows.
@example([[(0, 0), (1, 0)], [(0, 0), (_FAR, 0)]])
@example([[(0, 0), (1, 0), (0, 0)], [(0, 0), (1, 0)], [(0, 0), (1, 0), (0, 0)]])
@example([[(0, 0), (0, 1)], [(5, -2 ** 63), (5, -2 ** 63 + 1)], [(2 ** 63 - 1, 2 ** 63 - 1)]])
@settings(max_examples=300)
def test_joint_pass_matches_one_piece_at_a_time(pieces):
    # The pass itself: each piece's part, connected or not, is its own alone
    # (Polyomino would mend a piece found disconnected by checking it again).
    xys = list(map(cell_array, pieces))
    for rows, xy, cells in zip(_connected_rows(*xys), xys, pieces):
        assert (rows is not None) == _bfs_connected(cells)
        assert rows is None or all(map(np.array_equal, rows, _connected_rows(xy)[0]))
    named = [(cells, f"p{i}") for i, cells in enumerate(pieces)]
    alone = []
    for cells, name in named:
        try:
            alone.append(Polyomino(cells, name))
        except GeometryError as exc:
            alone.append(str(exc))
            break
    try:
        joint = polyominoes(named)
    except GeometryError as exc:  # the same first bad piece, the same message
        assert str(exc) == alone[-1]
        return
    assert len(joint) == len(alone) == len(pieces)
    for one, both, cells in zip(alone, joint, pieces):
        assert both.name == one.name and _bfs_connected(cells)
        assert np.array_equal(both.xy, one.xy)
        assert both.canonical_cells() == canonical(cells)
        assert all(map(np.array_equal, both.runs, one.runs))
        assert all(map(np.array_equal, both.runs, row_runs(cells)))
        assert not (both.xy.flags.writeable or any(a.flags.writeable for a in both.runs))



@pytest.mark.parametrize("sizes, passes", [
    ([], []),
    ([4094, 2, 1], [[4094, 2, 1]]),
    ([4094, 3, 4093], [[4094, 3, 4093]]),
    ([1, 4097, 1], [[1, 4097, 1]]),
])
def test_one_connectivity_pass_per_piece_list(monkeypatch, sizes, passes):
    seen, rows = [], geometry._connected_rows
    monkeypatch.setattr(geometry, "_connected_rows",
                        lambda *xys: seen.append([*map(len, xys)]) or rows(*xys))
    named = [([(x, 0) for x in range(k)], f"p{i}") for i, k in enumerate(sizes)]
    assert [len(p) for p in polyominoes(named)] == sizes
    assert seen == passes


_JSON_CELLS = st.lists(
    st.lists(st.sampled_from([0, 1, -1, COORD_BOUND - 1, COORD_BOUND,
                              -COORD_BOUND + 1, -COORD_BOUND, 2 ** 70,
                              2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 64, True,
                              False, 0.0, 1.5, "0", None]), max_size=3)
    | st.integers(-1, 1) | st.just({"x": 0}) | st.just("ab"),
    max_size=4)


@given(_JSON_CELLS)
@settings(max_examples=300)
def test_piece_entry_accepts_exactly_coord_pairs(cells):
    try:
        Polyomino.from_json({"name": "p", "cells": cells})
        accepted = True
    except GeometryError as exc:
        # Cells that pass may still be empty or disconnected.
        accepted = "integer pairs" not in str(exc)
    assert accepted == all(map(is_coord_pair, cells))


def test_reduce_mod_square_lattice():
    lat = TorusLattice((10, 0), (0, 10))
    assert lat.reduce((0, 0)) == (0, 0)
    assert lat.reduce((13, 2)) == (3, 2)


def test_skew_lattice_representative_count():
    lat = TorusLattice((180, -60), (180, 60))
    assert lat.num_cells == 21600
    reps = set(lat.representatives())
    assert len(reps) == 21600
    assert {lat.reduce(r) for r in reps} == reps


def test_degenerate_lattice_rejected():
    with pytest.raises(GeometryError):
        TorusLattice((2, 4), (1, 2))


def test_canonical_order():
    assert canonical([(1, 0), (0, 1), (0, 0)]) == ((0, 0), (1, 0), (0, 1))


@given(st.sets(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1))
def test_polyomino_to_json_lists_cells_in_canonical_order(cells):
    # A spine at x = -6 with a tooth reaching each drawn cell.
    piece = Polyomino(frozenset({(-6, y) for y in range(-5, 6)}
                                | {(i, y) for x, y in cells for i in range(-6, x + 1)}),
                      "comb")
    entry = piece.to_json()
    cells = entry["cells"].tolist()
    assert entry["name"] == "comb" and cells == [list(c) for c in canonical(piece.cells)]
    assert cells == sorted(cells, key=lambda c: (c[1], c[0]))


def test_bounding_box():
    assert bounding_box([(0, 0), (2, 3)]) == (0, 0, 3, 4)


def _python_box(cells):
    xs, ys = [x for x, _ in cells], [y for _, y in cells]
    return min(xs), min(ys), max(xs) + 1, max(ys) + 1


_EDGE = 2 ** 31 - 1
_BOX_COORDS = st.integers(-40, 40) | st.sampled_from([-_EDGE, _EDGE])


# Lists, int64 arrays, reversed and strided views and Fortran-order copies
# all give Python's min and max, as Python ints.
@given(st.lists(st.tuples(_BOX_COORDS, _BOX_COORDS), min_size=1, max_size=30))
@example([(-_EDGE, _EDGE), (_EDGE, -_EDGE)])
@example([(-3, -7)])
def test_bounding_box_matches_python_min_max(cells):
    xy = np.array(cells, dtype=np.int64)
    for given_cells, expected in ((cells, _python_box(cells)),
                                  (xy, _python_box(cells)),
                                  (np.asfortranarray(xy), _python_box(cells)),
                                  (xy[::-1], _python_box(cells)),
                                  (xy[::2], _python_box(cells[::2])),
                                  (np.asfortranarray(xy[::2]), _python_box(cells[::2]))):
        box = bounding_box(given_cells)
        assert box == expected and all(type(v) is int for v in box)


# A piece's cells do not depend on the memory order of the array given.
@given(_CELL_SETS, st.sampled_from([0, 100 - _EDGE, _EDGE - 100]))
@settings(max_examples=200)
def test_polyomino_cells_ignore_memory_order(cells, shift):
    xy = np.array(list(cells), dtype=np.int64).reshape(-1, 2) + shift
    if not is_connected(cells):
        for given_xy in (xy, np.asfortranarray(xy)):
            with pytest.raises(GeometryError):
                Polyomino(given_xy, "p")
        return
    piece = Polyomino(xy, "p")
    assert np.array_equal(Polyomino(np.asfortranarray(xy), "p").xy, piece.xy)
    assert np.array_equal(Polyomino(xy[::-1], "p").xy, piece.xy)
    assert piece.canonical_cells() == canonical((x + shift, y + shift) for x, y in cells)


def _walked_runs(cells):
    """Oracle: [x, y, length] of each row run, walked over canonical(cells)."""
    runs = []
    for x, y in canonical(cells):
        if runs and runs[-1][1] == y and runs[-1][0] + runs[-1][2] == x:
            runs[-1][2] += 1
        else:
            runs.append([x, y, 1])
    return runs


# Each axis is left as drawn or moved so that its largest (smallest)
# coordinate is 2**31 - 1 (-(2**31 - 1)).
@given(_CELL_SETS, st.tuples(*[st.sampled_from([None, 1, -1])] * 2),
       st.integers(0, 5))
@example([(0, 0)], (1, -1), 1)  # a single cell, repeated, at the bound
@example([(0, 0), (1, 0), (2, 0), (2, 1)], (None, 1), 3)
@settings(max_examples=300)
def test_row_runs_match_canonical_walk_and_expand_to_xy(cells, bound, repeats):
    cells = list(cells)
    for axis, side in enumerate(bound):
        if side is not None and cells:
            far = side * (COORD_BOUND - 1)
            shift = far - (max if side > 0 else min)(c[axis] for c in cells)
            cells = [tuple(v + shift * (i == axis) for i, v in enumerate(c))
                     for c in cells]
    cells += cells[:repeats]
    expected = _walked_runs(cells)
    for given_cells in (cells, np.array(cells, np.int64).reshape(-1, 2)):
        first, lengths = row_runs(given_cells)
        assert np.column_stack((first, lengths)).tolist() == expected
    if not _bfs_connected(cells):
        return
    piece = Polyomino(cells, "p")
    first, lengths = piece.runs
    assert np.column_stack((first, lengths)).tolist() == expected
    assert row_runs(piece) is piece.runs
    assert not (first.flags.writeable or lengths.flags.writeable)
    expanded = [(x + i, y) for (x, y), n in zip(first.tolist(), lengths.tolist())
                for i in range(n)]
    assert expanded == list(piece.canonical_cells()) == list(canonical(cells))


def test_polyomino_validation():
    with pytest.raises(GeometryError):
        Polyomino(frozenset(), "empty")
    with pytest.raises(GeometryError):
        Polyomino(frozenset({(0, 0), (2, 0)}), "gap")
    assert len(Polyomino(frozenset({(0, 0), (1, 0)}), "domino")) == 2


@st.composite
def staircase_outlines(draw):
    """Monotone staircases: right/up steps, then close along top and left."""
    steps = draw(st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=6))
    verts = [(0, 0)]
    x = y = 0
    for dx, dy in steps:
        x += dx
        verts.append((x, y))
        y += dy
        verts.append((x, y))
    verts.append((0, y))
    return tuple(verts)


@given(staircase_outlines())
@settings(max_examples=100)
def test_rasterize_area_law(outline):
    assert len(rasterize(outline)) == _shoelace_area(outline)


@given(st.sets(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1),
       st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
def test_translate_preserves_cardinality_and_connectivity(cells, v):
    moved = translate(cells, v)
    assert len(moved) == len(cells)
    assert is_connected(moved) == is_connected(cells)


@given(st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
       st.integers(-3, 3), st.integers(-3, 3))
def test_reduce_mod_idempotent_and_orbit_constant(c, i, j):
    lat = TorusLattice((7, 3), (-2, 5))
    r = lat.reduce(c)
    assert lat.reduce(r) == r
    shifted = (c[0] + i * 7 - 2 * j, c[1] + 3 * i + 5 * j)
    assert lat.reduce(shifted) == r


_SMALL_BASES = st.tuples(*[st.integers(-6, 6)] * 4).filter(
    lambda v: v[0] * v[3] != v[1] * v[2])
# Bases whose reduction of points up to _FAR stays inside int64.
_NEAR_BOUND_BASES = st.sampled_from([
    (2 ** 31 - 1, 0, 2 ** 31 - 2, 1), (2 ** 31 - 1, 0, 0, 1),
    (-(2 ** 31 - 1), 0, 2 ** 31 - 2, -1), (1, 0, 5, 2 ** 31 - 1),
    (2 ** 16, 0, 2 ** 16 - 1, 2 ** 16), (0, 2 ** 31 - 1, 3, 0)])
# An offset plus a piece cell: each below COORD_BOUND in magnitude.
_FAR = 2 * (COORD_BOUND - 1)


@given(_SMALL_BASES | _NEAR_BOUND_BASES,
       st.lists(st.tuples(st.integers(-_FAR, _FAR), st.integers(-_FAR, _FAR)),
                min_size=1, max_size=20))
@example((2 ** 31 - 1, 0, 2 ** 31 - 2, 1), [(-_FAR, -_FAR), (_FAR, _FAR), (0, -_FAR)])
def test_reduce_points_is_reduce_of_each_point(basis, points):
    lat = TorusLattice(basis[:2], basis[2:])
    xs, ys = np.array(points, dtype=np.int64).T
    xr, yr = lat.reduce_points(xs, ys)
    assert list(zip(xr.tolist(), yr.tolist())) == [lat.reduce(p) for p in points]


_COORD = st.integers(-(COORD_BOUND - 1), COORD_BOUND - 1)


@given(st.tuples(_COORD, _COORD | st.just(0), _COORD, _COORD | st.just(0)).filter(
    lambda v: v[0] * v[3] != v[1] * v[2]))
@example((7, 0, 5, 3))
@example((4, 6, -2, 0))
@example((COORD_BOUND - 1, 1, -(COORD_BOUND - 1), COORD_BOUND - 1))
def test_hnf_is_a_basis_of_the_same_lattice(basis):
    x1, y1, x2, y2 = basis
    lat = TorusLattice((x1, y1), (x2, y2))
    a, b, c = lat.hnf
    assert 0 <= c < a
    assert a * b == lat.num_cells
    assert b == math.gcd(y1, y2)
    det = lat.det
    for x, y in ((a, 0), (c, b)):
        # Cramer's rule: (x, y) = i * b1 + j * b2 with integer i and j.
        assert (x * y2 - y * x2) % det == 0
        assert (x1 * y - y1 * x) % det == 0
