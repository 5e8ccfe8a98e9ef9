import hashlib
import json
import tracemalloc
from bisect import bisect_left
from collections import Counter
from functools import cache
from itertools import count, islice
from math import cos, pi, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polywang import cli, solver
from polywang.blocks import BlockKind, geometry
from polywang.geometry import (COORD_BOUND, Polyomino, TorusLattice, canonical,
                               is_coord_pair, row_runs, translate)
from polywang.simulate import emit_placements
from polywang.solver import (
    Placement,
    Placements,
    Rectangle,
    SearchLimitError,
    SolverInputError,
    Torus,
    build_universe,
    check_tiling,
    contained_placements,
    solve,
)

MONO = Polyomino(frozenset({(0, 0)}), "mono")
H_DOM = Polyomino(frozenset({(0, 0), (1, 0)}), "h")
V_DOM = Polyomino(frozenset({(0, 0), (0, 1)}), "v")
L_TROMINO = Polyomino(frozenset({(0, 0), (1, 0), (0, 1)}), "L")
J_TROMINO = Polyomino(frozenset({(0, 0), (1, 0), (1, 1)}), "J")


def _count(region, pieces, **kw):
    return solve(build_universe(region, pieces), "count", **kw)


def test_monomino_3x3():
    assert _count(Rectangle(3, 3), (MONO,)) == 1


def test_domino_fibonacci():
    expected = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    got = [_count(Rectangle(2, n), (H_DOM, V_DOM)) for n in range(1, 11)]
    assert got == expected


def test_single_l_tromino_2x3():
    assert _count(Rectangle(2, 3), (L_TROMINO,)) == 0


def test_solutions_pass_check_tiling():
    region = Rectangle(2, 4)
    universe = build_universe(region, (H_DOM, V_DOM))
    for sol in solve(universe, "enumerate"):
        assert check_tiling(region, (H_DOM, V_DOM), sol).exact


def test_first_mode():
    universe = build_universe(Rectangle(2, 2), (H_DOM, V_DOM))
    sol = solve(universe, "first")
    assert sol is not None and len(sol) == 2
    assert solve(build_universe(Rectangle(3, 3), (H_DOM, V_DOM)), "first") is None


def test_limit_is_scheduling_independent():
    universe = build_universe(Rectangle(2, 10), (H_DOM, V_DOM))
    full = solve(universe, "enumerate")
    assert len(full) == 89
    assert solve(universe, "enumerate", limit=10) == full[:10]
    assert solve(universe, "count", limit=5) == 5
    assert solve(universe, "count", limit=0) == 0
    assert solve(universe, "first", limit=5) == full[0]
    with pytest.raises(SolverInputError):
        solve(universe, "count", limit=-1)


@pytest.mark.parametrize("mode", ["frist", "Count", "", None])
def test_unknown_mode_rejected(mode):
    # Not read as enumerate, whose first tiling 2x4 dominoes would return.
    universe = build_universe(Rectangle(2, 4), (H_DOM, V_DOM))
    with pytest.raises(SolverInputError, match="unknown mode"):
        solve(universe, mode)


def test_piece_permutation_invariance():
    a = _count(Rectangle(2, 6), (H_DOM, V_DOM))
    b = _count(Rectangle(2, 6), (V_DOM, H_DOM))
    assert a == b == 13


def test_torus_counts_and_basis_invariance():
    # three bases of the same 4-cell ring lattice
    for basis in (((4, 0), (0, 1)), ((4, 0), (4, 1)), ((8, 1), (4, 1))):
        region = Torus(TorusLattice(*basis))
        assert _count(region, (H_DOM,)) == 2  # two phase classes on the ring


def test_area_pruning():
    # 9 cells cannot be written as a sum of 2s: no search needed.
    assert _count(Rectangle(3, 3), (H_DOM, V_DOM)) == 0
    assert solve(build_universe(Rectangle(3, 3), (H_DOM,)), "first") is None


def test_search_limit_error():
    universe = build_universe(Rectangle(2, 10), (H_DOM, V_DOM))
    with pytest.raises(SearchLimitError) as err:
        solve(universe, "count", max_nodes=3)
    assert err.value.partial_count == 0
    # Count mode sweeps frontier layers, and a move adds its paths to the
    # nodes: the root pick is not a node, so all 89 need 319.  The 34 tilings
    # that end in two vertical dominoes complete first; the last move, an h
    # that completes the 55 tilings of 2x9, needs 55 nodes: 318 cannot pay.
    with pytest.raises(SearchLimitError) as err:
        solve(universe, "count", max_nodes=50)
    assert err.value.partial_count == 0
    with pytest.raises(SearchLimitError) as err:
        solve(universe, "count", max_nodes=318)
    assert err.value.partial_count == 34
    assert solve(universe, "count", max_nodes=319) == 89
    with pytest.raises(SearchLimitError) as err:
        solve(universe, "count", max_nodes=0)
    assert err.value.partial_count == 0
    with pytest.raises(SolverInputError):
        solve(universe, "count", max_nodes=-1)


def test_deep_search_needs_no_recursion():
    # 1500 levels of search: deeper than Python's default recursion limit.
    universe = build_universe(Rectangle(1, 1500), (MONO,))
    assert solve(universe, "count") == 1
    assert len(solve(universe, "first")) == 1500


@pytest.mark.parametrize("region, pieces, count, nodes, partial", [
    (Torus(TorusLattice((4, 0), (1, 3))), (L_TROMINO, J_TROMINO, H_DOM, V_DOM),
     200, 1340, {40: 0, 333: 0, 1339: 163}),
    (Rectangle(3, 5), (H_DOM, V_DOM, MONO), 5096, 13184,
     {40: 0, 333: 0, 13183: 2550}),
])
def test_search_order_pinned(region, pieces, count, nodes, partial):
    # Every mode searches the tree that branches on the first uncovered cell,
    # on its placements in id order: first and enumerate give its tilings in
    # that order, and count mode's node budgets are its nodes.  Count mode's
    # partial counts are the tilings its sweep of frontier layers has completed.
    universe = build_universe(region, pieces)
    full = solve(universe, "enumerate")
    assert solve(universe, "count") == len(full) == count
    assert solve(universe, "count", max_nodes=nodes) == count
    for max_nodes, found in partial.items():
        with pytest.raises(SearchLimitError) as err:
            solve(universe, "count", max_nodes=max_nodes)
        assert err.value.partial_count == found
    assert solve(universe, "enumerate", limit=7) == full[:7]
    assert solve(universe, "first") == full[0]


def _reference_solve(universe, mode="first", limit=None, max_nodes=None):
    """The search that branches on the first uncovered cell, on the
    placements that cover it in id order, with no memo (a generator cut by
    islice): the oracle of solve's tree, its order and its node budgets in
    every mode.  The root is not a search node; every placement tried is.
    """
    if limit is not None and limit < 0:
        raise SolverInputError("limit must be nonnegative")
    if max_nodes is not None and max_nodes < 0:
        raise SolverInputError("max_nodes must be nonnegative")
    n_cells = universe.region.area
    cover = _sweep_cells(universe)
    areas = [len(p) for p in universe.pieces]
    if not solver._area_reachable(n_cells, areas):
        if mode == "count":
            return 0
        return None if mode == "first" else []

    candidates = [[] for _ in range(n_cells)]  # the placements on each cell
    for pid, cells in enumerate(cover):
        for cell in cells:
            candidates[cell].append(pid)
    covered = [False] * n_cells
    nodes = found = 0

    def search(cell):
        """Tilings of the uncovered cells, of which ``cell`` is the first."""
        nonlocal nodes, found
        for pid in candidates[cell]:
            if any(covered[c] for c in cover[pid]):
                continue
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise SearchLimitError(found)
            for c in cover[pid]:
                covered[c] = True
            nxt = next((c for c in range(cell, n_cells) if not covered[c]), None)
            if nxt is None:
                found += 1
                yield (pid,)
            else:
                yield from ((pid, *rest) for rest in search(nxt))
            for c in cover[pid]:
                covered[c] = False

    solutions = islice(search(0), 1 if mode == "first" else limit)
    if mode == "count":
        return sum(1 for _ in solutions)
    placements = list(universe.placements)
    tilings = [
        sorted((placements[pid] for pid in sol),
               key=lambda pl: (pl.piece, pl.at[1], pl.at[0]))
        for sol in solutions
    ]
    if mode == "first":
        return tilings[0] if tilings else None
    return tilings


def _sweep_cells(universe):
    """The cells each placement covers, numbered in sweep order from its own
    piece and offset, not from build_universe's arrays: y * W + x in a
    rectangle, x * H + y in one wider than tall, and y * A + x on a torus,
    of the cell reduced by the lattice's Hermite normal form (A, B, C)."""
    region, table = universe.region, {p.name: p for p in universe.pieces}
    wide = isinstance(region, Rectangle) and region.width > region.height
    cover = []
    for pl in universe.placements:
        cells = translate(table[pl.piece].cells, pl.at)
        if isinstance(region, Torus):
            cells = [*map(region.lattice.reduce, cells)]
        assert all(0 <= x < region.width and 0 <= y < region.height for x, y in cells)
        cover.append(tuple(x * region.height + y if wide else y * region.width + x
                           for x, y in cells))
    return cover


def _torus_lattices():
    small = st.integers(-4, 4)
    basis = st.tuples(st.tuples(small, small), st.tuples(small, small))
    return basis.filter(lambda b: 0 < abs(b[0][0] * b[1][1] - b[0][1] * b[1][0]) <= 12) \
        .map(lambda b: Torus(TorusLattice(*b)))


def _outcome(search, universe, mode, **kw):
    """A search's result, or its partial count if the node budget ran out."""
    try:
        return search(universe, mode, **kw)
    except SearchLimitError as err:
        return SearchLimitError, err.partial_count


_SEARCH_PIECES = (L_TROMINO, J_TROMINO, H_DOM, V_DOM, MONO)
_SEARCH_PIECE_LISTS = st.lists(st.sampled_from(_SEARCH_PIECES), min_size=1, unique=True)
_SMALL_REGIONS = st.one_of(st.builds(Rectangle, st.integers(1, 3), st.integers(1, 2)),
                           _torus_lattices().filter(lambda region: region.area <= 6))
# Universes with pinned first and enumerate budgets.
_TORUS_LJHV = (Torus(TorusLattice((4, 0), (1, 3))), (L_TROMINO, J_TROMINO, H_DOM, V_DOM))
_STRIP_HV = (Rectangle(2, 10), (H_DOM, V_DOM))


# Each placement's lowest cell and start mask are those of its own cells, in
# rectangles of both orientations and on tori whose seam bends placements.
@given(st.one_of(st.builds(Rectangle, st.integers(1, 6), st.integers(1, 6)),
                 _torus_lattices()), _SEARCH_PIECE_LISTS)
@example(Torus(TorusLattice((4, 0), (1, 3))), (L_TROMINO, J_TROMINO, H_DOM, V_DOM))
@example(Torus(TorusLattice((5, 0), (2, 4))), (L_TROMINO, J_TROMINO, H_DOM, V_DOM))
@example(Rectangle(6, 4), (L_TROMINO, J_TROMINO, H_DOM, V_DOM))
@example(Rectangle(4, 6), (L_TROMINO, J_TROMINO, H_DOM, V_DOM))
@settings(max_examples=60, deadline=None)
def test_start_masks_are_those_of_each_placements_cells(region, pieces):
    universe = build_universe(region, pieces)
    cover = _sweep_cells(universe)
    assert len(universe.lo) == len(universe.mask) == len(cover)
    assert universe.lo == [min(cells) for cells in cover]
    assert universe.mask == [sum(1 << (c - min(cells)) for c in cells) for cells in cover]


def test_torus_seam_bends_start_masks():
    # On these tori some placements of each piece have a start mask of
    # their own; in a rectangle every placement of a piece shares one.
    for basis in (((4, 0), (1, 3)), ((5, 0), (2, 4))):
        universe = build_universe(Torus(TorusLattice(*basis)),
                                  (L_TROMINO, J_TROMINO, H_DOM, V_DOM))
        for k in range(4):
            masks = {m for m, i in zip(universe.mask, universe.placements.piece) if i == k}
            assert len(masks) > 1
    for region in (Rectangle(6, 4), Rectangle(4, 6)):
        universe = build_universe(region, (L_TROMINO, J_TROMINO, H_DOM, V_DOM))
        assert len(set(universe.mask)) == 4


# Every node budget up to one past the whole search, and limits around the
# solution count, on regions small enough to sweep them all.  First and
# enumerate match the reference outright.  Count mode completes nothing before
# its last layer: it gives the count when the budget pays for the whole tree,
# else a partial count that never falls as the budget grows.
@given(_SMALL_REGIONS, _SEARCH_PIECE_LISTS)
@settings(max_examples=40, deadline=None)
def test_solve_matches_reference_search(region, pieces):
    universe = build_universe(region, pieces)
    total = _reference_solve(universe, "count")
    nodes = next(m for m in count()
                 if _outcome(_reference_solve, universe, "count", max_nodes=m) == total)
    limits = (None, 1, 2, 5, total, total + 1)
    partial = dict.fromkeys(limits, 0)
    for max_nodes in range(nodes + 2):
        assert _outcome(solve, universe, "first", max_nodes=max_nodes) == \
            _outcome(_reference_solve, universe, "first", max_nodes=max_nodes)
        for limit in limits:
            assert _outcome(solve, universe, "enumerate", limit=limit, max_nodes=max_nodes) \
                == _outcome(_reference_solve, universe, "enumerate", limit=limit,
                            max_nodes=max_nodes)
            got = _outcome(solve, universe, "count", limit=limit, max_nodes=max_nodes)
            if limit == 0 or max_nodes >= nodes:
                assert got == (total if limit is None else min(total, limit))
            else:
                assert isinstance(got, tuple) and partial[limit] <= got[1] <= total
                partial[limit] = got[1]


def _least_budget(universe, mode):
    """The least max_nodes at which solve completes: completing is monotone
    in the budget, so double it, then bisect."""
    def done(max_nodes):
        return not isinstance(_outcome(solve, universe, mode, max_nodes=max_nodes), tuple)

    high = 1
    while not done(high):
        high *= 2
    return bisect_left(range(high + 1), True, key=done)


# One tree in every mode: enumerate, with no limit, completes at the budget
# at which count mode does.
@given(_SMALL_REGIONS, _SEARCH_PIECE_LISTS)
@example(*_TORUS_LJHV)
@example(*_STRIP_HV)
@settings(max_examples=40, deadline=None)
def test_enumerate_and_count_share_a_budget(region, pieces):
    universe = build_universe(region, pieces)
    assert _least_budget(universe, "enumerate") == _least_budget(universe, "count")


@pytest.mark.parametrize("cap", [0, 4])
def test_memo_cap_keeps_counts(cap):
    # First and enumerate store dead states, up to the cap.  A smaller store
    # skips fewer of them, but finds the same tilings within the same
    # budgets: the nodes each needs to complete, and around them.
    torus, strip = (build_universe(*case) for case in (_TORUS_LJHV, _STRIP_HV))
    cases = [(universe, mode, max_nodes)
             for universe, budgets in ((torus, {"first": 10, "enumerate": 1340}),
                                       (strip, {"first": 10, "enumerate": 319}))
             for mode, nodes in budgets.items()
             for max_nodes in (None, nodes, nodes - 1, nodes // 2, 3)]

    def outcomes():
        return [_outcome(solve, universe, mode, max_nodes=max_nodes)
                for universe, mode, max_nodes in cases]

    expected = outcomes()
    # Each completes at its budget, and not one node sooner.
    assert expected[::5] == expected[1::5]
    assert all(got[0] is SearchLimitError for got in expected[2::5])
    with mock.patch.object(solver, "_MEMO_CAP", cap):
        assert outcomes() == expected


def _kasteleyn(width, height):
    """Domino tilings of a rectangle by Kasteleyn's product formula (1961),
    in float64: refused unless its rounding error bound is below 1/2."""
    factors = [4 * cos(pi * j / (width + 1)) ** 2 + 4 * cos(pi * k / (height + 1)) ** 2
               for j in range(1, (width + 1) // 2 + 1)
               for k in range(1, (height + 1) // 2 + 1)]
    value = prod(factors)
    assert len(factors) * value * 2 ** -52 < 0.5, "past float64's exact range"
    return round(value)


@pytest.mark.parametrize("width, height", [(4, 4), (6, 6), (8, 8), (8, 10)])
def test_domino_rectangles_match_kasteleyn(width, height):
    assert _count(Rectangle(width, height), (H_DOM, V_DOM)) == _kasteleyn(width, height)


def test_kasteleyn_refuses_what_float64_cannot_round():
    # At 16x8 the rounded product reads 540,061,286,536,924: three too many.
    with pytest.raises(AssertionError, match="float64"):
        _kasteleyn(16, 8)


def _torus_matchings(a, c, d):
    """Perfect matchings of the grid graph on the torus Z^2 / <(a, 0), (c, d)>,
    each cell joined to its east and north neighbours, by matching the
    lowest unmatched cell in every way (a, d > 2: no loops)."""
    def cell(x, y):  # the representative in [0, a) x [0, d), flat
        k = y // d
        return (x - k * c) % a + (y - k * d) * a

    edges = [[] for _ in range(a * d)]
    for y in range(d):
        for x in range(a):
            for end in (cell(x + 1, y), cell(x, y + 1)):
                edges[cell(x, y)].append(end)
                edges[end].append(cell(x, y))
    full = (1 << a * d) - 1

    @cache
    def ways(mask):
        if mask == full:
            return 1
        low = (~mask & (mask + 1)).bit_length() - 1
        return sum(ways(mask | 1 << low | 1 << end) for end in edges[low]
                   if not mask >> end & 1)

    return ways(0)


@pytest.mark.parametrize("a, c, d, expected", [(4, 0, 4, 272), (6, 2, 6, 88040)])
def test_domino_tori_match_perfect_matchings(a, c, d, expected):
    region = Torus(TorusLattice((a, 0), (c, d)))
    assert _count(region, (H_DOM, V_DOM)) == _torus_matchings(a, c, d) == expected


@given(_torus_lattices(), st.lists(st.sampled_from(_SEARCH_PIECES), min_size=1, unique=True))
@settings(max_examples=40, deadline=None)
def test_torus_counts_match_reference_search(region, pieces):
    universe = build_universe(region, pieces)
    assert solve(universe, "count") == _reference_solve(universe, "count")


def test_trominoes_and_dominoes_6x6_match_dp():
    pieces = (L_TROMINO, J_TROMINO, H_DOM, V_DOM)
    assert _count(Rectangle(6, 6), pieces) == _dp_count(6, 6, pieces) == 123648


def test_trominoes_and_dominoes_8x8_match_dp():
    # Count mode's sweep meets 6,640 frontier states here, at most 320 of them
    # at once.
    pieces = (L_TROMINO, J_TROMINO, H_DOM, V_DOM)
    assert _count(Rectangle(8, 8), pieces) == _dp_count(8, 8, pieces) == 6337816232


_T_TETROMINOES = tuple(Polyomino(frozenset(cells), name) for name, cells in (
    ("T_up", {(0, 0), (1, 0), (2, 0), (1, 1)}),
    ("T_down", {(1, 0), (0, 1), (1, 1), (2, 1)}),
    ("T_right", {(0, 0), (0, 1), (0, 2), (1, 1)}),
    ("T_left", {(1, 0), (1, 1), (1, 2), (0, 1)}),
))


# Walkup (1965): the T-tetrominoes tile an m x n rectangle iff 4 divides both
# m and n.  12x10 and 10x6 pass the area test, so first mode must prove that
# no tiling exists by search.
@pytest.mark.parametrize("width, height", [(12, 10), (10, 6), (4, 4), (8, 8), (12, 12)])
def test_t_tetrominoes_tile_rectangles_as_walkup_proved(width, height):
    region = Rectangle(width, height)
    tiling = solve(build_universe(region, _T_TETROMINOES), "first")
    if width % 4 or height % 4:
        assert tiling is None
    else:
        assert check_tiling(region, _T_TETROMINOES, tiling).exact


_LJHV = (L_TROMINO, J_TROMINO, H_DOM, V_DOM)


# Counts a covered-cell memo of 2**16 masks could not reach: 11x10, swept
# column by column, meets 67,935 frontier states in all, but the sweep holds
# at most 1,536 at once.
@pytest.mark.parametrize("width, height, pieces, expected", [
    (11, 10, _LJHV, 600570426477947343),
    (12, 12, _LJHV, 629581954074785680425009),
    (16, 8, (H_DOM, V_DOM), 540061286536921),
])
def test_counts_past_the_memo_match_dp(width, height, pieces, expected):
    assert _count(Rectangle(width, height), pieces) == _dp_count(width, height, pieces) \
        == expected


# A rectangle wider than tall is swept column by column: 20x8 counts with a
# frontier 8 cells wide, where row by row it needed over 2**16 live states.
# The dominoes are their own transpose, so the row-major oracle counts 8x20.
def test_wide_rectangle_counts_along_its_shorter_side():
    assert _count(Rectangle(20, 8), (H_DOM, V_DOM)) == _dp_count(8, 20, (H_DOM, V_DOM)) \
        == 3547073578562247994


# A sweep that kept the layers behind it peaks at 3.29 MB and 0.64 MB here:
# each bound is about 3.2 times below that, and 4.6 to 5.6 times above the
# 0.18 MB and 0.043 MB of the frontier sweep (tracemalloc).  Both regions are
# wide both ways: on a strip the sweep runs along the long side, and even
# the layers behind a frontier 6 cells wide fit in 0.03 MB.
@pytest.mark.parametrize("width, height, pieces, expected, heap_mb", [
    (10, 10, _LJHV, 10941583606563344, 1),
    (10, 10, (H_DOM, V_DOM), 258584046368, 0.2),
])
def test_count_heap_is_held_to_the_frontier(width, height, pieces, expected, heap_mb):
    universe = build_universe(Rectangle(width, height), pieces)
    tracemalloc.start()
    try:
        got = solve(universe, "count")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _dp_count(width, height, pieces) == expected
    assert peak < heap_mb * 2 ** 20


# The largest region, {h, m} on 128 x 128: building and searching it in
# first mode peaks at 7.5 MiB of heap, against 12.7 MiB when each placement
# was a record and a tuple of its cells (tracemalloc).
def test_first_search_heap_on_the_largest_region():
    region, pieces = Rectangle(128, 128), (H_DOM, Polyomino([(0, 0)], "m"))
    tracemalloc.start()
    try:
        tiling = solve(build_universe(region, pieces), "first")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert region.area == solver._REGION_CAP
    assert check_tiling(region, pieces, tiling).exact
    assert peak < 10 * 2 ** 20


def _dp_count(width, height, pieces):
    """Tilings of a rectangle: the first empty cell in row-major order is
    covered by the first cell, in (y, x) order, of some piece."""
    shapes = []
    for piece in pieces:
        cells = sorted(piece.cells, key=lambda c: (c[1], c[0]))
        shapes.append([(x - cells[0][0], y - cells[0][1]) for x, y in cells])
    full = (1 << width * height) - 1

    @cache
    def ways(mask):
        if mask == full:
            return 1
        first = (~mask & (mask + 1)).bit_length() - 1
        total = 0
        for shape in shapes:
            bits = 0
            for dx, dy in shape:
                x, y = first % width + dx, first // width + dy
                inside = 0 <= x < width and 0 <= y < height
                if not inside or mask >> (y * width + x) & 1:
                    break
                bits |= 1 << (y * width + x)
            else:
                total += ways(mask | bits)
        return total

    return ways(0)


@st.composite
def _shapes(draw):
    """An edge-connected cell set of 1-4 cells, grown from the origin."""
    cells = [(0, 0)]
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(st.sampled_from(cells))
        dx, dy = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
        cells.append((x + dx, y + dy))
    return frozenset(cells)


def _translation_class(cells):
    x0, y0 = min(x for x, _ in cells), min(y for _, y in cells)
    return frozenset((x - x0, y - y0) for x, y in cells)


# Shapes distinct up to translation keep the counts small: three monominoes
# alone would tile a 4x4 rectangle in 3**16 ways.
@given(st.integers(1, 4), st.integers(1, 4),
       st.lists(_shapes(), min_size=1, max_size=3, unique_by=_translation_class))
@settings(max_examples=150, deadline=None)
def test_solve_matches_dp_oracle(width, height, shapes):
    region = Rectangle(width, height)
    pieces = tuple(Polyomino(cells, f"p{k}") for k, cells in enumerate(shapes))
    universe = build_universe(region, pieces)
    count = solve(universe, "count")
    assert count == _dp_count(width, height, pieces)
    tilings = solve(universe, "enumerate")
    assert len(tilings) == len({tuple(t) for t in tilings}) == count
    assert all(check_tiling(region, pieces, t).exact for t in tilings)


def _orientations(cells):
    """The distinct rotations and reflections of a cell set, up to translation."""
    out = []
    for _ in range(2):
        for _ in range(4):
            cells = frozenset((-y, x) for x, y in cells)
            out.append(_translation_class(cells))
        cells = frozenset((-x, y) for x, y in cells)
    return list(dict.fromkeys(out))


def _transposed(outcome):
    """A solve outcome with each tiling's placements transposed, (x, y) ->
    (y, x), and sorted again by piece, then y, then x."""
    if not isinstance(outcome, list):
        return outcome  # a count, None, or a partial count
    if outcome and isinstance(outcome[0], list):
        return list(map(_transposed, outcome))
    return sorted((Placement(pl.piece, pl.at[::-1]) for pl in outcome),
                  key=lambda pl: (pl.piece, pl.at[1], pl.at[0]))


# A rectangle wider than tall searches as its transpose, which is taller
# than wide, with each piece transposed: the one is swept column by column
# as the other is row by row, and each cell's starts are one per piece, in
# piece order, so the two trees are the same.  Counts, partial counts,
# first tilings and the enumerate order match at every node budget up to
# the whole search, or at 100 of them spread over it and those around it.
# The P-pentomino (8 orientations) has no tiling of 13x5.
@given(st.integers(1, 3).flatmap(lambda h: st.tuples(st.integers(h + 1, 4), st.just(h))),
       st.lists(_shapes(), min_size=1, max_size=3, unique_by=_translation_class))
@example((13, 5), _orientations({(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)}))
@settings(max_examples=40, deadline=None)
def test_wide_rectangle_searches_as_its_transpose(size, shapes):
    width, height = size
    pieces = [Polyomino(cells, f"p{k}") for k, cells in enumerate(shapes)]
    wide = build_universe(Rectangle(width, height), pieces)
    tall = build_universe(Rectangle(height, width), [
        Polyomino({(y, x) for x, y in piece.cells}, piece.name) for piece in pieces])
    nodes = _least_budget(wide, "count")
    budgets = {*range(0, nodes + 2, max(1, nodes // 100)), max(nodes - 1, 0), nodes,
               nodes + 1, None}
    for max_nodes in budgets:
        for mode in ("count", "first", "enumerate"):
            assert _transposed(_outcome(solve, wide, mode, max_nodes=max_nodes)) == \
                _outcome(solve, tall, mode, max_nodes=max_nodes)


def test_check_tiling_reports():
    region = Rectangle(2, 2)
    good = [Placement("v", (0, 0)), Placement("v", (1, 0))]
    assert check_tiling(region, (V_DOM,), good).exact

    gap = check_tiling(region, (V_DOM,), good[:1])
    assert set(gap.uncovered) == {(1, 0), (1, 1)}
    assert not gap.overlaps

    dup = check_tiling(region, (V_DOM,), good + [Placement("v", (0, 0))])
    assert {(c, i, j) for c, i, j in dup.overlaps} == \
        {((0, 0), 0, 2), ((0, 1), 0, 2)}

    outside = check_tiling(region, (V_DOM,), good + [Placement("v", (5, 0))])
    assert set(outside.out_of_region) == {(5, 0), (5, 1)}
    assert not outside.exact

    # Cells outside a rectangle own no region cell, so they take no part in
    # the overlap records of the cells inside it.
    stray = check_tiling(Rectangle(3, 2), (MONO,), [
        Placement("mono", (2, 0)), Placement("mono", (2, 0)),
        Placement("mono", (7, 1))])
    assert stray.overlaps == (((2, 0), 0, 1),)
    assert stray.out_of_region == ((7, 1),)
    # Flat index -1 marks a point outside, not the last cell, even when the
    # last cell is covered twice.
    corner = check_tiling(Rectangle(2, 2), (MONO,), [
        Placement("mono", (1, 1)), Placement("mono", (1, 1)),
        Placement("mono", (5, 5)), Placement("mono", (6, 5))])
    assert corner.overlaps == (((1, 1), 0, 1),)
    assert corner.out_of_region == ((5, 5), (6, 5))


def _cover_oracle(region, pieces, placements):
    """check_tiling's report, from a dict of each cell's owning placements."""
    table = {p.name: p for p in pieces}
    owners, outside = {}, set()
    for i, pl in enumerate(placements):
        for x, y in table[pl.piece].canonical_cells():
            cell = (x + pl.at[0], y + pl.at[1])
            if isinstance(region, Torus):
                cell = region.lattice.reduce(cell)
            elif not (0 <= cell[0] < region.width and 0 <= cell[1] < region.height):
                outside.add(cell)
                continue
            owners.setdefault(cell, []).append(i)
    if isinstance(region, Torus):
        cells = list(region.lattice.representatives())
    else:
        cells = [(x, y) for y in range(region.height) for x in range(region.width)]
    overlaps = []
    for cell in cells:
        own = owners.get(cell, [])
        for i in range(len(own)):
            for j in range(i + 1, len(own)):
                overlaps.append((cell, own[i], own[j]))
    return (tuple(c for c in cells if c not in owners), tuple(overlaps),
            tuple(sorted(outside, key=lambda c: (c[1], c[0]))))


_REGIONS = st.one_of(
    st.builds(Rectangle, st.integers(1, 4), st.integers(1, 4)), _torus_lattices())
_PLACEMENTS = st.lists(st.builds(
    Placement, st.sampled_from(["mono", "h", "v", "L"]),
    st.tuples(st.integers(-3, 6), st.integers(-3, 6))), max_size=8)


@given(_REGIONS, _PLACEMENTS)
# A domino on a one-cell torus and an L tromino on a 2-cell ring cover one
# cell twice: their self-pairs (i, i) stay.
@example(Torus(TorusLattice((1, 0), (0, 1))), [Placement("h", (0, 0))])
@example(Torus(TorusLattice((2, 0), (1, 1))), [Placement("L", (0, 0)),
                                               Placement("mono", (5, 3))])
@settings(max_examples=300, deadline=None)
def test_check_tiling_matches_owner_oracle(region, placements):
    _assert_matches_oracle(region, placements)


# Batches of one and of three points split a piece group between batches,
# and a tromino's batch holds one placement.
@pytest.mark.parametrize("batch_points", [1, 3])
@given(_REGIONS, _PLACEMENTS)
@example(Torus(TorusLattice((2, 0), (1, 1))), [Placement("L", (0, 0)),
                                               Placement("mono", (5, 3))])
@example(Rectangle(2, 2), [Placement("h", (0, 0)), Placement("h", (0, 0)),
                           Placement("h", (1, 1)), Placement("h", (0, 1))])
@settings(max_examples=300, deadline=None)
def test_check_tiling_matches_owner_oracle_in_small_batches(
        batch_points, region, placements):
    with mock.patch.object(solver, "_BATCH_POINTS", batch_points):
        _assert_matches_oracle(region, placements)


def _assert_matches_oracle(region, placements):
    pieces = (MONO, H_DOM, V_DOM, L_TROMINO)
    report = check_tiling(region, pieces, placements)
    assert (report.uncovered, report.overlaps, report.out_of_region) == \
        _cover_oracle(region, pieces, placements)


# A pile of 300 monominoes on one cell, and 10^4 cells each covered twice by
# dominoes: a pile's records in combinations order next to many pairs.
@pytest.mark.parametrize("region", [Rectangle(100, 101),
                                    Torus(TorusLattice((100, 0), (0, 101)))],
                         ids=["rect", "torus"])
def test_check_tiling_matches_owner_oracle_at_scale(region):
    dominoes = [Placement("h", (x, y)) for y in range(1, 101) for x in range(0, 100, 2)]
    pile = [Placement("mono", (3, 0))] * 150
    placements = pile + dominoes[::-1] + pile + dominoes
    oracle = _cover_oracle(region, (MONO, H_DOM), placements)
    assert len(oracle[1]) == 300 * 299 // 2 + 10 ** 4
    report = check_tiling(region, (MONO, H_DOM), placements)
    assert (report.uncovered, report.overlaps, report.out_of_region) == oracle


# Horizontal bars of 1 to 7 cells, one row run each, and a U pentomino,
# whose upper row is two runs.
_RUN_PIECES = (*(Polyomino(frozenset((x, 0) for x in range(n)), f"bar{n}")
                 for n in range(1, 8)),
               Polyomino(frozenset({(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)}), "U"))


# Runs longer than a torus row wrap it whole; runs across the seam split;
# runs on a rectangle are clipped, or dropped on a row outside it.
@pytest.mark.parametrize("batch_points", [solver._BATCH_POINTS, 1])
@given(st.one_of(st.builds(Rectangle, st.integers(1, 5), st.integers(1, 3)),
                 _torus_lattices()),
       st.lists(st.builds(Placement, st.sampled_from([p.name for p in _RUN_PIECES]),
                          st.tuples(st.integers(-8, 8), st.integers(-2, 4))),
                max_size=8))
@example(Torus(TorusLattice((3, 0), (0, 1))), [Placement("bar2", (2, 0)),
                                               Placement("bar1", (1, 0))])
@example(Torus(TorusLattice((3, 0), (0, 1))), [Placement("bar7", (-4, 0)),
                                               Placement("bar2", (5, 3))])
@example(Torus(TorusLattice((3, 0), (1, 2))), [Placement("bar5", (2, 1)),
                                               Placement("U", (-1, -3))])
@example(Rectangle(3, 2), [Placement("bar7", (-2, 1)), Placement("bar3", (0, -1)),
                           Placement("bar2", (2, 0)), Placement("U", (1, 0))])
# Runs of whole rows: each ends where it starts and wraps its row.
@example(Torus(TorusLattice((3, 0), (0, 2))), [Placement("bar6", (0, 0)),
                                               Placement("bar3", (1, 1))])
@settings(max_examples=300, deadline=None)
def test_check_tiling_row_runs_match_owner_oracle(batch_points, region, placements):
    with mock.patch.object(solver, "_BATCH_POINTS", batch_points):
        report = check_tiling(region, _RUN_PIECES, placements)
    assert (report.uncovered, report.overlaps, report.out_of_region) == \
        _cover_oracle(region, _RUN_PIECES, placements)


def test_check_tiling_piece_wrapped_round_tiny_torus():
    # All 256 points of the bar land on the one cell of a 1x1 torus; a
    # count array of one byte would wrap to 0 and call the cell uncovered.
    bar = Polyomino(frozenset((x, 0) for x in range(256)), "bar")
    dot = check_tiling(Torus(TorusLattice((1, 0), (0, 1))), (bar,),
                       [Placement("bar", (3, -2))])
    assert dot.uncovered == () and dot.out_of_region == ()
    assert dot.overlaps == (((0, 0), 0, 0),) * (256 * 255 // 2)
    # A 3-cell bar round a 2x1 torus covers (0, 0) twice and (1, 0) once.
    bar3 = Polyomino(frozenset({(0, 0), (1, 0), (2, 0)}), "bar3")
    ring = check_tiling(Torus(TorusLattice((2, 0), (0, 1))), (bar3,),
                        [Placement("bar3", (0, 0))])
    assert ring.uncovered == () and ring.overlaps == (((0, 0), 0, 0),)


def test_check_tiling_memory_is_not_sized_by_area():
    # 10**4 bars of 1000 cells cover a 10**7-cell torus, one row each: the
    # check holds an interval per run, not a count per cell.
    bar = Polyomino(frozenset((x, 0) for x in range(1000)), "bar")
    placements = Placements.of([Placement("bar", (0, y)) for y in range(10 ** 4)])
    region = Torus(TorusLattice((1000, 0), (0, 10 ** 4)))
    tracemalloc.start()
    try:
        report = check_tiling(region, (bar,), placements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.exact
    assert peak < 8 * 2 ** 20


_FAR = COORD_BOUND - 1
# Pieces and offsets near the coordinate bound: placed points reach 2**32,
# and on a torus k * c passes 2**31 though the points and the area do not
# (k = y // b for the lattice's basis (a, 0), (c, b)).
_FAR_CASES = {
    "mono-high": ([(0, 2 ** 30)], [(0, 0), (1, 0), (4, -1)]),
    "mono-corners": ([(_FAR, -_FAR)], [(-_FAR, _FAR), (_FAR, -_FAR), (0, 0),
                                       (-_FAR, _FAR - 1)]),
    "bar-east": ([(x, _FAR) for x in range(_FAR - 2, _FAR + 1)],
                 [(_FAR, _FAR), (2 - _FAR, -_FAR), (-_FAR, 1 - _FAR)]),
    "bar-north": ([(-_FAR, y) for y in range(-_FAR, 3 - _FAR)],
                  [(_FAR, _FAR), (_FAR, _FAR - 1), (_FAR - 1, -_FAR)]),
}


@pytest.mark.parametrize("case", list(_FAR_CASES))
@pytest.mark.parametrize("region", [
    Torus(TorusLattice((5, 0), (3, 1))), Torus(TorusLattice((1, 0), (0, 1))),
    Torus(TorusLattice((2, -1), (1, 3))), Rectangle(3, 2)])
def test_check_tiling_near_coordinate_bound(region, case):
    cells, offsets = _FAR_CASES[case]
    piece = Polyomino(cells, "p")
    placements = [Placement("p", at) for at in offsets]
    report = check_tiling(region, (piece,), placements)
    assert (report.uncovered, report.overlaps, report.out_of_region) == \
        _cover_oracle(region, (piece,), placements)


_NEAR_BOUND = st.one_of(st.integers(-3, 3), st.integers(-_FAR, 40 - _FAR),
                        st.integers(_FAR - 40, _FAR))


# Skewed lattices (c != 0), pieces taller than the torus (b <= 4 here), runs
# that wrap a row several times (a <= 12) and offsets near the bound.
@given(_torus_lattices(),
       st.lists(st.tuples(st.integers(-9, 9), st.integers(-6, 6), st.integers(1, 40)),
                min_size=1, max_size=4),
       st.lists(st.tuples(_NEAR_BOUND, _NEAR_BOUND), min_size=1, max_size=4))
@example(Torus(TorusLattice((3, 0), (1, 2))), [(0, -5, 10), (2, 4, 1)],
         [(_FAR, -_FAR), (-_FAR, _FAR), (2, 1)])
@example(Torus(TorusLattice((4, -1), (1, 3))), [(-9, 6, 40)], [(_FAR - 1, _FAR)])
@settings(max_examples=300, deadline=None)
def test_torus_runs_of_prepared_piece_cover_reduced_cells(region, bars, offsets):
    cells = {(x + i, y) for x, y, n in bars for i in range(n)}
    first, lengths = row_runs(np.array(canonical(cells)))
    ox, oy = region.lattice.reduce_points(*np.array(offsets).T)
    a = region.width
    got = Counter()
    for row, start, end, wraps in zip(*(v.ravel().tolist() for v in region.runs(
            region.prepare(first, lengths), ox, oy))):
        assert row % a == 0 and row <= start < row + a and row <= end < row + a
        got.update(((start - row + i) % a, row // a)
                   for i in range(end - start + wraps * a))
    assert got == Counter(region.lattice.reduce((x + dx, y + dy))
                          for dx, dy in offsets for x, y in cells)


# sha256 of `polywang verify`'s report.json on the three-tile 3x1 torus with
# its first placement deleted and its first linker across the seam doubled.
_DEFECTS_REPORT_SHA256 = \
    "1dc4c123be79c1ad81778034abfaaf897412bc00c5683da494240cfe46ab8219"


def test_large_failure_report_pinned(tmp_path, three_tile_set, three_tile_torus,
                                     three_tile_pieces):
    sim = emit_placements(three_tile_set, three_tile_torus)
    region, pieces = Torus(sim.lattice), three_tile_pieces.pieces
    a, b, _ = sim.lattice.hnf
    table = {p.name: p.xy for p in pieces}
    placements = list(sim.placements)[1:]
    # A linker with cells out of the fundamental domain [0, a) x [0, b).
    seam = next(pl for pl in placements if pl.piece.endswith("linker")
                and not ((table[pl.piece] + pl.at >= 0)
                         & (table[pl.piece] + pl.at < (a, b))).all())
    placements.append(seam)
    report = check_tiling(region, pieces, placements)
    oracle = _cover_oracle(region, pieces, placements)
    assert (report.uncovered, report.overlaps, report.out_of_region) == oracle
    assert oracle[0] and len(oracle[1]) == len(table[seam.piece])
    piece_file, tiling, out = tmp_path / "pieces.json", tmp_path / "sim.json", \
        tmp_path / "report.json"
    cli._dump_json(str(piece_file), three_tile_pieces.to_json())
    cli._dump_json(str(tiling), {**region.to_json(),
                                 "placements": Placements.of(placements)})
    assert cli.run(["verify", str(piece_file), str(tiling), "-o", str(out)]) == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _DEFECTS_REPORT_SHA256


def test_build_universe_pinned_rows():
    # A rectangle no wider than tall numbers its cells row by row, y * 2 + x
    # here; a wider one column by column, x * 2 + y here.  Placements keep
    # their row-major anchor order either way.  Each has its lowest cell and
    # the mask of its cells shifted down by it.
    tall = build_universe(Rectangle(2, 3), (L_TROMINO, H_DOM))
    assert [(pl.piece, pl.at) for pl in tall.placements] == [
        ("L", (0, 0)), ("L", (0, 1)), ("h", (0, 0)), ("h", (0, 1)), ("h", (0, 2))]
    assert (tall.lo, tall.mask) == ([0, 2, 0, 2, 4], [0b111, 0b111, 0b11, 0b11, 0b11])
    rect = build_universe(Rectangle(3, 2), (L_TROMINO, H_DOM))
    assert [(pl.piece, pl.at) for pl in rect.placements] == [
        ("L", (0, 0)), ("L", (1, 0)),
        ("h", (0, 0)), ("h", (1, 0)), ("h", (0, 1)), ("h", (1, 1))]
    assert (rect.lo, rect.mask) == ([0, 2, 0, 2, 1, 3], [0b111] * 2 + [0b101] * 4)
    # A skewed basis of a 5-cell ring: each piece fits at every cell.
    ring = build_universe(Torus(TorusLattice((3, 1), (1, 2))), (L_TROMINO, H_DOM))
    assert [(pl.piece, pl.at) for pl in ring.placements] == \
        [("L", (x, 0)) for x in range(5)] + [("h", (x, 0)) for x in range(5)]
    # Cells (3, 4, 0), (4, 0, 1) and (4, 0) bend round the seam: masks of their own.
    assert (ring.lo, ring.mask) == ([0, 1, 2, 0, 0, 0, 1, 2, 3, 0],
                                    [0b111] * 3 + [0b11001, 0b10011] + [0b11] * 4 + [0b10001])


def test_check_tiling_torus_wraps():
    lat = TorusLattice((2, 0), (0, 2))
    placements = [Placement("v", (0, 0)), Placement("v", (1, 4))]
    assert check_tiling(Torus(lat), (V_DOM,), placements).exact


def test_check_tiling_unknown_piece():
    with pytest.raises(SolverInputError):
        check_tiling(Rectangle(2, 2), (V_DOM,), [Placement("zzz", (0, 0))])


def test_build_universe_region_cap():
    assert len(build_universe(Rectangle(solver._REGION_CAP, 1), (MONO,)).placements) \
        == solver._REGION_CAP
    with pytest.raises(solver.RegionLimitError):
        build_universe(Torus(TorusLattice((solver._REGION_CAP + 1, 0), (0, 1))), (MONO,))


def test_duplicate_piece_names_rejected():
    with pytest.raises(SolverInputError):
        build_universe(Rectangle(2, 2), (V_DOM, Polyomino(V_DOM.cells, "v")))


def test_contained_placements_empty_container():
    assert contained_placements(frozenset(), (MONO, H_DOM)) == []


def test_contained_placements_slot(three_tile_pieces):
    slot = geometry(BlockKind.SLOT_LEFT).dent
    found = contained_placements(slot, three_tile_pieces.pieces)
    assert len(found) == 1 and found[0].piece == "t_filler"
    r_slot = geometry(BlockKind.SLOT_RIGHT).dent
    found_r = contained_placements(r_slot, three_tile_pieces.pieces)
    assert len(found_r) == 1 and found_r[0].piece == "t_filler"


def test_contained_placements_rectangle_scan(three_tile_pieces):
    box = frozenset((x, y) for x in range(10) for y in range(20))
    t_filler = three_tile_pieces["t_filler"]
    found = contained_placements(box, (t_filler,))
    assert len(found) == 8 * 11  # 3x10 bounding box sliding in 10x20


def _placement_from_json(obj):
    """The one-record placement reader that Placements.from_json replaced,
    verbatim but for its return value: the oracle of the column reader."""
    if not (isinstance(obj, dict) and isinstance(obj.get("piece"), str)):
        raise SolverInputError(f"placement needs a piece name: {obj!r}")
    at = obj.get("at")
    if not is_coord_pair(at):
        raise SolverInputError(
            f"placement 'at' must be two integers of magnitude below "
            f"2**31, got {at!r}")
    return Placement(obj["piece"], tuple(at))


_EDGE_INTS = st.sampled_from([0, 1, -1, COORD_BOUND - 1, 1 - COORD_BOUND,
                              COORD_BOUND, -COORD_BOUND, 2 ** 63, -2 ** 63,
                              -2 ** 63 - 1, 2 ** 64])
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), _EDGE_INTS,
    st.floats(allow_nan=False), st.text(max_size=2),
    st.lists(st.integers(-3, 3), max_size=3), st.dictionaries(st.text(max_size=1),
                                                              st.integers(), max_size=2))
_COORDS = st.one_of(
    st.lists(st.one_of(st.integers(-3, 3), _EDGE_INTS), min_size=2, max_size=2),
    st.lists(st.one_of(st.integers(-3, 3), st.booleans(), st.floats(allow_nan=False),
                       _EDGE_INTS), max_size=3),
    _JSON_VALUES)
_VALID_RECORD = st.fixed_dictionaries({
    "piece": st.sampled_from(["a", "b", "c"]),
    "at": st.lists(st.one_of(st.integers(-3, 3), _EDGE_INTS.filter(
        lambda v: abs(v) < COORD_BOUND)), min_size=2, max_size=2)})
_ANY_RECORD = st.one_of(
    st.fixed_dictionaries({"piece": st.one_of(st.sampled_from(["a", "b"]), _JSON_VALUES),
                           "at": _COORDS}),
    st.fixed_dictionaries({}, optional={"piece": st.just("a"),
                                        "at": st.just([0, 0]), "x": _JSON_VALUES}),
    _JSON_VALUES)


@st.composite
def _records(draw):
    """Valid records with up to two arbitrary ones inserted anywhere."""
    records = draw(st.lists(_VALID_RECORD, max_size=6))
    for obj in draw(st.lists(_ANY_RECORD, max_size=2)):
        records.insert(draw(st.integers(0, len(records))), obj)
    return records


@given(_records())
@example([{"piece": "a", "at": [0, 0]}, {"piece": "a", "at": [True, 0]}])
@example([{"piece": "a", "at": [0, 0]}, {"piece": "b", "at": [0.0, 0]},
          {"piece": 5, "at": [0, 0]}])
@example([{"at": [0, 0]}, {"piece": "a"}])
@example([{"piece": "a", "at": [2 ** 31 - 1, 1 - 2 ** 31]},
          {"piece": "b", "at": [0, 0, 0]}])
@example([{"piece": "a", "at": [0, 0]}, {"piece": "b", "at": [0, -2 ** 31]}])
@example(["a", {"piece": "a", "at": {"x": 0}}])
@example([])
@settings(max_examples=500, deadline=None)
def test_placements_from_json_matches_record_reader(records):
    try:
        expected = [_placement_from_json(obj) for obj in records]
    except SolverInputError as exc:
        with pytest.raises(SolverInputError) as got:
            Placements.from_json(records)
        assert str(got.value) == str(exc)
        return
    placements = Placements.from_json(records)
    assert list(placements) == expected
    # Names hold the used pieces only, in order of first use.
    assert placements.names == tuple(dict.fromkeys(pl.piece for pl in expected))
    # The writer's records, read back: the same pieces and offsets in order.
    assert json.loads(cli._json_text(placements)) == [
        {"piece": pl.piece, "at": list(pl.at)} for pl in expected]
    assert not placements.at.flags.writeable
