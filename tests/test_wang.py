import random
from typing import Iterator

import pytest

from conftest import random_tileset
from polywang.solver import RegionLimitError
from polywang.wang import (
    WangInputError,
    WangTile,
    WangTileSet,
    WangTiling,
    find_periodic,
    solve_torus,
    validate,
)


def _self_matching():
    return WangTileSet((WangTile(0, 0, 0, 0),), ("a",))


def _vertical_mismatch():
    return WangTileSet((WangTile(0, 1, 1, 1),), ("a", "b"))


def test_three_tile_set_shape(three_tile_set):
    s = three_tile_set
    assert (s.n, s.m, s.t) == (3, 4, 2)
    assert s.colors == ("red", "green", "yellow", "blue")
    assert s.tiles[0] == WangTile(0, 2, 0, 1)
    assert s.tiles[1] == WangTile(3, 0, 3, 2)
    assert s.tiles[2] == WangTile(2, 1, 2, 0)


def test_validate_three_tile_row(three_tile_set):
    tiling = WangTiling(3, 1, True, (0, 1, 2))
    assert validate(three_tile_set, tiling) == []


def test_validate_single_tile_torus():
    ok = WangTiling(1, 1, True, (0,))
    assert validate(_self_matching(), ok) == []
    assert validate(_vertical_mismatch(), ok) == [("v", 0, 0)]


def test_validate_rejects_bad_index(three_tile_set):
    with pytest.raises(WangInputError):
        validate(three_tile_set, WangTiling(1, 1, True, (7,)))


def test_solve_torus_three_tile(three_tile_set):
    first = solve_torus(three_tile_set, 3, 1, "first")
    assert first is not None and validate(three_tile_set, first) == []
    assert solve_torus(three_tile_set, 3, 1, "count") == 3
    sols = solve_torus(three_tile_set, 3, 1, "enumerate")
    assert {s.cells for s in sols} == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    assert solve_torus(three_tile_set, 1, 1, "count") == 0


def test_solve_torus_self_matching():
    assert solve_torus(_self_matching(), 1, 1, "count") == 1


# Five tiles over two colours; tiles 1 and 4 are equal.  The pinned orders
# are row-major, tile indices ascending.
_TWO_COLOUR = WangTileSet(tuple(WangTile(*edges) for edges in (
    (0, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, 0), (1, 1, 0, 1), (1, 0, 1, 0))),
    ("a", "b"))


def test_solve_torus_pinned_counts_and_order():
    counts = {(1, 1): 2, (2, 1): 4, (1, 2): 6, (3, 1): 8, (1, 3): 14,
              (2, 2): 20, (3, 2): 72, (2, 3): 76, (4, 3): 4144, (5, 1): 32}
    for (p, q), count in counts.items():
        assert solve_torus(_TWO_COLOUR, p, q, "count") == count, (p, q)
    orders = {
        (2, 2): [(0, 0, 3, 3), (0, 3, 3, 0), (1, 1, 1, 1), (1, 1, 1, 4),
                 (1, 1, 4, 1), (1, 1, 4, 4), (1, 4, 1, 1), (1, 4, 1, 4),
                 (1, 4, 4, 1), (1, 4, 4, 4), (3, 0, 0, 3), (3, 3, 0, 0),
                 (4, 1, 1, 1), (4, 1, 1, 4), (4, 1, 4, 1), (4, 1, 4, 4),
                 (4, 4, 1, 1), (4, 4, 1, 4), (4, 4, 4, 1), (4, 4, 4, 4)],
        (3, 1): [(1, 1, 1), (1, 1, 4), (1, 4, 1), (1, 4, 4), (4, 1, 1),
                 (4, 1, 4), (4, 4, 1), (4, 4, 4)],
        (1, 3): [(0, 3, 1), (0, 3, 4), (1, 0, 3), (1, 1, 1), (1, 1, 4),
                 (1, 4, 1), (1, 4, 4), (3, 1, 0), (3, 4, 0), (4, 0, 3),
                 (4, 1, 1), (4, 1, 4), (4, 4, 1), (4, 4, 4)],
    }
    for (p, q), cells in orders.items():
        assert [t.cells for t in solve_torus(_TWO_COLOUR, p, q, "enumerate")] \
            == cells, (p, q)
    assert solve_torus(_TWO_COLOUR, 4, 3, "first").cells == \
        (0, 0, 0, 0, 3, 3, 3, 3, 1, 1, 1, 1)


# The depth-first search solve_torus used before it became an exact cover,
# kept as the reference for its counts and its row-major order.
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


def test_solve_torus_matches_depth_first_search():
    rng = random.Random(30)
    shapes = [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (1, 3), (1, 4), (2, 2),
              (3, 2), (2, 3)]
    for _ in range(60):
        ts = random_tileset(rng, rng.randint(1, 5), rng.randint(1, 4))
        if rng.random() < 0.3:  # repeat a tile
            ts = WangTileSet(ts.tiles + (rng.choice(ts.tiles),), ts.colors)
        for p, q in shapes:
            want = list(_torus_solutions(ts, p, q))
            assert solve_torus(ts, p, q, "count") == len(want), (ts, p, q)
            assert [t.cells for t in solve_torus(ts, p, q, "enumerate")] == want
            first = solve_torus(ts, p, q, "first")
            assert (first and first.cells) == (want[0] if want else None)


def test_full_two_colour_set_counts_every_edge_colouring():
    full = WangTileSet.from_labels(
        [(n, e, s, w) for n in "ab" for e in "ab" for s in "ab" for w in "ab"])
    for p, q in ((4, 3), (5, 4)):
        assert solve_torus(full, p, q, "count") == 2 ** (2 * p * q)


def test_unknown_mode_rejected():
    # Before anything is built: a torus past the item limit still reads as this.
    for mode in ("frist", "Count", None):
        for side in (1, 10 ** 9):
            with pytest.raises(WangInputError, match="unknown mode"):
                solve_torus(_self_matching(), side, side, mode)


def test_find_periodic(three_tile_set):
    p, q, tiling = find_periodic(three_tile_set, 9)
    assert (p, q) == (3, 1)
    assert validate(three_tile_set, tiling) == []
    assert find_periodic(_self_matching(), 4) == (1, 1, WangTiling(1, 1, True, (0,)))
    assert find_periodic(_vertical_mismatch(), 12) is None


def test_find_periodic_returns_before_the_item_limit(three_tile_set):
    # Past 2**14 items a torus is refused; a solvable set's scan stops first.
    assert find_periodic(three_tile_set, 10 ** 6)[:2] == (3, 1)
    # 2000 colours make 4001 items a cell: a 5-cell torus is over the limit.
    wide = WangTileSet(_vertical_mismatch().tiles, tuple(f"c{i}" for i in range(2000)))
    assert find_periodic(wide, 4) is None
    with pytest.raises(RegionLimitError):
        find_periodic(wide, 5)


def test_solutions_always_validate():
    rng = random.Random(11)
    for _ in range(15):
        ts = random_tileset(rng, rng.randint(1, 4), rng.randint(1, 4))
        for tiling in solve_torus(ts, 2, 2, "enumerate")[:20]:
            assert validate(ts, tiling) == []


def test_count_invariant_under_color_renaming(three_tile_set):
    renamed = WangTileSet(three_tile_set.tiles[::],
                          ("c0", "c1", "c2", "c3"))
    # Permute indices with a nontrivial bijection as well.
    perm = {0: 2, 1: 3, 2: 0, 3: 1}
    permuted = WangTileSet(
        tuple(WangTile(*(perm[c] for c in t.edges())) for t in three_tile_set.tiles),
        three_tile_set.colors,
    )
    base = solve_torus(three_tile_set, 3, 2, "count")
    assert solve_torus(renamed, 3, 2, "count") == base
    assert solve_torus(permuted, 3, 2, "count") == base


def test_count_invariant_under_tile_rotation(three_tile_set):
    rotated = WangTileSet(three_tile_set.tiles[1:] + three_tile_set.tiles[:1],
                          three_tile_set.colors)
    for p, q in ((3, 1), (3, 2)):
        assert solve_torus(rotated, p, q, "count") == \
            solve_torus(three_tile_set, p, q, "count")


def test_torus_solution_unrolls(three_tile_set):
    base = solve_torus(three_tile_set, 3, 1, "first")
    p2, q2 = 6, 2
    cells = tuple(base.at(a % 3, b % 1) for b in range(q2) for a in range(p2))
    assert validate(three_tile_set, WangTiling(p2, q2, True, cells)) == []


def test_json_round_trip(three_tile_set):
    assert WangTileSet.from_json(three_tile_set.to_json()) == three_tile_set
    tiling = WangTiling(3, 1, True, (0, 1, 2))
    assert WangTiling.from_json(tiling.to_json()) == tiling


def test_input_validation():
    with pytest.raises(WangInputError):
        WangTileSet((), ())
    with pytest.raises(WangInputError):
        WangTileSet((WangTile(0, 0, 0, 5),), ("a",))
    with pytest.raises(WangInputError):
        WangTiling(2, 2, True, (0, 0, 0))
    with pytest.raises(WangInputError):
        solve_torus(_self_matching(), 0, 1)


def test_explicit_color_order():
    obj = {"colors": ["b", "a"], "tiles": [{"n": "a", "e": "a", "s": "a", "w": "b"}]}
    ts = WangTileSet.from_json(obj)
    assert ts.colors == ("b", "a")
    assert ts.tiles[0] == WangTile(1, 1, 1, 0)
    with pytest.raises(WangInputError):
        WangTileSet.from_json(
            {"colors": ["a"], "tiles": [{"n": "z", "e": "a", "s": "a", "w": "a"}]})
