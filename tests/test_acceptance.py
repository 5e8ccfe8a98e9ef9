"""Acceptance gate: one test per criterion, one pass/fail summary line each.

Each criterion asserts exact values (no tolerances anywhere) plus a wall-time
budget; the summary lines are printed in the terminal summary section.
"""

import functools
import random
import time

import pytest

import conftest
from conftest import example_three_tile_set, random_tileset
from polywang.blocks import (
    BLOCK,
    BUMP_KINDS,
    CANONICAL_OFFSETS,
    DENT_KINDS,
    SLOT_KINDS,
    BlockKind,
    block_cells,
    complement_check,
    geometry,
    partner,
)
from polywang.compiler import compile_pieces, encoder_block_at, encoder_width
from polywang.geometry import Polyomino, TorusLattice, is_connected
from polywang.simulate import emit_placements, linker_alignment_check
from polywang.solver import (
    Rectangle,
    Torus,
    build_universe,
    check_tiling,
    contained_placements,
    solve,
)
from polywang.wang import (
    WangTile,
    WangTileSet,
    WangTiling,
    find_periodic,
    solve_torus,
    validate,
)


def criterion(num, desc, budget):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                dt = time.perf_counter() - t0
                if dt > budget:
                    raise AssertionError(
                        f"runtime {dt:.2f}s exceeds {budget}s budget")
            except BaseException:
                conftest.ACCEPTANCE_RESULTS.append(
                    f"criterion {num}: FAIL - {desc}")
                raise
            conftest.ACCEPTANCE_RESULTS.append(
                f"criterion {num}: PASS - {desc} ({dt:.2f}s)")
        return wrapper
    return deco


@criterion(1, "block catalog cardinalities and complement checks", 1.0)
def test_criterion_1_blocks():
    table = {
        BlockKind.FUNCTIONAL: 100, BlockKind.SLOT_LEFT: 82,
        BlockKind.SLOT_RIGHT: 82, BlockKind.TAB: 18,
        BlockKind.Y_PLUS: 110, BlockKind.Y_MINUS: 110,
        BlockKind.Y_PLUS_DENT: 90, BlockKind.Y_MINUS_DENT: 90,
        BlockKind.X_BUMP: 109, BlockKind.X_DENT: 91,
        BlockKind.A_BUMP: 113, BlockKind.A_DENT: 87,
        BlockKind.B_BUMP: 117, BlockKind.B_DENT: 83,
    }
    for kind, count in table.items():
        assert len(block_cells(kind)) == count, kind
    for bump in BUMP_KINDS:
        assert complement_check(bump, partner(bump), CANONICAL_OFFSETS[bump])
    for slot in SLOT_KINDS:
        assert complement_check(slot, BlockKind.TAB, CANONICAL_OFFSETS[slot])
    mismatched = 0
    adjacent = ((BLOCK, 0), (-BLOCK, 0), (0, BLOCK), (0, -BLOCK))
    for bump in BUMP_KINDS:
        for dent in DENT_KINDS:
            if dent == partner(bump):
                continue
            mismatched += 1
            assert all(not complement_check(bump, dent, off)
                       for off in adjacent), (bump, dent)
    assert mismatched == 20


@criterion(2, "compile the three-tile example set", 1.0)
def test_criterion_2_compile():
    ts = example_three_tile_set()
    pieces = compile_pieces(ts)
    assert pieces.cell_counts == (8872, 1776, 1776, 620, 620, 4096, 18)
    for p in pieces.pieces:
        assert is_connected(p.cells), p.name
    assert encoder_width(ts) == 30
    assert encoder_block_at(ts, 0, 1) == BlockKind.A_DENT
    assert encoder_block_at(ts, 29, 1) == BlockKind.B_BUMP
    slots = (BlockKind.SLOT_LEFT, BlockKind.SLOT_RIGHT)
    for row in (0, 2):
        for col in range(2 * 3 * 2, 2 * 3 * 3):  # structural segment
            assert encoder_block_at(ts, col, row) not in slots


@criterion(3, "area identity across n in {2,3,4} x t in {1,2,3}", 30.0)
def test_criterion_3_area_identity():
    rng = random.Random(3)
    for n in (2, 3, 4):
        for t in (1, 2, 3):
            ts = random_tileset(rng, n, 1 << t)
            assert ts.t == t
            counts = compile_pieces(ts).cell_counts
            encoder, l_lk, r_lk, a_f, b_f, connector, t_f = counts
            assert l_lk == r_lk == 580 * n + 36
            assert a_f == b_f == 620 and t_f == 18
            total = (encoder + connector + (n - 1) * 620
                     + 2 * t * (580 * n + 36) + 72 * t * (n - 1))
            assert total == 2400 * n * (t + 1), (n, t)


@criterion(4, "exact-cover torus search on the example set", 1.0)
def test_criterion_4_wang_solver():
    ts = example_three_tile_set()
    tiling = solve_torus(ts, 3, 1, "first")
    assert tiling is not None
    assert tiling.cells in {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    assert validate(ts, tiling) == []
    assert solve_torus(ts, 3, 1, "count") == 3
    assert solve_torus(ts, 1, 1, "first") is None
    loop = WangTileSet((WangTile(0, 0, 0, 0),), ("a",))
    assert solve_torus(loop, 1, 1, "count") == 1


@criterion(5, "end-to-end simulation of the 3x1 torus plus mutations", 30.0)
def test_criterion_5_end_to_end():
    ts = example_three_tile_set()
    tiling = solve_torus(ts, 3, 1, "first")
    pieces = compile_pieces(ts)
    sim = emit_placements(ts, tiling)
    assert len(sim.placements) == 72
    sizes = {p.name: len(p) for p in pieces.pieces}
    assert sum(sizes[pl.piece] for pl in sim.placements) == 64800
    assert (sim.lattice.b1, sim.lattice.b2) == ((540, -180), (180, 60))
    report = check_tiling(Torus(sim.lattice), pieces.pieces, list(sim.placements))
    assert report.exact

    # mutation: delete one tiny filler -> exactly 18 uncovered cells
    without = [pl for pl in sim.placements]
    drop = next(i for i, pl in enumerate(without) if pl.piece == "t_filler")
    del without[drop]
    broken = check_tiling(Torus(sim.lattice), pieces.pieces, without)
    assert len(broken.uncovered) == 18 and not broken.overlaps

    # mutation: break one Wang adjacency -> alignment mismatches appear
    bad = WangTiling(3, 1, True, (1, 1, 2))
    assert validate(ts, bad) != []
    assert linker_alignment_check(ts, bad) != []


@criterion(6, "20 random solvable Wang sets verify end to end", 300.0)
def test_criterion_6_random_sets():
    rng = random.Random(7)
    verified = 0
    attempts = 0
    while verified < 20:
        attempts += 1
        assert attempts < 400, "could not find 20 solvable random sets"
        ts = random_tileset(rng, rng.randint(2, 4), rng.randint(2, 4))
        found = find_periodic(ts, 36)
        if found is None:
            continue
        _, _, tiling = found
        pieces = compile_pieces(ts)
        sim = emit_placements(ts, tiling)
        report = check_tiling(Torus(sim.lattice), pieces.pieces,
                              list(sim.placements))
        assert report.exact, ts
        assert linker_alignment_check(ts, tiling) == []
        verified += 1


@criterion(7, "exact-cover counts match oracles", 10.0)
def test_criterion_7_solver_oracles():
    h = Polyomino(frozenset({(0, 0), (1, 0)}), "h")
    v = Polyomino(frozenset({(0, 0), (0, 1)}), "v")
    fib = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    for n, expected in zip(range(1, 11), fib):
        uni = build_universe(Rectangle(2, n), (h, v))
        assert solve(uni, "count") == expected, n
    tromino = Polyomino(frozenset({(0, 0), (1, 0), (0, 1)}), "L")
    assert solve(build_universe(Rectangle(2, 3), (tromino,)), "count") == 0


@criterion(8, "slot containment is unique to the tiny filler", 30.0)
def test_criterion_8_slot_uniqueness():
    pieces = compile_pieces(example_three_tile_set()).pieces
    for slot_kind in (BlockKind.SLOT_LEFT, BlockKind.SLOT_RIGHT):
        slot = geometry(slot_kind).dent
        found = contained_placements(slot, pieces)
        assert len(found) == 1, slot_kind
        assert found[0].piece == "t_filler"
