import hashlib
import json
import random

import pytest

from polywang import cli

from polywang.compiler import compile_pieces
from polywang.simulate import (
    PatternLattice,
    SimulatedTiling,
    emit_placements,
    expected_placements_per_cell,
    linker_alignment_check,
    wang_cell_to_diamond,
)
from polywang.solver import Placements, Torus, check_tiling, region_from_json
from polywang.wang import WangInputError, WangTile, WangTileSet, WangTiling


def test_diamond_map():
    assert wang_cell_to_diamond(0, 0) == (0, 0)
    assert wang_cell_to_diamond(0, 1) == (0, 1)
    assert wang_cell_to_diamond(1, 0) == (1, -1)


def test_pattern_lattice(three_tile_set):
    pat = PatternLattice(three_tile_set.n, three_tile_set.t)
    assert pat.period == 36
    assert pat.step_right == (18, -6)
    assert pat.step_up == (18, 6)
    assert pat.connector_origin(0, 0) == (0, -3)
    assert pat.connector_origin(1, 1) == (54, 3)
    lat = pat.torus_lattice(3, 1)
    assert (lat.b1, lat.b2) == ((540, -180), (180, 60))
    assert lat.num_cells == 64800


def test_emit_three_tile_torus(three_tile_set, three_tile_torus, three_tile_pieces):
    sim = emit_placements(three_tile_set, three_tile_torus)
    assert len(sim.placements) == 72
    assert expected_placements_per_cell(3, 2) == 24
    by_piece = {}
    for pl in sim.placements:
        by_piece[pl.piece] = by_piece.get(pl.piece, 0) + 1
    # linker split = number of 0/1 bits over all W and N colors of the tiling
    assert by_piece == {"encoder": 3, "connector": 3, "a_filler": 3,
                        "b_filler": 3, "l_linker": 7, "r_linker": 5,
                        "t_filler": 48}
    sizes = dict(zip((p.name for p in three_tile_pieces.pieces),
                     three_tile_pieces.cell_counts))
    assert sum(sizes[pl.piece] for pl in sim.placements) == 64800


def test_emitted_tiling_is_exact(three_tile_set, three_tile_torus, three_tile_pieces):
    sim = emit_placements(three_tile_set, three_tile_torus)
    report = check_tiling(Torus(sim.lattice), three_tile_pieces.pieces,
                          list(sim.placements))
    assert report.exact


def test_connectors_form_rigid_lattice(three_tile_set, three_tile_torus):
    sim = emit_placements(three_tile_set, three_tile_torus)
    pat = PatternLattice(three_tile_set.n, three_tile_set.t)
    got = {pl.at for pl in sim.placements if pl.piece == "connector"}
    expected = set()
    for b in range(three_tile_torus.q):
        for a in range(three_tile_torus.p):
            u, v = wang_cell_to_diamond(a, b)
            kx, ky = pat.connector_origin(u, v)
            expected.add(sim.lattice.reduce((10 * kx, 10 * ky)))
    assert got == expected
    # every connector offset differs by a step of the rigid lattice
    base = (10 * pat.connector_origin(0, 0)[0], 10 * pat.connector_origin(0, 0)[1])
    sr = (10 * pat.step_right[0], 10 * pat.step_right[1])
    su = (10 * pat.step_up[0], 10 * pat.step_up[1])
    spanned = {sim.lattice.reduce((base[0] + i * sr[0] + j * su[0],
                                   base[1] + i * sr[1] + j * su[1]))
               for i in range(-4, 5) for j in range(-4, 5)}
    assert got <= spanned


def test_equivariance_under_cyclic_shift(three_tile_set):
    pat = PatternLattice(three_tile_set.n, three_tile_set.t)
    base = WangTiling(3, 1, True, (0, 1, 2))
    shifted = WangTiling(3, 1, True, (1, 2, 0))  # tiling moved one cell west
    sim0 = emit_placements(three_tile_set, base)
    sim1 = emit_placements(three_tile_set, shifted)
    sr = (10 * pat.step_right[0], 10 * pat.step_right[1])
    moved = {(pl.piece, sim0.lattice.reduce((pl.at[0] + sr[0], pl.at[1] + sr[1])))
             for pl in sim1.placements}
    assert moved == {(pl.piece, pl.at) for pl in sim0.placements}


def test_alignment_check_clean(three_tile_set, three_tile_torus):
    assert linker_alignment_check(three_tile_set, three_tile_torus) == []


def test_alignment_check_detects_break(three_tile_set):
    broken = WangTiling(3, 1, True, (1, 1, 2))
    assert linker_alignment_check(three_tile_set, broken) != []


def test_alignment_check_minimal_set():
    ts = WangTileSet((WangTile(0, 0, 0, 0), WangTile(1, 1, 1, 1)), ("a", "b"))
    tiling = WangTiling(1, 1, True, (0,))
    assert linker_alignment_check(ts, tiling) == []
    sim = emit_placements(ts, tiling)
    report = check_tiling(Torus(sim.lattice), compile_pieces(ts).pieces,
                          list(sim.placements))
    assert report.exact


def test_emitted_names_are_the_used_pieces_in_file_order():
    # Tile 0 of two on a one-cell torus: no B-filler, one linker kind.
    ts = WangTileSet((WangTile(0, 0, 0, 0), WangTile(1, 1, 1, 1)), ("a", "b"))
    sim = emit_placements(ts, WangTiling(1, 1, True, (0,)))
    used = tuple(dict.fromkeys(pl.piece for pl in sim.placements))
    assert sim.placements.names == used
    assert len(used) == 5 and "b_filler" not in used


def test_emit_rejects_bad_input(three_tile_set):
    with pytest.raises(WangInputError):
        emit_placements(three_tile_set, WangTiling(3, 1, False, (0, 1, 2)))
    with pytest.raises(WangInputError):
        emit_placements(three_tile_set, WangTiling(3, 1, True, (0, 0, 0)))


def test_simulated_tiling_round_trip(three_tile_set, three_tile_torus):
    sim = emit_placements(three_tile_set, three_tile_torus)
    text = cli._json_text(sim.to_json())
    obj = json.loads(text)
    region = region_from_json(obj)
    back = SimulatedTiling(region.lattice, Placements.from_json(obj["placements"]))
    assert back.lattice == sim.lattice
    assert list(back.placements) == list(sim.placements)
    assert cli._json_text(back.to_json()) == text


def _nine_distinct_tiles(seed: int) -> WangTileSet:
    """A 4-colour set of the nine distinct tiles of a random 3x3 torus
    colouring; tile k sits on Wang cell k, row-major."""
    rng = random.Random(seed)
    while True:
        east = [[rng.randrange(4) for _ in range(3)] for _ in range(3)]
        north = [[rng.randrange(4) for _ in range(3)] for _ in range(3)]
        tiles = [(north[b][a], east[b][a], north[(b - 1) % 3][a],
                  east[b][(a - 1) % 3]) for b in range(3) for a in range(3)]
        if len(set(tiles)) == 9:
            break
    return WangTileSet(tuple(WangTile(*e) for e in tiles),
                       tuple(f"c{i}" for i in range(4)))


# Tile 2 matches itself on every side; tiles 0, 1, 3 cycle the colours
# c0 -> c5 -> c7 -> c0 up column 1 of a 2 x 3 torus.
_FOUR_TILES = WangTileSet(
    (WangTile(5, 0, 0, 0), WangTile(7, 0, 5, 0), WangTile(0, 0, 0, 0),
     WangTile(0, 0, 7, 0)),
    tuple(f"c{i}" for i in range(8)))


def test_emit_output_pinned(three_tile_set, three_tile_torus):
    # sha256 of the simulate output bytes: placement order and every offset.
    cases = [
        (three_tile_set, three_tile_torus,
         "5d13556b24d944634feb206718b3b1cfdbba4443a68a6d494ca30793ef572298"),
        (_nine_distinct_tiles(1), WangTiling(3, 3, True, tuple(range(9))),
         "3926d0880193ff7998cb2bbdb98f3fc4e393cbf992f49c5e9d321ce42f11b5a8"),
        (_FOUR_TILES, WangTiling(2, 3, True, (2, 0, 2, 1, 2, 3)),
         "7f80e80870e4e37b22689ec8848ac4e4ca9ddc275d2ab64b40713826a7a3f13c"),
    ]
    for tileset, tiling, digest in cases:
        text = cli._json_text(emit_placements(tileset, tiling).to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == digest
