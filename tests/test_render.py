import hashlib
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polywang.blocks import BlockKind, block_cells
from polywang.compiler import compile_pieces
from polywang.render import (PALETTE, RenderSpec, RenderError, boundary_loops,
                             path_data, render_svg)
from polywang.simulate import emit_placements
from polywang.geometry import Polyomino, bounding_box, is_connected, translate
from polywang.wang import WangTileSet, solve_torus

SVG = "{http://www.w3.org/2000/svg}"


def _unit_edge_loops(cells):
    """Boundary loops through every unit-edge vertex, walked edge by edge on
    a set: the oracle for boundary_loops once collinear vertices are gone."""
    cells = frozenset(cells)
    edges = {}

    def add(a, b):
        edges.setdefault(a, []).append(b)

    for x, y in cells:
        if (x, y - 1) not in cells:
            add((x, y), (x + 1, y))
        if (x + 1, y) not in cells:
            add((x + 1, y), (x + 1, y + 1))
        if (x, y + 1) not in cells:
            add((x + 1, y + 1), (x, y + 1))
        if (x - 1, y) not in cells:
            add((x, y + 1), (x, y))
    for v in edges.values():
        v.sort()

    loops = []
    while edges:
        start = min(edges)
        loop = [start]
        prev = None
        cur = start
        while True:
            outs = edges[cur]
            if len(outs) == 1 or prev is None:
                nxt = outs.pop(0)
            else:
                # Checkerboard corner: turn left (interior on the left).
                din = (cur[0] - prev[0], cur[1] - prev[1])
                left = (-din[1], din[0])
                want = (cur[0] + left[0], cur[1] + left[1])
                nxt = outs.pop(outs.index(want))
            if not outs:
                del edges[cur]
            prev, cur = cur, nxt
            if cur == start:
                break
            loop.append(cur)
        loops.append(loop)
    return loops


def _oracle_corners(cells):
    """The oracle's loops less every vertex between collinear neighbours."""
    out = []
    for loop in _unit_edge_loops(cells):
        corners, k = [], len(loop)
        for i, p in enumerate(loop):
            a, b = loop[i - 1], loop[(i + 1) % k]
            if (b[0] - a[0]) * (p[1] - a[1]) != (b[1] - a[1]) * (p[0] - a[0]):
                corners.append(p)
        out.append(corners)
    return out


_NEAR_BOUND = 2 ** 31 - 1


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=80),
       st.tuples(*[st.integers(-50, 50)
                   | st.integers(-_NEAR_BOUND, -_NEAR_BOUND + 3)
                   | st.integers(_NEAR_BOUND - 10, _NEAR_BOUND - 7)] * 2))
@example([(0, 0), (1, 1)], (0, 0))  # checkerboard pair
@example([(x, y) for x in range(3) for y in range(3)  # ring with a hole
          if (x, y) != (1, 1)], (0, 0))
@example([(0, 0), (2, 0)], (0, 0))  # two components
@example([(0, 0)], (0, 0))
@settings(max_examples=400, deadline=None)
def test_corner_loops_match_unit_edge_walk(cells, offset):
    # Random subsets of an 8 x 8 grid, repeats included, moved by small
    # offsets or next to +-(2**31 - 1).
    moved = [(x + offset[0], y + offset[1]) for x, y in cells]
    expected = _oracle_corners(moved)
    assert boundary_loops(np.array(moved, np.int64).reshape(-1, 2)) == expected
    assert boundary_loops(frozenset(moved)) == expected


@st.composite
def barred_cells(draw):
    """A union of horizontal bars up to 40 cells long, stacked over a few
    rows, less some holes, with some checkerboard corners forced: a cell
    (x, y) joined to (x + 1, y + 1) with (x + 1, y) and (x, y + 1) removed."""
    bars = draw(st.lists(st.tuples(st.integers(-45, 5), st.integers(-2, 2),
                                   st.integers(1, 40)), min_size=1, max_size=6))
    cells = {(x + i, y) for x, y, n in bars for i in range(n)}
    cells -= draw(st.sets(st.sampled_from(sorted(cells)), max_size=6))
    if cells:
        for x, y in draw(st.lists(st.sampled_from(sorted(cells)), max_size=3)):
            cells = (cells | {(x, y), (x + 1, y + 1)}) - {(x + 1, y), (x, y + 1)}
    return sorted(cells)


@given(barred_cells())
@example([(x, 0) for x in range(40)] + [(40, 1)] + [(x, 2) for x in range(41)])
@example([(x, 0) for x in range(40) if x != 17] + [(x, 1) for x in range(40)]
         + [(x, -1) for x in range(3, 37) if x % 9])  # holes and notches
@settings(max_examples=300, deadline=None)
def test_corner_loops_match_unit_edge_walk_on_long_runs(cells):
    expected = _oracle_corners(cells)
    assert boundary_loops(frozenset(cells)) == expected
    assert boundary_loops(np.array(cells, np.int64).reshape(-1, 2)) == expected
    if is_connected(cells):
        piece = Polyomino(cells, "bars")
        assert boundary_loops(piece) == expected
        assert path_data(piece, 3, 7) == path_data(cells, 3, 7)


def test_corner_loops_match_unit_edge_walk_on_blocks_and_pieces(three_tile_pieces):
    for kind in BlockKind:
        cells = block_cells(kind)
        assert boundary_loops(cells) == _oracle_corners(cells), kind
    for piece in three_tile_pieces.pieces:
        assert boundary_loops(piece.xy) == _oracle_corners(piece.cells), piece.name


def _signed_area(loop):
    s = 0
    for i, (x0, y0) in enumerate(loop):
        x1, y1 = loop[(i + 1) % len(loop)]
        s += x0 * y1 - x1 * y0
    return s / 2


def test_loops_signed_area_equals_cell_count():
    for kind in BlockKind:
        cells = block_cells(kind)
        loops = boundary_loops(cells)
        assert sum(_signed_area(lp) for lp in loops) == len(cells), kind


def test_single_tab_outline(three_tile_pieces):
    svg = render_svg(RenderSpec(), [three_tile_pieces["t_filler"]])
    assert svg.count("<path") == 1


def test_piece_set_renders_seven_paths(three_tile_pieces):
    svg = render_svg(RenderSpec(), three_tile_pieces.pieces)
    assert svg.count("<path") == 7
    assert svg.startswith("<svg")


def test_tiling_renders_one_path_per_placement(
        three_tile_set, three_tile_torus, three_tile_pieces):
    sim = emit_placements(three_tile_set, three_tile_torus)
    svg = render_svg(RenderSpec(cell_size=2), sim.placements, three_tile_pieces.pieces)
    assert svg.count("<use") == 72


def test_render_is_deterministic(three_tile_pieces):
    a = render_svg(RenderSpec(), three_tile_pieces.pieces)
    b = render_svg(RenderSpec(), three_tile_pieces.pieces)
    assert a == b


def test_empty_payload_rejected():
    with pytest.raises(RenderError):
        render_svg(RenderSpec(), [])


def test_grid_lines():
    piece = Polyomino(frozenset({(0, 0), (1, 0)}), "d")
    svg = render_svg(RenderSpec(grid=True), [piece])
    assert "<line" in svg


def _drawn(svg):
    """(d, fill) of each drawn shape: each <use> expanded by its <defs> path."""
    root = ET.fromstring(svg)
    defs = {p.get("id"): p for p in root.find(SVG + "defs")}
    out = []
    for use in root.findall(SVG + "use"):
        path = defs[use.get("href").removeprefix("#")]
        x, y = int(use.get("x")), int(use.get("y"))
        d = re.sub(r"(-?\d+),(-?\d+)",
                   lambda m: f"{int(m[1]) + x},{int(m[2]) + y}", path.get("d"))
        out.append((d, path.get("fill")))
    return out, len(defs)


def _traced(placed, scale):
    """(d, fill) of each placed cell set, traced on its own in place."""
    flip = bounding_box([c for cells, _ in placed for c in cells])[3] + 1
    return [(path_data(cells, scale, flip), fill) for cells, fill in placed]


def test_tiling_uses_expand_to_placement_paths(
        three_tile_set, three_tile_torus, three_tile_pieces):
    sim = emit_placements(three_tile_set, three_tile_torus)
    names = sorted(p.name for p in three_tile_pieces.pieces)
    placed = [(translate(three_tile_pieces[pl.piece].cells, pl.at),
               PALETTE[names.index(pl.piece) % len(PALETTE)])
              for pl in sim.placements]
    svg = render_svg(RenderSpec(cell_size=2), sim.placements, three_tile_pieces.pieces)
    assert _drawn(svg) == (_traced(placed, 2), 7)


def test_piece_set_uses_expand_to_row_layout(three_tile_pieces):
    placed, cursor = [], 0
    for i, piece in enumerate(three_tile_pieces.pieces):
        x0, y0, x1, _ = bounding_box(piece.cells)
        placed.append((translate(piece.cells, (cursor - x0, -y0)),
                       PALETTE[i % len(PALETTE)]))
        cursor += (x1 - x0) + 2
    svg = render_svg(RenderSpec(cell_size=3), three_tile_pieces.pieces)
    assert _drawn(svg) == (_traced(placed, 3), 7)



def test_render_output_pinned():
    # sha256 of render_svg bytes for data/three_tile_set.json, as the
    # unit-edge tracer wrote them.
    data = Path(__file__).resolve().parent.parent / "data" / "three_tile_set.json"
    tileset = WangTileSet.from_json(json.loads(data.read_text()))
    pieces = compile_pieces(tileset).pieces
    sim = emit_placements(tileset, solve_torus(tileset, 3, 1, "first"))
    cases = [
        (render_svg(RenderSpec(), pieces),
         "1d5ef2b2f291ce051837c894c45a105e57ced7a99d66ab70c4980b77c2be762c"),
        (render_svg(RenderSpec(cell_size=2), sim.placements, pieces),
         "ff56b4f1944c3f264d4cbe35cb1f9b5c60125e7e267259f9852e1bcbcad141bc"),
        (render_svg(RenderSpec(cell_size=2, grid=True), sim.placements, pieces),
         "702aee93559a61698ac35a98b3d8c619750baf4f086403b333108294bdc4e09b"),
    ]
    for svg, digest in cases:
        assert hashlib.sha256(svg.encode()).hexdigest() == digest
