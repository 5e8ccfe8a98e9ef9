import re
import xml.etree.ElementTree as ET

import pytest

from polywang.blocks import BlockKind, block_cells
from polywang.render import (PALETTE, RenderSpec, RenderError, boundary_loops,
                             path_data, render_svg)
from polywang.simulate import emit_placements
from polywang.geometry import Polyomino, bounding_box, translate

SVG = "{http://www.w3.org/2000/svg}"


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

