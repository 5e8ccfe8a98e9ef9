"""Deterministic SVG rendering of piece sets and tilings.

Each distinct piece is traced once, as one closed path along its cell
boundary (outer loops and holes, even-odd fill) under ``<defs>``; each
placement is one ``<use>`` of that path at its offset.  Stored data keeps y
growing north; the y-flip into SVG screen coordinates happens only here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .geometry import Cell, CellSet, Polyomino, bounding_box
from .solver import Placement, piece_map

PALETTE = ("#7b52ab", "#e8833a", "#3a7bd5", "#4caf50",
           "#d54a3a", "#c2a83e", "#5bb8b4")


class RenderError(ValueError):
    pass


@dataclass(frozen=True)
class RenderSpec:
    cell_size: int = 4
    grid: bool = False

    def __post_init__(self):
        if self.cell_size < 1:
            raise RenderError(f"cell size must be at least 1, not {self.cell_size}")


def boundary_loops(cells: CellSet) -> list[list[Cell]]:
    """Closed boundary loops of a cell set, interior kept on the left.

    Outer loops come out counterclockwise and holes clockwise, so signed
    loop areas sum to the cell count.
    """
    cells = frozenset(cells)
    edges: dict[Cell, list[Cell]] = {}

    def add(a: Cell, b: Cell):
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


def _collinear_pruned(loop: list[Cell]) -> list[Cell]:
    out = []
    k = len(loop)
    for i, p in enumerate(loop):
        a, b = loop[i - 1], loop[(i + 1) % k]
        if (b[0] - a[0]) * (p[1] - a[1]) != (b[1] - a[1]) * (p[0] - a[0]):
            out.append(p)
    return out


def path_data(cells: CellSet, scale: int, flip_y: int) -> str:
    parts = []
    for loop in boundary_loops(cells):
        pts = _collinear_pruned(loop)
        coords = [f"{x * scale},{(flip_y - y) * scale}" for x, y in pts]
        parts.append("M" + "L".join(coords) + "Z")
    return "".join(parts)


def render_svg(spec: RenderSpec, payload: Sequence[Polyomino] | Sequence[Placement],
               pieces: Sequence[Polyomino] | None = None) -> str:
    """SVG document for a list of pieces (laid out in a row) or of placements.

    A tiling is drawn from its placements alone, so a placement list from
    a rectangle renders like the placements of a torus tiling.
    """
    s = spec.cell_size
    items = list(payload)
    if not items:
        raise RenderError("empty payload")
    # Both payloads become shapes plus (shape index, offset) entries.
    if isinstance(items[0], Placement):
        if pieces is None:
            raise RenderError("tiling rendering needs the piece set")
        shapes = sorted(piece_map(pieces).values(), key=lambda p: p.name)
        rank = {p.name: k for k, p in enumerate(shapes)}
        entries = []
        for pl in items:
            if pl.piece not in rank:
                raise RenderError(f"unknown piece {pl.piece!r}")
            entries.append((rank[pl.piece], pl.at))
    else:
        shapes, entries, cursor = items, [], 0
        for k, piece in enumerate(items):
            x0, y0, x1, _ = bounding_box(piece.xy)
            entries.append((k, (cursor - x0, -y0)))
            cursor += (x1 - x0) + 2

    boxes = [bounding_box(p.xy) for p in shapes]
    x0 = min(boxes[k][0] + ax for k, (ax, _) in entries)
    y0 = min(boxes[k][1] + ay for k, (_, ay) in entries)
    x1 = max(boxes[k][2] + ax for k, (ax, _) in entries)
    y1 = max(boxes[k][3] + ay for k, (_, ay) in entries)
    w, h = (x1 - x0 + 2) * s, (y1 - y0 + 2) * s
    flip = y1 + 1  # top margin of one cell after the flip
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="{(x0 - 1) * s} 0 {w} {h}">',
        "<defs>",
    ]
    for k, piece in enumerate(shapes):
        lines.append(f'<path id="p{k}" d="{path_data(piece.cells, s, 0)}" '
                     f'fill="{PALETTE[k % len(PALETTE)]}" fill-rule="evenodd" '
                     f'stroke="#222" stroke-width="0.5"/>')
    lines.append("</defs>")
    for k, (ax, ay) in entries:
        lines.append(f'<use href="#p{k}" x="{ax * s}" y="{(flip - ay) * s}"/>')
    if spec.grid:
        for gx in range(x0, x1 + 1):
            lines.append(f'<line x1="{gx * s}" y1="{(flip - y1) * s}" '
                         f'x2="{gx * s}" y2="{(flip - y0) * s}" '
                         f'stroke="#ccc" stroke-width="0.25"/>')
        for gy in range(y0, y1 + 1):
            lines.append(f'<line x1="{x0 * s}" y1="{(flip - gy) * s}" '
                         f'x2="{x1 * s}" y2="{(flip - gy) * s}" '
                         f'stroke="#ccc" stroke-width="0.25"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
