"""Deterministic SVG rendering of piece sets and tilings.

Each distinct piece is traced once from its row runs, as one closed path
through the corners of its boundary loops (outer loops and holes, even-odd
fill) under ``<defs>``; each placement is one ``<use>`` of that path at its
offset.  Stored data keeps y growing north; the y-flip into SVG screen
coordinates happens only here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Cell, Polyomino, bounding_box, row_runs
from .solver import Placement, Placements, piece_map

# A larger grid is a resource limit (a 16 x 16 tiling of 16-tile pieces has 53,830).
MAX_GRID_LINES = 10 ** 6
PALETTE = ("#7b52ab", "#e8833a", "#3a7bd5", "#4caf50",
           "#d54a3a", "#c2a83e", "#5bb8b4")


class RenderError(ValueError):
    pass


class GridLimitError(Exception):
    """A grid of more than MAX_GRID_LINES lines was asked for."""


@dataclass(frozen=True)
class RenderSpec:
    cell_size: int = 4
    grid: bool = False

    def __post_init__(self):
        if self.cell_size < 1:
            raise RenderError(f"cell size must be at least 1, not {self.cell_size}")


def boundary_loops(cells) -> list[list[Cell]]:
    """The corners of each boundary loop of a cell set (a Polyomino, traced
    from its stored row runs, an int64 (k, 2) array or an iterable of
    cells; a repeated cell counts once), interior on the left: outer loops
    counterclockwise and holes clockwise, so signed loop areas sum to the
    cell count.  Loops come in order of their least corner and start there;
    at a checkerboard corner a loop turns left."""
    first, n = row_runs(cells)
    if not len(n):
        return []
    x, y = first.T
    # Maximal bare sides heading east (bottom), north (right), west (top) and
    # south (left), d = 0..3.  A sweep of line y over the sorted run ends of
    # rows y (weight 1) and y - 1 (weight 2) finds bottom sides where the
    # weights sum to 1 and top sides where they sum to 2.
    line, pos = (y + [[0], [0], [1], [1]]).ravel(), (x + n * [[0], [1], [0], [1]]).ravel()
    order = np.lexsort((pos, line))
    line, pos = line[order], pos[order]
    weight = np.cumsum(np.repeat([1, -1, 2, -2], len(n))[order])[:-1]
    i = np.flatnonzero(((weight == 1) | (weight == 2)) & (pos[1:] > pos[:-1]))
    east = weight[i] == 1
    sides = [(pos[i + 1 - east], line[i], pos[i + east], line[i], 2 - 2 * east)]
    # Left sides on lines x and right sides on lines x + n, merged down columns.
    line, pos, d = (x + n * [[0], [1]]).ravel(), np.tile(y, 2), np.repeat([3, 1], len(n))
    order = np.lexsort((pos, line, d))
    line, pos, d = line[order], pos[order], d[order]
    cut = np.flatnonzero((np.diff((d, line, pos)) != [[0], [0], [1]]).any(axis=0)) + 1
    i, j = np.concatenate(([0], cut)), np.concatenate((cut, [len(pos)])) - 1
    a, b = np.where(d[i] == 1, (pos[i], pos[j] + 1), (pos[j] + 1, pos[i]))
    sides.append((line[i], a, line[i], b, d[i]))
    sx, sy, ex, ey, heading = map(np.concatenate, zip(*sides))
    # A corner pairs the sides ending there with those starting there; at a
    # checkerboard corner (two of each) a side heading d turns left, to d + 1.
    by_start = np.lexsort((heading, sy, sx))
    succ = np.empty_like(heading)
    succ[np.lexsort(((heading + 1) % 4, ey, ex))] = by_start
    # Each loop is walked from its least corner.  A loop leaving a
    # checkerboard corner other than eastwards passes a lesser corner, so it
    # is walked before any loop can start there.
    corners, succ = list(zip(sx.tolist(), sy.tolist())), succ.tolist()
    loops, seen = [], [False] * len(succ)
    for r in by_start.tolist():
        loop = []
        while not seen[r]:
            seen[r] = True
            loop.append(corners[r])
            r = succ[r]
        if loop:
            loops.append(loop)
    return loops


def path_data(cells, scale: int, flip_y: int) -> str:
    return "".join("M" + "L".join(f"{x * scale},{(flip_y - y) * scale}"
                                  for x, y in loop) + "Z"
                   for loop in boundary_loops(cells))


def render_svg(spec: RenderSpec, payload: Sequence[Polyomino | Placement] | Placements,
               pieces: Sequence[Polyomino] | None = None) -> str:
    """SVG document for a list of pieces (laid out in a row) or of placements.

    A tiling is drawn from its placements alone, so a placement list from
    a rectangle renders like the placements of a torus tiling.
    """
    s = spec.cell_size
    if not len(payload):
        raise RenderError("empty payload")
    # Both payloads become shapes plus a shape index and an offset per entry.
    if isinstance(payload, Placements) or isinstance(payload[0], Placement):
        if pieces is None:
            raise RenderError("tiling rendering needs the piece set")
        shapes = sorted(piece_map(pieces).values(), key=lambda p: p.name)
        rank = {p.name: k for k, p in enumerate(shapes)}
        payload = Placements.of(payload)
        if unknown := [name for name in payload.names if name not in rank]:
            raise RenderError(f"unknown piece {unknown[0]!r}")
        shape, at = np.take([rank[n] for n in payload.names], payload.piece), payload.at
    else:  # in a row, each piece's box two cells right of the last one's
        shapes, shape = payload, np.arange(len(payload))
        x0, y0, x1, _ = np.array([bounding_box(p.xy) for p in shapes]).T
        at = np.column_stack((np.cumsum(x1 - x0 + 2) - x1 - 2, -y0))

    box = np.array([bounding_box(p.xy) for p in shapes])[shape] + np.tile(at, 2)
    x0, y0 = int(box[:, 0].min()), int(box[:, 1].min())
    x1, y1 = int(box[:, 2].max()), int(box[:, 3].max())
    if spec.grid and (n := (x1 - x0 + 1) + (y1 - y0 + 1)) > MAX_GRID_LINES:
        raise GridLimitError(f"a grid of {n} lines is over the limit of {MAX_GRID_LINES}")
    w, h = (x1 - x0 + 2) * s, (y1 - y0 + 2) * s
    flip = y1 + 1  # top margin of one cell after the flip
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="{(x0 - 1) * s} 0 {w} {h}">',
        "<defs>",
    ]
    for k, piece in enumerate(shapes):
        lines.append(f'<path id="p{k}" d="{path_data(piece, s, 0)}" '
                     f'fill="{PALETTE[k % len(PALETTE)]}" fill-rule="evenodd" '
                     f'stroke="#222" stroke-width="0.5"/>')
    lines.append("</defs>")
    ax, ay = at[:, 0].tolist(), (flip - at[:, 1]).tolist()
    lines += map('<use href="#p{}" x="{}" y="{}"/>'.format, shape.tolist(),
                 map(s.__mul__, ax), map(s.__mul__, ay))
    if spec.grid:
        grid = '<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="#ccc" stroke-width="0.25"/>'
        lines += [grid.format(gx * s, (flip - y1) * s, gx * s, (flip - y0) * s)
                  for gx in range(x0, x1 + 1)]
        lines += [grid.format(x0 * s, (flip - gy) * s, x1 * s, (flip - gy) * s)
                  for gy in range(y0, y1 + 1)]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
