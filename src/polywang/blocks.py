"""Catalog of the elementary building blocks.

Every block is a 10x10 functional square, possibly with a bump protruding
outside the frame or a dent/slot carved out of it.  The whole catalogue is
derived from one table of bump/dent pairs (each bump's outline and where
its dent block sits) and the two slot anchors; the outlines are fixed
vertex tuples, rasterized once at import time.  Blocks are anchored at their
southwest frame corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .geometry import CellSet, Vec, cell_array, rasterize, translate

BLOCK = 10  # frame edge length in unit cells


class BlockKind(Enum):
    FUNCTIONAL = "functional"
    SLOT_LEFT = "l"
    SLOT_RIGHT = "r"
    TAB = "tab"
    Y_PLUS = "Y+"
    Y_PLUS_DENT = "y+"
    Y_MINUS = "Y-"
    Y_MINUS_DENT = "y-"
    X_BUMP = "X"
    X_DENT = "x"
    A_BUMP = "A"
    A_DENT = "a"
    B_BUMP = "B"
    B_DENT = "b"


SQUARE: CellSet = frozenset((x, y) for x in range(BLOCK) for y in range(BLOCK))

SLOT_CELLS = rasterize(  # the l-slot
    ((1, 0), (1, 10), (2, 10), (2, 9), (4, 9), (4, 6), (3, 6), (3, 8),
     (2, 8), (2, 2), (3, 2), (3, 4), (4, 4), (4, 1), (2, 1), (2, 0)))
TAB_CELLS = translate(SLOT_CELLS, (-1, 0))       # tab with its own origin at x=0

# Each bump kind, its dent kind, the offset of the dent block's frame from
# the bump block's, and the outline of the bump's protrusion.
_PAIRS = (
    (BlockKind.Y_PLUS, BlockKind.Y_PLUS_DENT, (0, BLOCK),
     ((4, 10), (4, 13), (2, 13), (2, 12), (3, 12), (3, 11), (1, 11),
      (1, 14), (5, 14), (5, 10))),
    (BlockKind.Y_MINUS, BlockKind.Y_MINUS_DENT, (0, -BLOCK),
     ((4, 0), (4, -3), (2, -3), (2, -2), (3, -2), (3, -1), (1, -1),
      (1, -4), (5, -4), (5, 0))),
    (BlockKind.X_BUMP, BlockKind.X_DENT, (BLOCK, 0),
     ((10, 9), (12, 9), (12, 1), (11, 1), (11, 8), (10, 8))),
    (BlockKind.A_BUMP, BlockKind.A_DENT, (BLOCK, 0),
     ((10, 9), (14, 9), (14, 6), (12, 6), (12, 1), (11, 1), (11, 7),
      (13, 7), (13, 8), (10, 8))),
    (BlockKind.B_BUMP, BlockKind.B_DENT, (BLOCK, 0),
     ((10, 9), (14, 9), (14, 2), (12, 2), (12, 1), (11, 1), (11, 7),
      (12, 7), (12, 3), (13, 3), (13, 8), (10, 8))),
)
# Anchor of the tab inside each slot block's frame (the r-slot is the l-slot
# moved 5 units east).
_SLOT_ANCHORS = {BlockKind.SLOT_LEFT: (1, 0), BlockKind.SLOT_RIGHT: (6, 0)}


@dataclass(frozen=True)
class BlockGeometry:
    """Block cells split into the frame part and any protrusion.

    ``dent`` holds the missing frame cells for dent/slot kinds and
    ``dent_dir`` the block-grid direction of the neighbor whose bump fills
    the dent (slots have no such direction: they are filled by tabs).
    ``bump_dir`` is the direction a protrusion extends into.
    """

    base: CellSet
    protrusion: CellSet = frozenset()
    dent: CellSet = frozenset()
    dent_dir: Vec | None = None
    bump_dir: Vec | None = None

    @cached_property
    def cells(self) -> CellSet:
        return self.base | self.protrusion

    @cached_property
    def arrays(self):
        """``cells`` and ``dent`` as int64 (x, y) row arrays."""
        return cell_array(self.cells), cell_array(self.dent)


def _derive_catalog():
    """Every kind's geometry and partner, from the pair and slot tables."""
    catalog = {BlockKind.FUNCTIONAL: BlockGeometry(SQUARE),
               BlockKind.TAB: BlockGeometry(TAB_CELLS)}
    partners = {}
    for bump, dent, (dx, dy), outline in _PAIRS:
        cells = rasterize(outline)
        hole = translate(cells, (-dx, -dy))  # the bump seen from the dent block
        sx, sy = (dx > 0) - (dx < 0), (dy > 0) - (dy < 0)
        catalog[bump] = BlockGeometry(SQUARE, protrusion=cells, bump_dir=(sx, sy))
        catalog[dent] = BlockGeometry(SQUARE - hole, dent=hole, dent_dir=(-sx, -sy))
        partners[bump], partners[dent] = dent, bump
    for slot, anchor in _SLOT_ANCHORS.items():
        hole = translate(TAB_CELLS, anchor)
        catalog[slot] = BlockGeometry(SQUARE - hole, dent=hole)
        partners[slot] = BlockKind.TAB
    return catalog, partners


_CATALOG, _PARTNER = _derive_catalog()

# Offset at which a dent/slot is completed by its partner: the partner block
# position for bump/dent pairs, the tab anchor for the two slots.
CANONICAL_OFFSETS = {bump: offset for bump, _, offset, _ in _PAIRS} | _SLOT_ANCHORS

BUMP_KINDS = tuple(bump for bump, *_ in _PAIRS)
DENT_KINDS = tuple(dent for _, dent, *_ in _PAIRS)
SLOT_KINDS = tuple(_SLOT_ANCHORS)


def geometry(kind: BlockKind) -> BlockGeometry:
    return _CATALOG[kind]


def block_cells(kind: BlockKind) -> CellSet:
    return _CATALOG[kind].cells


def partner(kind: BlockKind) -> BlockKind:
    if kind not in _PARTNER:
        raise ValueError(f"{kind} has no complementary kind")
    return _PARTNER[kind]


def complement_check(bump_kind: BlockKind, dent_kind: BlockKind,
                     offset: Vec) -> bool:
    """Whether the two blocks fit together exactly at the given offset.

    For bump/dent kinds the offset positions the dent block's frame relative
    to the bump block's; a perfect fit fills both frames with no overlap.
    For a slot kind the second block is the tab and the offset is its anchor
    inside the slot block's frame.
    """
    u = block_cells(bump_kind)
    v = translate(block_cells(dent_kind), offset)
    if bump_kind in SLOT_KINDS:
        expected = SQUARE
    else:
        expected = SQUARE | translate(SQUARE, offset)
    return len(u) + len(v) == len(expected) and (u | v) == expected
