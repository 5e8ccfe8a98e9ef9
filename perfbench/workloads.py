"""Seeded inputs, operations and oracles of the pipeline benchmark.

Each workload turns a seed into input files, names the ``polywang`` command
lines one operation runs, and checks the files that operation wrote against
an oracle.  The oracles use closed forms and a counting DP of their own;
none of them calls into ``polywang``.

Run as a script, this module is one benchmark set-up: it imports the
package, generates a workload's inputs and writes them to a directory::

    python3 perfbench/workloads.py WORKLOAD SEED DIR
"""

from __future__ import annotations

import json
import random
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Bits per colour and colour count of every generated Wang set.
COLOURS = 4
T_BITS = 2

# L and J trominoes plus both dominoes.  On 6x6 they have 123,648 tilings
# and one count takes 13-18 s here, too few ops per run for a steady median,
# so search-count counts the 12,126 tilings of 6x5 (about 1.6 s).
SEARCH_PIECES = {
    "L": ((0, 0), (1, 0), (0, 1)),
    "J": ((0, 0), (1, 0), (1, 1)),
    "h": ((0, 0), (1, 0)),
    "v": ((0, 0), (0, 1)),
}


class OracleMismatch(AssertionError):
    """An operation's output disagrees with the benchmark's oracle."""


def import_polywang():
    """Import ``polywang.cli`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "polywang" / "cli.py").is_file():
        raise FileNotFoundError(f"no polywang sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from polywang import cli
    if Path(cli.__file__).resolve().parent != SRC / "polywang":
        raise ImportError(f"polywang imported from {cli.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# Closed forms of the seven pieces and of the simulation (oracle side).

def piece_sizes(n: int, t: int) -> dict[str, int]:
    """Cell count of each compiled piece for n tiles and t bits per colour."""
    linker = 580 * n + 36
    return {
        "encoder": 1168 * n * t + 620 * n + 4,
        "l_linker": linker,
        "r_linker": linker,
        "a_filler": 620,
        "b_filler": 620,
        "connector": 1160 * n + 616,
        "t_filler": 18,
    }


def quotient_cells(n: int, t: int, p: int, q: int) -> int:
    return 2400 * n * (t + 1) * p * q


def placements_per_wang_cell(n: int, t: int) -> int:
    """Connector, encoder, n-1 big fillers, 2t linkers, 4t(n-1) tiny fillers."""
    return 2 + (n - 1) + 2 * t + 4 * t * (n - 1)


def expected_defects(n: int, t: int, deleted: list[str],
                     duplicated: list[str]) -> tuple[int, int]:
    """(uncovered cells, overlap records) after editing an exact cover.

    Deleting a placement uncovers its cells; duplicating another one covers
    its cells twice, one overlap record per cell.  Edited placements must be
    distinct, so their footprints are disjoint.
    """
    sizes = piece_sizes(n, t)
    return (sum(sizes[p] for p in deleted), sum(sizes[p] for p in duplicated))


def count_tilings(width: int, height: int, pieces) -> int:
    """Translational tilings of a rectangle, by a memoised first-empty-cell DP.

    The first empty cell in row-major order must be the first cell of the
    piece covering it, so each state (the set of covered cells) branches
    once per piece that fits there.
    """
    shapes = []
    for cells in pieces:
        cells = sorted(cells, key=lambda c: (c[1], c[0]))
        ax, ay = cells[0]
        shapes.append([(x - ax, y - ay) for x, y in cells])
    full = (1 << (width * height)) - 1

    @lru_cache(maxsize=None)
    def count(mask: int) -> int:
        if mask == full:
            return 1
        first = (~mask & (mask + 1)).bit_length() - 1
        y, x = divmod(first, width)
        total = 0
        for shape in shapes:
            bits = 0
            for dx, dy in shape:
                cx, cy = x + dx, y + dy
                if not (0 <= cx < width and 0 <= cy < height):
                    break
                bit = 1 << (cy * width + cx)
                if mask & bit:
                    break
                bits |= bit
            else:
                total += count(mask | bits)
        return total

    return count(0)


# ---------------------------------------------------------------------------
# Input generation.

def random_wang_torus(rng: random.Random, p: int = 3, q: int = 3):
    """A random edge colouring of a p x q torus whose p*q tiles are distinct.

    Returns the Wang set JSON and the row-major tile indices; tile k is the
    tile of cell k, so the torus tiling is valid by construction.
    """
    while True:
        east = [[rng.randrange(COLOURS) for _ in range(p)] for _ in range(q)]
        north = [[rng.randrange(COLOURS) for _ in range(p)] for _ in range(q)]
        tiles = [(north[b][a], east[b][a], north[(b - 1) % q][a],
                  east[b][(a - 1) % p])
                 for b in range(q) for a in range(p)]
        if len(set(tiles)) == p * q:
            break
    labels = [f"c{i}" for i in range(COLOURS)]
    wang_set = {
        "colors": labels,
        "tiles": [{"n": labels[nn], "e": labels[e], "s": labels[s],
                   "w": labels[w]} for nn, e, s, w in tiles],
    }
    return wang_set, list(range(p * q))


def repeated_tiling(p: int, q: int, reps: int) -> dict:
    """The identity tiling of a p x q torus repeated reps times each way."""
    cells = [(b % q) * p + (a % p)
             for b in range(q * reps) for a in range(p * reps)]
    return {"p": p * reps, "q": q * reps, "torus": True, "cells": cells}


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def read_json(path: Path):
    return json.loads(path.read_text())


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise OracleMismatch(what)


def _check_exit(codes: list[int], expected: list[int]) -> None:
    _expect(codes == expected, f"exit codes {codes}, expected {expected}")


def outputs(steps: list[list[str]]) -> list[Path]:
    """The files an op's command lines write: each one's ``-o`` target."""
    return [Path(argv[argv.index("-o") + 1]) for argv in steps]


def drawn_shapes(svg: str) -> int:
    """Shapes an SVG document draws: ``<path>`` and ``<use>`` elements
    outside ``<defs>``.

    A shape is drawn either as its own path or as a use of a path defined
    once under ``<defs>``; both forms count one per drawn shape.
    """
    root = ET.fromstring(svg)
    _expect(root.tag.rpartition("}")[2] == "svg", "root element is not <svg>")

    def count(elem) -> int:
        tag = elem.tag.rpartition("}")[2]
        if tag == "defs":
            return 0
        return (tag in ("path", "use")) + sum(count(child) for child in elem)

    return sum(count(child) for child in root)


# ---------------------------------------------------------------------------
# Workloads.  Sizes are fields so that the self-tests can run small copies.

@dataclass
class ExactPeriodic:
    """compile -> simulate -> verify of a valid periodic tiling (exit 0)."""

    # The 3x3 base torus repeats onto a 6x6 one.  A 9x9 torus (5.2M cells)
    # takes about 10 s an op, too few ops per run for a steady median.
    reps: int = 2
    name: str = "exact-periodic"

    def generate(self, seed: int, out: Path, cli) -> None:
        wang_set, _ = random_wang_torus(random.Random(seed))
        write_json(out / "wang.json", wang_set)
        write_json(out / "tiling.json", repeated_tiling(3, 3, self.reps))

    def steps(self, d: Path) -> list[list[str]]:
        return [
            ["compile", str(d / "wang.json"), "-o", str(d / "pieces.json")],
            ["simulate", str(d / "wang.json"), str(d / "tiling.json"),
             "-o", str(d / "sim.json")],
            ["verify", str(d / "pieces.json"), str(d / "sim.json"),
             "-o", str(d / "report.json")],
        ]

    def prepare_oracle(self, d: Path) -> None:
        pass

    def check(self, d: Path, codes: list[int]) -> None:
        _check_exit(codes, [0, 0, 0])
        wang_set = read_json(d / "wang.json")
        tiling = read_json(d / "tiling.json")
        n, p, q = len(wang_set["tiles"]), tiling["p"], tiling["q"]
        sizes = piece_sizes(n, T_BITS)
        pieces = read_json(d / "pieces.json")
        got = {pc["name"]: len(pc["cells"]) for pc in pieces["pieces"]}
        _expect(got == sizes, f"piece sizes {got}, expected {sizes}")
        sim = read_json(d / "sim.json")
        (x1, y1), (x2, y2) = sim["lattice"]
        area = quotient_cells(n, T_BITS, p, q)
        _expect(abs(x1 * y2 - y1 * x2) == area, "quotient area")
        placements = sim["placements"]
        _expect(len(placements) == placements_per_wang_cell(n, T_BITS) * p * q,
                f"{len(placements)} placements")
        placed = sum(sizes[pl["piece"]] for pl in placements)
        _expect(placed == area, f"{placed} placed cells, expected {area}")
        report = read_json(d / "report.json")
        _expect(report == {"uncovered": [], "overlaps": [],
                           "out_of_region": []}, "report is not empty")


# Defects planted in the defects-render tiling: each entry picks one
# placement of one of its kinds.  The kinds of an entry have equal sizes.
DELETED = (("t_filler",), ("t_filler",), ("a_filler", "b_filler"))
DUPLICATED = (("t_filler",), ("t_filler",), ("l_linker", "r_linker"))


@dataclass
class DefectsRender:
    """verify (exit 1) and render of a minimal-period tiling with defects."""

    name: str = "defects-render"
    expected: tuple[int, int] | None = None  # (uncovered, overlap records)

    def generate(self, seed: int, out: Path, cli) -> None:
        rng = random.Random(seed)
        wang_set, cells = random_wang_torus(rng)
        write_json(out / "wang.json", wang_set)
        write_json(out / "tiling.json",
                   {"p": 3, "q": 3, "torus": True, "cells": cells})
        for argv in (["compile", str(out / "wang.json"),
                      "-o", str(out / "pieces.json")],
                     ["simulate", str(out / "wang.json"),
                      str(out / "tiling.json"), "-o", str(out / "exact.json")]):
            if cli.run(argv) != 0:
                raise RuntimeError(f"set-up step failed: {argv}")
        sim = read_json(out / "exact.json")
        placements = sim["placements"]
        chosen: list[int] = []
        for kinds in DELETED + DUPLICATED:
            pool = [i for i, pl in enumerate(placements)
                    if pl["piece"] in kinds and i not in chosen]
            chosen.append(rng.choice(pool))
        deleted = set(chosen[:len(DELETED)])
        sim["placements"] = ([pl for i, pl in enumerate(placements)
                              if i not in deleted]
                             + [placements[i] for i in chosen[len(DELETED):]])
        write_json(out / "sim.json", sim)
        (out / "exact.json").unlink()

    def steps(self, d: Path) -> list[list[str]]:
        return [
            ["verify", str(d / "pieces.json"), str(d / "sim.json"),
             "-o", str(d / "report.json")],
            ["render", str(d / "sim.json"), "--pieces", str(d / "pieces.json"),
             "-o", str(d / "tiling.svg")],
        ]

    def prepare_oracle(self, d: Path) -> None:
        n = len(read_json(d / "wang.json")["tiles"])
        self.expected = expected_defects(n, T_BITS,
                                         [k[0] for k in DELETED],
                                         [k[0] for k in DUPLICATED])

    def check(self, d: Path, codes: list[int]) -> None:
        _check_exit(codes, [1, 0])
        report = read_json(d / "report.json")
        got = (len(report["uncovered"]), len(report["overlaps"]))
        _expect(got == self.expected,
                f"(uncovered, overlaps) {got}, expected {self.expected}")
        _expect(report["out_of_region"] == [], "cells out of region")
        placements = len(read_json(d / "sim.json")["placements"])
        try:
            drawn = drawn_shapes((d / "tiling.svg").read_text())
        except ET.ParseError as exc:
            raise OracleMismatch(f"SVG does not parse: {exc}") from exc
        _expect(drawn == placements,
                f"{drawn} shapes drawn for {placements} placements")


@dataclass
class SearchCount:
    """solve-poly --mode count on a rectangle with shuffled pieces."""

    width: int = 6
    height: int = 5
    pieces: tuple = tuple(SEARCH_PIECES.items())
    name: str = "search-count"
    expected: int | None = None

    def generate(self, seed: int, out: Path, cli) -> None:
        rng = random.Random(seed)
        entries = [{"name": name, "cells": [list(c) for c in cells]}
                   for name, cells in self.pieces]
        rng.shuffle(entries)
        for e in entries:
            rng.shuffle(e["cells"])
        write_json(out / "pieces.json", {"pieces": entries})

    def steps(self, d: Path) -> list[list[str]]:
        return [["solve-poly", str(d / "pieces.json"),
                 "--rect", str(self.width), str(self.height),
                 "--mode", "count", "-o", str(d / "count.txt")]]

    def prepare_oracle(self, d: Path) -> None:
        pieces = [[tuple(c) for c in e["cells"]]
                  for e in read_json(d / "pieces.json")["pieces"]]
        self.expected = count_tilings(self.width, self.height, pieces)

    def check(self, d: Path, codes: list[int]) -> None:
        _check_exit(codes, [0])
        got = (d / "count.txt").read_text()
        _expect(got == f"{self.expected}\n",
                f"count {got.strip()}, expected {self.expected}")


WORKLOADS = {w.name: w for w in (ExactPeriodic, DefectsRender, SearchCount)}


def main(argv: list[str]) -> int:
    workload, seed, out = argv
    cli = import_polywang()  # every set-up pays the import, used or not
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    WORKLOADS[workload]().generate(int(seed), out_dir, cli)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
