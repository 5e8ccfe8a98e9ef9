"""Command-line surface tying the pipeline together.

Exit codes: 0 success / exact cover, 1 unsatisfiable or cover failure,
2 input error, 3 resource limit exceeded.

A piece file is decoded one piece at a time: as each entry's object closes,
its cells become an int64 array and their decoded lists are freed.  JSON is
written as it is made, part by part, to the file or stdout, so no command
holds a whole output document.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import compiler, render, simulate, solver, wang
from .geometry import (COORD_BOUND, GeometryError, TorusLattice, bounding_box,
                       coord_array, piece_entry, polyominoes)

EXIT_OK = 0
EXIT_UNSAT = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _load_json(path: str, object_hook=None) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh, object_hook=object_hook)
    # ValueError covers malformed JSON and undecodable bytes; RecursionError,
    # arrays or objects nested too deep to decode.
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _write(path: str | None, parts):
    """Write the strings ``parts`` in order to the file ``path``, or to
    stdout for None or "-", as they are made."""
    if path is None or path == "-":
        sys.stdout.writelines(parts)
    else:
        try:
            with open(path, "w") as fh:
                fh.writelines(parts)
        except OSError as exc:
            raise CliError(f"cannot write {path}: {exc}")


def _dump_json(path: str | None, obj) -> None:
    _write(path, chain(_json_parts(obj), ["\n"]))


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}


def _rows(obj, end: str):
    """One row format (at indent ``end``) and its value columns for the whole
    list ``obj``, if it is an int array of shape (k,) or (k, 2), a
    ``solver.Records`` whose columns are such arrays or a
    ``solver.Placements`` (each piece name encoded once), or a list of ints;
    else None."""
    if isinstance(obj, np.ndarray):  # one column, read row by row
        row = "%d" if obj.ndim == 1 else f"[{end} %d,{end} %d{end}]"
        return row, [obj.ravel().tolist()]
    if isinstance(obj, solver.Records):
        indent = end + " "
        fields, columns = [], []
        for key, values in zip(obj.keys, obj.columns):
            if isinstance(values, solver.Placements):  # its piece names
                names = [*map(encode_basestring_ascii, values.names)]
                row, values = "%s", [[*map(names.__getitem__, values.piece.tolist())]]
            else:  # an int array: its row format, read off no rows, and a
                # column per array column, for the records to interleave
                row, values = _rows(values[:0], indent)[0], np.atleast_2d(values.T).tolist()
            fields.append(f"{encode_basestring_ascii(key).replace('%', '%%')}: {row}")
            columns += values
        return "{" + indent + f",{indent}".join(fields) + end + "}", columns
    return ("%d", [obj]) if set(map(type, obj)) == {int} else None


def _json_parts(obj, end: str = "\n"):
    """``json.dumps(obj, indent=1)`` in parts, for dicts with str keys,
    lists, str, int, bool and None, where an int array of shape (k,) or
    (k, 2) stands for its ``tolist()`` and a ``solver.Records`` (such as a
    ``solver.Placements``, ``{"piece": name, "at": [x, y]}``) for its
    records in order.  ``end`` is a newline plus obj's own indent.  A list
    that _rows formats is one part; no part holds another."""
    if type(obj) in _SCALARS:
        yield _SCALARS[type(obj)](obj)
        return
    if not (isinstance(obj, (dict, list, solver.Records))
            or isinstance(obj, np.ndarray) and obj.dtype.kind == "i"):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    opening, closing = "{}" if isinstance(obj, dict) else "[]"
    if not len(obj):
        yield opening + closing
        return
    indent = end + " "
    if isinstance(obj, dict):
        sep = opening
        for k, v in obj.items():
            yield f"{sep}{indent}{encode_basestring_ascii(k)}: "
            yield from _json_parts(v, indent)
            sep = ","
    elif rows := _rows(obj, indent):
        row, columns = rows  # one format string for the whole list
        values = columns[0] if len(columns) == 1 else chain.from_iterable(zip(*columns))
        yield opening + indent + f",{indent}".join([row] * len(obj)) % tuple(values)
    else:
        sep = opening
        for v in obj:
            yield sep + indent
            yield from _json_parts(v, indent)
            sep = ","
    yield end + closing


def _json_text(obj) -> str:
    """The text that _dump_json writes for obj, but for its final newline."""
    return "".join(_json_parts(obj))


def cmd_compile(args) -> int:
    tileset = wang.WangTileSet.from_json(_load_json(args.wang_set))
    pieces = compiler.compile_pieces(tileset)
    _dump_json(args.output, pieces.to_json())
    return EXIT_OK


def cmd_solve_wang(args) -> int:
    tileset = wang.WangTileSet.from_json(_load_json(args.wang_set))
    p, q = args.torus
    result = wang.solve_torus(tileset, p, q, args.mode)
    if args.mode == "count":
        _write(args.output, [f"{result}\n"])
        return EXIT_OK
    if args.mode == "enumerate":
        _dump_json(args.output, [t.to_json() for t in result])
        return EXIT_OK if result else EXIT_UNSAT
    if result is None:
        _write(args.output, ["UNSAT\n"])
        return EXIT_UNSAT
    _dump_json(args.output, result.to_json())
    return EXIT_OK


def _bounded(flag: str, values: list[int]) -> list[int]:
    """A flag's values, each of magnitude below COORD_BOUND, as a tiling
    file's "rect" and "lattice" entries must be."""
    if any(abs(v) >= COORD_BOUND for v in values):
        raise CliError(f"{flag} values must be of magnitude below 2**31, "
                       f"got {' '.join(map(str, values))}")
    return values


def _parse_region(args) -> solver.Region:
    if args.rect:
        return solver.Rectangle(*_bounded("--rect", args.rect))
    if args.torus_lattice:
        x1, y1, x2, y2 = _bounded("--torus-lattice", args.torus_lattice)
        return solver.Torus(TorusLattice((x1, y1), (x2, y2)))
    raise CliError("need --rect W H or --torus-lattice X1 Y1 X2 Y2")


def cmd_solve_poly(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise CliError(f"--limit must be at least 1, got {args.limit}")
    pieces = _load_polyominoes(args.pieces)
    region = _parse_region(args)
    universe = solver.build_universe(region, pieces)
    try:
        result = solver.solve(universe, args.mode, limit=args.limit,
                              max_nodes=args.max_nodes)
    except solver.SearchLimitError as exc:
        print(f"LIMIT after {exc.partial_count} solutions", file=sys.stderr)
        return EXIT_LIMIT
    if args.mode == "count":
        _write(args.output, [f"{result}\n"])
        return EXIT_OK
    if not result:  # no tiling (first) or none of them (enumerate)
        _write(args.output, ["UNSAT\n"])
        return EXIT_UNSAT
    _dump_json(args.output, [_tiling_json(region, s) for s in result]
               if args.mode == "enumerate" else _tiling_json(region, result))
    return EXIT_OK


def _cell_array_hook(obj: dict) -> dict:
    """A decoded JSON object, its "cells" replaced by their ``coord_array``
    if that accepts them, so that a piece file's lists of cells are freed
    as soon as each entry is decoded.  Cells it refuses stay, for
    ``piece_entry`` to report in file order."""
    if (xy := coord_array(obj.get("cells"))) is not None:
        obj["cells"] = xy
    return obj


def _load_polyominoes(path: str):
    return _polyominoes(path, _load_json(path, _cell_array_hook))


def _polyominoes(path: str, obj):
    """The pieces of the decoded piece file ``obj`` read from ``path``."""
    entries = obj.get("pieces") if isinstance(obj, dict) else obj
    if not isinstance(entries, list):
        raise CliError(f"{path}: pieces must be a list of piece entries")
    named = []
    for entry in entries:  # each entry's structure, in file order
        try:
            named.append(piece_entry(entry))
        except GeometryError:
            polyominoes(named)  # a bad piece before this entry raises first
            raise
    return polyominoes(named)


def _tiling_json(region: solver.Region, tiling) -> dict:
    return {"placements": solver.Placements.of(tiling), **region.to_json()}


def cmd_simulate(args) -> int:
    tileset = wang.WangTileSet.from_json(_load_json(args.wang_set))
    tiling = wang.WangTiling.from_json(_load_json(args.wang_tiling))
    sim = simulate.emit_placements(tileset, tiling)
    _dump_json(args.output, sim.to_json())
    return EXIT_OK


def _placements(obj) -> solver.Placements:
    placements = obj.get("placements") if isinstance(obj, dict) else None
    if not isinstance(placements, list):
        raise CliError("'placements' must be a list")
    return solver.Placements.from_json(placements)


def cmd_verify(args) -> int:
    pieces = _load_polyominoes(args.pieces)
    obj = _load_json(args.tiling)
    region = solver.region_from_json(obj)
    report = solver.check_tiling(region, pieces, _placements(obj))
    _dump_json(args.output, report.to_json())
    return EXIT_OK if report.exact else EXIT_UNSAT


def cmd_render(args) -> int:
    # Decoded without _cell_array_hook: a tiling holds one object per placement.
    obj = _load_json(args.input)
    spec = render.RenderSpec(cell_size=args.cell_size, grid=args.grid)
    if args.pieces or isinstance(obj, dict) and "placements" in obj:
        # Only the placements are drawn, so torus and rect tilings render alike.
        if not args.pieces:
            raise CliError("rendering a tiling needs --pieces")
        svg = render.render_svg(spec, _placements(obj),
                                _load_polyominoes(args.pieces))
    else:
        svg = render.render_svg(spec, _polyominoes(args.input, obj))
    _write(args.output, [svg])
    return EXIT_OK


def cmd_info(args) -> int:
    pieces = _load_polyominoes(args.pieces)
    rows = []
    for p in pieces:
        x0, y0, x1, y1 = bounding_box(p.xy)
        rows.append(f"{p.name:12s} {len(p):6d} cells  "
                    f"bbox {x1 - x0}x{y1 - y0} at ({x0},{y0})  "
                    "connected=True")  # as every Polyomino is
    _write(args.output, ["\n".join(rows) + "\n"])
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it was."""
    ap = argparse.ArgumentParser(prog="polywang")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="Wang set -> seven-piece file")
    c.add_argument("wang_set")
    c.add_argument("-o", "--output")
    c.set_defaults(fn=cmd_compile)

    sw = sub.add_parser("solve-wang", help="search Wang torus tilings")
    sw.add_argument("wang_set")
    sw.add_argument("--torus", nargs=2, type=int, required=True,
                    metavar=("P", "Q"))
    sw.add_argument("--mode", choices=("first", "count", "enumerate"),
                    default="first")
    sw.add_argument("-o", "--output")
    sw.set_defaults(fn=cmd_solve_wang)

    sp = sub.add_parser("solve-poly", help="exact-cover tiling search")
    sp.add_argument("pieces")
    sp.add_argument("--rect", nargs=2, type=int, metavar=("W", "H"))
    sp.add_argument("--torus-lattice", nargs=4, type=int,
                    metavar=("X1", "Y1", "X2", "Y2"))
    sp.add_argument("--mode", choices=("first", "count", "enumerate"),
                    default="first")
    sp.add_argument("--limit", type=int)
    sp.add_argument("--max-nodes", type=int)
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=cmd_solve_poly)

    sm = sub.add_parser("simulate", help="Wang tiling -> polyomino tiling")
    sm.add_argument("wang_set")
    sm.add_argument("wang_tiling")
    sm.add_argument("-o", "--output")
    sm.set_defaults(fn=cmd_simulate)

    v = sub.add_parser("verify", help="check a tiling for exact cover")
    v.add_argument("pieces")
    v.add_argument("tiling")
    v.add_argument("-o", "--output")
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("render", help="render pieces or tiling to SVG")
    r.add_argument("input")
    r.add_argument("--pieces", help="piece file (needed for tilings)")
    r.add_argument("--cell-size", type=int, default=4)
    r.add_argument("--grid", action="store_true")
    r.add_argument("-o", "--output")
    r.set_defaults(fn=cmd_render)

    i = sub.add_parser("info", help="summarize a piece file")
    i.add_argument("pieces")
    i.add_argument("-o", "--output")
    i.set_defaults(fn=cmd_info)
    return ap


def run(argv: list[str] | None = None) -> int:
    # A command's many containers form no cycles: the cyclic collector waits
    # till it returns (and then finds next to nothing, as the parser is kept).
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (render.GridLimitError, solver.RegionLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (wang.WangInputError, compiler.CompileError, GeometryError,
            solver.SolverInputError, render.RenderError,
            KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
