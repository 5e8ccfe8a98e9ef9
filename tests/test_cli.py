import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polywang
from conftest import THREE_TILE_JSON, THREE_TILE_PATH
from polywang import cli, geometry, solver


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    wang_path = d / "set.json"
    wang_path.write_text(json.dumps(THREE_TILE_JSON))
    return d


def _run(*argv):
    return cli.run([str(a) for a in argv])


def test_compile_and_info(workdir):
    pieces = workdir / "pieces.json"
    assert _run("compile", workdir / "set.json", "-o", pieces) == 0
    obj = json.loads(pieces.read_text())
    counts = tuple(len(e["cells"]) for e in obj["pieces"])
    assert counts == (8872, 1776, 1776, 620, 620, 4096, 18)
    out = workdir / "info.txt"
    assert _run("info", pieces, "-o", out) == 0
    assert "8872" in out.read_text()


# `info` on data/three_tile_set.json's compiled pieces, byte for byte as the
# set-based connectivity check printed it.
_THREE_TILE_INFO = """\
encoder        8872 cells  bbox 304x38 at (0,-4)  connected=True
l_linker       1776 cells  bbox 62x50 at (0,-10)  connected=True
r_linker       1776 cells  bbox 62x50 at (0,-10)  connected=True
a_filler        620 cells  bbox 24x38 at (0,-4)  connected=True
b_filler        620 cells  bbox 24x38 at (0,-4)  connected=True
connector      4096 cells  bbox 62x90 at (0,0)  connected=True
t_filler         18 cells  bbox 3x10 at (0,0)  connected=True
"""


def test_info_output_pinned(tmp_path):
    pieces = tmp_path / "pieces.json"
    assert _run("compile", THREE_TILE_PATH, "-o", pieces) == 0
    assert _run("info", pieces, "-o", tmp_path / "info.txt") == 0
    assert (tmp_path / "info.txt").read_bytes() == _THREE_TILE_INFO.encode()


_JSON_STRINGS = st.text() | st.sampled_from(
    ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "\u2028", "\ud800",
     "\U0001f600", "a/b"])
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | _JSON_STRINGS
# Pairs of ints, with bools mixed in: only all-int pairs take the fast path.
_PAIR_LISTS = st.lists(st.lists(st.integers() | st.booleans(), min_size=2,
                                max_size=2))


# Values of one key across a record list: one kind each (these take the
# one-format path), or kinds mixed with bools, None and short lists.
_COLUMNS = [st.integers(), _JSON_STRINGS,
            st.lists(st.integers(), min_size=2, max_size=2),
            st.integers() | st.booleans() | st.none(),
            _JSON_STRINGS | st.lists(st.integers(), max_size=3)]


@st.composite
def _record_lists(draw):
    """Non-empty lists of dicts with the same keys; in some, one dict lists
    its keys in another order."""
    keys = draw(st.lists(st.sampled_from(["piece", "at", "%d", "%", '"', "é"])
                         | _JSON_STRINGS, unique=True, max_size=3))
    columns = {k: draw(st.sampled_from(_COLUMNS)) for k in keys}
    rows = draw(st.lists(st.fixed_dictionaries(columns), min_size=1, max_size=4))
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        order = draw(st.permutations(keys))
        rows[rows.index(row)] = {k: row[k] for k in order}
    return rows


@given(st.recursive(_JSON_SCALARS | _PAIR_LISTS | _record_lists(),
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
                    max_leaves=20))
@settings(max_examples=300)
def test_json_text_is_json_dumps_indent_1(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=1)


def test_json_text_pins_layout_and_rejects_other_types():
    obj = {"a": [[1, -2], [3, 4]], "b": [[True, 0]], "c": {}, "d": [],
           "e": [2 ** 70, None, "\u00e9"]}
    assert cli._json_text(obj) == json.dumps(obj, indent=1)
    assert cli._json_text([[0, 0]]) == "[\n [\n  0,\n  0\n ]\n]"
    records = [{"%s": "%d", "at": [1, -2]}, {"%s": "\u00e9", "at": [0, 3]}]
    reordered = [{"a": 1, "b": 2}, {"b": 3, "a": 4}]
    for obj in (records, reordered):
        assert cli._json_text(obj) == json.dumps(obj, indent=1)
    assert cli._json_text(records[:1]) == \
        '[\n {\n  "%s": "%d",\n  "at": [\n   1,\n   -2\n  ]\n }\n]'
    for bad in (0.5, (1, 2), {1: 2}, [[0, 0], [0, 0.5]], np.int64(1),
                np.zeros(2), np.array([True])):
        with pytest.raises(TypeError):
            cli._json_text(bad)


# Int arrays as the writer takes them, of shapes (k,) and (k, 2), and the
# placement columns; json.dumps writes their JSON values.
_INT_ARRAYS = st.builds(
    np.array, st.lists(st.sampled_from([0, 1, -1, 2 ** 31 - 1, -(2 ** 31 - 1)])
                       | st.integers(-2 ** 63, 2 ** 63 - 1), max_size=6),
    st.just(np.int64)).flatmap(
        lambda a: st.sampled_from([a, a[:len(a) // 2 * 2].reshape(-1, 2)]))
_PLACEMENTS = st.lists(st.tuples(_JSON_STRINGS, st.tuples(st.integers(-5, 5),
                                                          st.integers(-5, 5))),
                       max_size=4).map(solver.Placements.of)


def _overlap_records(cells, a, b):
    """A cover report's overlap records: a (k, 2) ``cell`` column and int
    ``a``, ``b`` columns."""
    return solver.Records(("cell", "a", "b"), np.array(cells, np.int64).reshape(-1, 2),
                          *(np.array(c, np.int64) for c in (a, b)))


_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
_OVERLAPS = st.integers(0, 4).flatmap(lambda k: st.builds(
    _overlap_records, *(st.lists(v, min_size=k, max_size=k)
                        for v in (st.tuples(_INT64, _INT64), _INT64, _INT64))))


def _as_json(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, solver.Placements):
        return [{"piece": pl.piece, "at": list(pl.at)} for pl in obj]
    return [dict(zip(obj.keys, row)) for row in zip(*(c.tolist() for c in obj.columns))]


@given(st.recursive(_JSON_SCALARS | _INT_ARRAYS | _PLACEMENTS | _OVERLAPS,
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
                    max_leaves=12))
@example(np.zeros(0, np.int64))
@example({"overlaps": _overlap_records([], [], [])})
@example({"uncovered": np.zeros((0, 2), np.int64), "overlaps": _overlap_records(
    [(3, -(2 ** 31 - 1)), (0, 0)], [0, 2 ** 63 - 1], [1, -2 ** 63])})
@example({"a": [{"cells": np.zeros((0, 2), np.int64)}]})
@example([np.array([-3, 2 ** 31 - 1]), {"a": [1, {"cells": np.array(
    [[0, -(2 ** 31 - 1)], [-7, 2 ** 31 - 1]])}]}])
@settings(max_examples=300)
def test_json_text_writes_arrays_as_their_lists(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=1, default=_as_json)


# sha256 of `polywang compile data/three_tile_set.json`, whose pieces have
# cells at negative y, as json.dumps(..., indent=1) writes them.
_THREE_TILE_PIECES_SHA256 = \
    "7b89aed49b345f001bff8a96aecf35dc0d8490829d17a3bfb5bf34967f51b64f"


def test_compile_output_pinned(tmp_path):
    pieces = tmp_path / "pieces.json"
    assert _run("compile", THREE_TILE_PATH, "-o", pieces) == 0
    assert hashlib.sha256(pieces.read_bytes()).hexdigest() == _THREE_TILE_PIECES_SHA256


def test_runs_in_one_process_keep_no_options(tmp_path):
    # The parser is built once per process; no parsed value carries over.
    assert cli.build_parser() is cli.build_parser()
    dominoes = tmp_path / "dominoes.json"
    dominoes.write_text(json.dumps([{"name": "h", "cells": [[0, 0], [1, 0]]},
                                    {"name": "v", "cells": [[0, 0], [0, 1]]}]))
    count = tmp_path / "count.txt"
    for options, expected in (((), "5"), (("--limit", 2), "2"), ((), "5")):
        assert _run("solve-poly", dominoes, "--rect", 2, 4, "--mode", "count",
                    *options, "-o", count) == 0
        assert count.read_text() == expected + "\n"
    svgs = []
    for options in ((), ("--grid",), ()):
        assert _run("render", dominoes, *options, "-o", tmp_path / "d.svg") == 0
        svgs.append((tmp_path / "d.svg").read_text())
    assert svgs[0] == svgs[2] != svgs[1]


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_collector_as_found(tmp_path, enabled):
    pieces = tmp_path / "mono.json"
    pieces.write_text(json.dumps(_MONO))
    commands = [(("info", pieces, "-o", tmp_path / "info.txt"), 0),
                (("verify", pieces, tmp_path / "missing.json"), 2),
                (("solve-poly", pieces, "--rect", 2, 1, "--mode", "count",
                  "--max-nodes", 0), 3)]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, code in commands:
            assert _run(*argv) == code
            assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            _run("no-such-command")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_piece_file_round_trip_identical(workdir):
    from polywang.compiler import SevenPieceSet
    from polywang.wang import WangTileSet
    pieces = workdir / "pieces.json"
    _run("compile", workdir / "set.json", "-o", pieces)
    first = pieces.read_text()
    source = WangTileSet.from_json(json.loads(first)["source"])
    back = SevenPieceSet(cli._load_polyominoes(str(pieces)), source)
    again = cli._json_text(back.to_json()) + "\n"
    assert again == first


def test_solve_wang_exit_codes(workdir):
    out = workdir / "tiling.json"
    assert _run("solve-wang", workdir / "set.json", "--torus", 3, 1,
                "-o", out) == 0
    assert json.loads(out.read_text())["p"] == 3
    unsat = workdir / "unsat.txt"
    assert _run("solve-wang", workdir / "set.json", "--torus", 1, 1,
                "-o", unsat) == 1
    assert unsat.read_text().strip() == "UNSAT"
    count = workdir / "count.txt"
    assert _run("solve-wang", workdir / "set.json", "--torus", 3, 1,
                "--mode", "count", "-o", count) == 0
    assert count.read_text().strip() == "3"


def test_solve_wang_deep_torus(workdir):
    # One search level per torus cell: 999 levels need no recursion.
    deep = workdir / "deep.json"
    assert _run("solve-wang", workdir / "set.json", "--torus", 999, 1,
                "-o", deep) == 0
    assert json.loads(deep.read_text())["cells"] == [0, 1, 2] * 333
    count = workdir / "deep_count.txt"
    assert _run("solve-wang", workdir / "set.json", "--torus", 999, 1,
                "--mode", "count", "-o", count) == 0
    assert count.read_text() == "3\n"
    assert _run("solve-wang", workdir / "set.json", "--torus", 998, 1,
                "-o", workdir / "deep_unsat.txt") == 1


@pytest.mark.parametrize("side", [1100000000, 3037000500])
def test_solve_wang_torus_too_large_to_hold_is_resource_limit(workdir, capsys, side):
    # 1.21e18 cells, and 3037000500**2 >= 2**63, are far past the 2**14 items
    # the search takes: both are refused before anything is allocated.
    capsys.readouterr()
    assert _run("solve-wang", workdir / "set.json", "--torus", side, side) == 3
    assert capsys.readouterr().err == \
        f"error: a {side}x{side} torus needs {side * side * 9} exact-cover items, " \
        "over the search limit of 16384\n"


@pytest.mark.parametrize("torus, mode, limit", [
    ((2000, 1), "first", "18000 exact-cover items"), ((8, 8), "count", "live frontier states")])
def test_solve_wang_past_the_search_limits_is_resource_limit(workdir, capsys,
                                                             torus, mode, limit):
    # 2000 x 1 cells of the three-tile set are 18,000 items, over 2**14; an
    # 8 x 8 count of the full two-colour set needs over 2**16 live states.
    full = workdir / "full.json"
    full.write_text(json.dumps({"tiles": [
        {"n": n, "e": e, "s": s, "w": w}
        for n in "ab" for e in "ab" for s in "ab" for w in "ab"]}))
    wang_set = workdir / "set.json" if mode == "first" else full
    capsys.readouterr()
    assert _run("solve-wang", wang_set, "--torus", *torus, "--mode", mode) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and limit in err


def test_simulate_verify_render(workdir):
    pieces = workdir / "pieces.json"
    tiling = workdir / "tiling.json"
    sim = workdir / "sim.json"
    _run("compile", workdir / "set.json", "-o", pieces)
    _run("solve-wang", workdir / "set.json", "--torus", 3, 1, "-o", tiling)
    assert _run("simulate", workdir / "set.json", tiling, "-o", sim) == 0
    report = workdir / "report.json"
    assert _run("verify", pieces, sim, "-o", report) == 0
    obj = json.loads(report.read_text())
    assert obj == {"uncovered": [], "overlaps": [], "out_of_region": []}

    # drop one placement: verify must fail with exit 1
    broken_obj = json.loads(sim.read_text())
    broken_obj["placements"] = broken_obj["placements"][1:]
    broken = workdir / "broken.json"
    broken.write_text(json.dumps(broken_obj))
    assert _run("verify", pieces, broken, "-o", workdir / "r2.json") == 1

    svg = workdir / "sim.svg"
    assert _run("render", sim, "--pieces", pieces, "-o", svg) == 0
    assert svg.read_text().count("<use") == 72
    psvg = workdir / "pieces.svg"
    assert _run("render", pieces, "-o", psvg) == 0
    assert psvg.read_text().count("<path") == 7


def test_solve_poly(workdir, capsys):
    dom = workdir / "dominoes.json"
    dom.write_text(json.dumps([
        {"name": "h", "cells": [[0, 0], [1, 0]]},
        {"name": "v", "cells": [[0, 0], [0, 1]]},
    ]))
    count = workdir / "pcount.txt"
    assert _run("solve-poly", dom, "--rect", 2, 3, "--mode", "count",
                "-o", count) == 0
    assert count.read_text().strip() == "3"
    assert _run("solve-poly", dom, "--rect", 3, 3) == 1
    assert _run("solve-poly", dom) == 2  # no region given
    assert _run("solve-poly", dom, "--rect", 2, 10, "--mode", "count",
                "--max-nodes", 2) == 3
    capsys.readouterr()
    assert _run("solve-poly", dom, "--rect", 2, 10, "--mode", "count",
                "--max-nodes", 0) == 3
    assert capsys.readouterr().err == "LIMIT after 0 solutions\n"
    tor = workdir / "torus.json"
    assert _run("solve-poly", dom, "--torus-lattice", 2, 0, 0, 2,
                "-o", tor) == 0
    assert "lattice" in json.loads(tor.read_text())


def test_repeated_piece_cells_are_merged(tmp_path):
    # [0, 0] twice is one cell: no command sees a second one.
    pieces = tmp_path / "d.json"
    pieces.write_text(json.dumps([{"name": "d", "cells": [[0, 0], [1, 0], [0, 0]]}]))
    tiling = tmp_path / "tiling.json"
    tiling.write_text(json.dumps({"rect": [2, 1],
                                  "placements": [{"piece": "d", "at": [0, 0]}]}))
    assert _run("info", pieces, "-o", tmp_path / "info.txt") == 0
    assert (tmp_path / "info.txt").read_text() == \
        "d                 2 cells  bbox 2x1 at (0,0)  connected=True\n"
    assert _run("verify", pieces, tiling, "-o", tmp_path / "report.json") == 0
    assert json.loads((tmp_path / "report.json").read_text()) == \
        {"uncovered": [], "overlaps": [], "out_of_region": []}
    count = tmp_path / "count.txt"
    assert _run("solve-poly", pieces, "--rect", 4, 1, "--mode", "count",
                "-o", count) == 0
    assert count.read_text() == "1\n"


def test_solve_poly_deep_first(workdir):
    # 800 levels of search: a recursive search would pass the default
    # recursion limit of Python.
    pieces = workdir / "hm.json"
    pieces.write_text(json.dumps([
        {"name": "h", "cells": [[0, 0], [1, 0]]},
        {"name": "m", "cells": [[0, 0]]},
    ]))
    tiling = workdir / "hm_tiling.json"
    assert _run("solve-poly", pieces, "--rect", 40, 40, "--mode", "first",
                "-o", tiling) == 0
    assert _run("verify", pieces, tiling, "-o", workdir / "hm_report.json") == 0


def test_input_errors(workdir):
    missing = workdir / "nope.json"
    assert _run("compile", missing) == 2
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert _run("compile", bad) == 2
    # structurally wrong tile set
    bad.write_text(json.dumps({"tiles": [{"n": "a"}]}))
    assert _run("compile", bad) == 2


@pytest.mark.parametrize("at", [[1], "ab", [0.5, 0], [2 ** 63, 0]])
def test_malformed_placement_is_input_error(workdir, capsys, at):
    pieces = workdir / "mono.json"
    pieces.write_text(json.dumps([{"name": "m", "cells": [[0, 0]]}]))
    tiling = workdir / "bad_at.json"
    tiling.write_text(json.dumps({"rect": [1, 1],
                                  "placements": [{"piece": "m", "at": at}]}))
    capsys.readouterr()
    assert _run("verify", pieces, tiling, "-o", workdir / "r.json") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("region", [
    {"rect": [2000000000, 2000000000]},
    {"lattice": [[2000000000, 0], [0, 2000000000]]},
])
def test_region_too_large_is_resource_limit(tmp_path, capsys, region):
    # 4e18 cells: the list of uncovered ones is larger than any address space.
    pieces = tmp_path / "mono.json"
    pieces.write_text(json.dumps([{"name": "m", "cells": [[0, 0]]}]))
    tiling = tmp_path / "huge.json"
    tiling.write_text(json.dumps(
        {**region, "placements": [{"piece": "m", "at": [0, 0]}]}))
    capsys.readouterr()
    assert _run("verify", pieces, tiling, "-o", tmp_path / "r.json") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_region_too_large_for_wide_counts_is_resource_limit(tmp_path, capsys):
    # 4e18 uncovered cells take more bytes than numpy can address, which it
    # refuses with a ValueError: still a resource limit, not an input error.
    pieces = tmp_path / "bar.json"
    pieces.write_text(json.dumps([{"name": "bar",
                                   "cells": [[x, 0] for x in range(70000)]}]))
    tiling = tmp_path / "huge.json"
    tiling.write_text(json.dumps({"rect": [2000000000, 2000000000],
                                  "placements": [{"piece": "bar", "at": [0, 0]}]}))
    capsys.readouterr()
    assert _run("verify", pieces, tiling, "-o", tmp_path / "r.json") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: out of memory: ")


@pytest.mark.parametrize("width, height", [(128, 128), (20, 20)])
def test_count_over_state_limit_is_resource_limit(tmp_path, capsys, width, height):
    # A region within the search limit whose count needs more frontier
    # states at once than the solver holds is refused as a resource limit,
    # in well under a second.  Both are wide both ways: a rectangle is swept
    # along its shorter side, so 20x8 counts with a frontier 8 cells wide.
    dominoes = tmp_path / "dominoes.json"
    dominoes.write_text(json.dumps([{"name": "h", "cells": [[0, 0], [1, 0]]},
                                    {"name": "v", "cells": [[0, 0], [0, 1]]}]))
    capsys.readouterr()
    assert _run("solve-poly", dominoes, "--rect", width, height, "--mode", "count") == 3
    assert capsys.readouterr().err == ("error: the count needs more than 65536 live "
                                       "frontier states, over the search limit\n")


def test_render_rect_tiling(workdir):
    dom = workdir / "dominoes.json"
    dom.write_text(json.dumps([
        {"name": "h", "cells": [[0, 0], [1, 0]]},
        {"name": "v", "cells": [[0, 0], [0, 1]]},
    ]))
    tiling = workdir / "rect_tiling.json"
    assert _run("solve-poly", dom, "--rect", 2, 3, "-o", tiling) == 0
    svg = workdir / "rect.svg"
    assert _run("render", tiling, "--pieces", dom, "-o", svg) == 0
    assert svg.read_text().count("<use") == 3


# The render of two monominoes 2**32 cells apart, byte for byte.
_FAR_APART_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="17179869188" height="12" \
viewBox="-8589934592 0 17179869188 12">
<defs>
<path id="p0" d="M0,0L4,0L4,-4L0,-4Z" fill="#7b52ab" fill-rule="evenodd" \
stroke="#222" stroke-width="0.5"/>
</defs>
<use href="#p0" x="-8589934588" y="8"/>
<use href="#p0" x="8589934588" y="8"/>
</svg>
"""


def test_render_grid_too_large_is_resource_limit(tmp_path, capsys):
    pieces = tmp_path / "mono.json"
    pieces.write_text(json.dumps([{"name": "m", "cells": [[0, 0]]}]))
    tiling = tmp_path / "far.json"
    tiling.write_text(json.dumps({"rect": [1, 1], "placements": [
        {"piece": "m", "at": [-(2 ** 31 - 1), 0]},
        {"piece": "m", "at": [2 ** 31 - 1, 0]}]}))
    svg = tmp_path / "far.svg"
    capsys.readouterr()
    # 2**32 vertical and 2 horizontal lines: refused before any is drawn.
    assert _run("render", tiling, "--pieces", pieces, "--grid", "-o", svg) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "4294967298 lines" in err
    assert err.startswith("error: ") and "out of memory" not in err
    assert not svg.exists()
    assert _run("render", tiling, "--pieces", pieces, "-o", svg) == 0
    assert svg.read_text() == _FAR_APART_SVG


def test_module_entry_point(workdir):
    src = Path(polywang.__file__).resolve().parent.parent
    out = workdir / "module_pieces.json"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "polywang.cli", "compile",
         str(workdir / "set.json"), "-o", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(out.read_text())["pieces"]) == 7


_MONO = [{"name": "m", "cells": [[0, 0]]}]
_BAD_LABEL_SET = {**THREE_TILE_JSON, "tiles": [
    {**THREE_TILE_JSON["tiles"][0], "n": ["a"]}, *THREE_TILE_JSON["tiles"][1:]]}
_BAD_PIECES = {"bare-number": 5,
               "pieces-missing": {"n": 3},
               "cells-number": [{"name": "m", "cells": 5}],
               "cells-strings": [{"name": "m", "cells": [["a", "b"]]}],
               **{f"cells-{name}": [{"name": "m", "cells": [cell]}]
                  for name, cell in {"bool": [True, 0],
                                     "triple": [0, 0, 0],
                                     "float": [0.0, 0],
                                     "2-to-31": [2 ** 31, 0],
                                     "object": {"x": 0}}.items()}}

_ONE_TILE_SET = {"colors": ["a"], "tiles": [{"n": "a", "e": "a", "s": "a", "w": "a"}]}

# One malformed input per case: (subcommand and its options, file it
# replaces, its JSON).  Each input is well formed but for the one bad value.
_INPUT_ERRORS = {
    **{f"verify-{name}": ("verify", "tiling", {**region, "placements": []})
       for name, region in {
           "lattice-short-row": {"lattice": [[1], [0, 1]]},
           "lattice-float": {"lattice": [[2.5, 0], [0, 2]]},
           "rect-string": {"rect": ["a", 1]},
           "rect-short": {"rect": [2]},
           "rect-float": {"rect": [2.0, 2]},
           "rect-bool": {"rect": [True, 2]}}.items()},
    **{f"{cmd}-{name}": (cmd, "pieces", bad)
       for cmd in ("verify", "solve-poly", "render")
       for name, bad in _BAD_PIECES.items()},
    **{f"simulate-{name}": ("simulate", "wang_tiling",
                            {"p": 1, "q": 1, "torus": True, **fields})
       for name, fields in {
           "cells-string": {"cells": ["0"]},
           "cells-float": {"cells": [0.0]},
           "cells-number": {"cells": 5},
           "p-string": {"p": "1", "cells": [0]},
           # A valid 3x1 torus but for the flag, which must be a JSON bool.
           "torus-string": {"p": 3, "torus": "no", "cells": [0, 1, 2]}}.items()},
    **{f"{cmd}-{name}": (cmd, "tiling", {"rect": [1, 1], "placements": bad})
       for cmd in ("verify", "render-tiling")
       for name, bad in {
           **{f"at-{kind}": [{"piece": "m", "at": at}]
              for kind, at in {"bool": [True, 0], "float": [0.0, 0],
                               "2-to-31": [2 ** 31, 0], "triple": [0, 0, 0],
                               "object": {"x": 0}}.items()},
           "at-missing": [{"piece": "m"}],
           "piece-number": [{"piece": 5, "at": [0, 0]}],
           "placement-string": ["m"],
           "placements-number": 5,
           "piece-unknown": [{"piece": "q", "at": [0, 0]}]}.items()},
    "verify-placements-missing": ("verify", "tiling", {"rect": [1, 1]}),
    "render-tiling-placements-missing": ("render-tiling", "tiling", {"rect": [1, 1]}),
    "compile-label-list": ("compile", "wang_set", _BAD_LABEL_SET),
    "solve-wang-label-list": ("solve-wang", "wang_set", _BAD_LABEL_SET),
    "simulate-one-tile-one-color": ("simulate", "wang_set", _ONE_TILE_SET),
    "render-tiling-duplicate-name": ("render-tiling", "pieces", _MONO + _MONO),
    "render-cell-size-0": ("render --cell-size 0", "pieces", _MONO),
    "render-cell-size-negative": ("render --cell-size -3", "pieces", _MONO),
    "solve-poly-max-nodes-negative": ("solve-poly --max-nodes -1", "pieces", _MONO),
    # A limit below 1 would end the search before it starts, in any mode.
    **{f"solve-poly-{mode}-limit-{limit}": (
        f"solve-poly --mode {mode} --limit {limit}", "pieces", _MONO)
       for mode in ("first", "count", "enumerate") for limit in (0, -1)},
}

# A missing key is named in a sentence, not as a bare KeyError ('pieces').
_INPUT_ERROR_TEXT = {
    **{f"{cmd}-pieces-missing": "pieces must be a list of piece entries"
       for cmd in ("verify", "solve-poly", "render")},
    "verify-placements-missing": "error: 'placements' must be a list",
    "render-tiling-placements-missing": "'placements' must be a list",
}


# A valid file of each kind a subcommand reads.
_VALID_INPUTS = {"pieces": _MONO, "wang_set": THREE_TILE_JSON,
                 "tiling": {"rect": [1, 1],
                            "placements": [{"piece": "m", "at": [0, 0]}]},
                 "wang_tiling": {"p": 1, "q": 1, "torus": True, "cells": [0]}}


def _write_inputs(tmp_path, **replaced) -> dict:
    """Each input as a JSON file, valid but for the ones ``replaced``."""
    path = {}
    for name, obj in {**_VALID_INPUTS, **replaced}.items():
        path[name] = tmp_path / f"{name}.json"
        path[name].write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("case", list(_INPUT_ERRORS))
def test_malformed_input_is_input_error(tmp_path, capsys, case):
    cmd, replaced, bad = _INPUT_ERRORS[case]
    cmd, *options = cmd.split()
    path = _write_inputs(tmp_path, **{replaced: bad})
    argv = {"verify": ["verify", path["pieces"], path["tiling"]],
            "solve-poly": ["solve-poly", path["pieces"], "--rect", 1, 1],
            "render": ["render", path["pieces"]],
            "render-tiling": ["render", path["tiling"], "--pieces", path["pieces"]],
            "simulate": ["simulate", path["wang_set"], path["wang_tiling"]],
            "compile": ["compile", path["wang_set"]],
            "solve-wang": ["solve-wang", path["wang_set"], "--torus", 1, 1]}[cmd]
    capsys.readouterr()
    assert _run(*argv, *options, "-o", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert _INPUT_ERROR_TEXT.get(case, "") in err


@pytest.mark.parametrize("cmd", ["verify", "render"])
def test_first_unknown_piece_in_file_order(tmp_path, capsys, cmd):
    # zz is used before yy, though it sorts after it.
    pieces, tiling = tmp_path / "pieces.json", tmp_path / "tiling.json"
    pieces.write_text(json.dumps(_MONO))
    tiling.write_text(json.dumps({"rect": [3, 1], "placements": [
        {"piece": name, "at": [x, 0]} for x, name in enumerate(["m", "zz", "yy"])]}))
    argv = ([cmd, pieces, tiling] if cmd == "verify"
            else [cmd, tiling, "--pieces", pieces])
    capsys.readouterr()
    assert _run(*argv, "-o", tmp_path / "out") == 2
    assert capsys.readouterr().err == "input error: unknown piece 'zz'\n"


# Piece entries that each command refuses, each with its one-line message:
# "float" and "bool" cells stay decoded lists, while the disconnected and
# the nameless entry's cells become arrays as the entry is decoded.
_BAD_ENTRIES = {
    "disconnected": ({"name": "d", "cells": [[0, 0], [2, 0]]},
                     "input error: polyomino 'd' is not edge-connected"),
    "float": ({"name": "f", "cells": [[0.5, 0]]},
              "input error: piece 'f' needs 'cells': integer pairs"),
    "bool": ({"name": "b", "cells": [[0, 0], [True, 0]]},
             "input error: piece 'b' needs 'cells': integer pairs"),
    "nameless": ({"cells": [[0, 0]]},
                 "input error: a piece entry needs a string 'name'"),
}
# (piece file, exit code, message): the first bad entry in file order is
# named, whatever comes before or after it.
_ENTRY_ORDER = {
    **{f"{name}-after-good": (_MONO + [entry], 2, message)
       for name, (entry, message) in _BAD_ENTRIES.items()},
    **{f"good-after-{name}": ([entry] + _MONO, 2, message)
       for name, (entry, message) in _BAD_ENTRIES.items()},
    **{f"{first}-then-{second}": (_MONO + [entry, _BAD_ENTRIES[second][0]], 2, message)
       for first, (entry, message) in _BAD_ENTRIES.items()
       for second in _BAD_ENTRIES if second != first},
    # "cells" outside the piece entries is not read as a piece.
    "cells-in-other-key": ({"source": {"cells": [[0, 0]]}, "pieces": _MONO}, 0, ""),
    "bad-cells-in-other-key": ({"source": {"cells": 5}, "pieces": _MONO}, 0, ""),
    "cells-at-top": ({"name": "m", "cells": [[0, 0]]}, 2,
                     "error: PIECES: pieces must be a list of piece entries"),
}


# info decodes its piece file one piece at a time, and render (which may be
# given a tiling) decodes its input whole; verify and solve-poly read piece
# files as info does.
@pytest.mark.parametrize("cmd", ["info", "render"])
@pytest.mark.parametrize("case", list(_ENTRY_ORDER))
def test_piece_file_errors_in_file_order(tmp_path, capsys, case, cmd):
    content, code, message = _ENTRY_ORDER[case]
    path = _write_inputs(tmp_path, pieces=content)
    capsys.readouterr()
    assert _run(cmd, path["pieces"], "-o", tmp_path / "out") == code
    expected = message.replace("PIECES", str(path["pieces"]))
    assert capsys.readouterr().err == (expected and expected + "\n")


def test_small_pieces_share_one_connectivity_pass(tmp_path, capsys, monkeypatch):
    passes, rows = [], geometry._connected_rows
    monkeypatch.setattr(geometry, "_connected_rows",
                        lambda *xys: passes.append([*map(len, xys)]) or rows(*xys))
    small, big = [[0, 0], [1, 0]], [[x, 0] for x in range(4097)]
    entries = [{"name": f"p{i}", "cells": cells}
               for i, cells in enumerate([small, small, big, small, small, small])]
    path = tmp_path / "pieces.json"
    path.write_text(json.dumps(entries))
    pieces = cli._load_polyominoes(str(path))
    # Every piece of the file, however large, shares the one pass.
    assert passes == [[2, 2, 4097, 2, 2, 2]]
    assert [p.name for p in pieces] == [e["name"] for e in entries]
    # A disconnected piece in the pass still raises before a later bad entry.
    bad = {"name": "d", "cells": [[0, 0], [2, 0]]}
    path.write_text(json.dumps(entries[:2] + [bad] + entries[2:] + [{"cells": []}]))
    capsys.readouterr()
    assert _run("info", path) == 2
    assert capsys.readouterr().err == "input error: polyomino 'd' is not edge-connected\n"


def _traced_peak(fn, *args) -> int:
    """The peak of memory traced by tracemalloc while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_piece_file_is_read_one_piece_at_a_time(tmp_path):
    # Sixteen equal 40x50 pieces at coordinates past the small-int cache, so
    # each decoded cell is a list of two ints of its own.
    cells = [[x, y] for y in range(1000, 1050) for x in range(1000, 1040)]
    path = tmp_path / "pieces.json"
    path.write_text(json.dumps({"pieces": [{"name": f"p{i}", "cells": cells}
                                           for i in range(16)]}, indent=1))
    text = _traced_peak(path.read_text)
    one_piece = _traced_peak(json.loads, json.dumps(cells))
    cli._load_polyominoes(str(path))
    # Holding all sixteen pieces' lists at once would peak near 16 * one_piece.
    assert _traced_peak(cli._load_polyominoes, str(path)) < text + 2 * one_piece


def test_json_written_without_holding_the_document(tmp_path):
    xy = np.arange(20000, dtype=np.int64).reshape(-1, 2) + 1000
    out = str(tmp_path / "out.json")

    def peak(k):
        return _traced_peak(cli._dump_json, out, {"pieces": [
            {"name": f"p{i}", "cells": xy} for i in range(k)]})

    peak(1)
    # Each array's text is written as it is made: the peak does not grow with k.
    assert peak(16) < 1.1 * peak(2)


def test_render_decodes_a_piece_file_once(tmp_path, monkeypatch):
    loads, load = [], json.load
    monkeypatch.setattr(json, "load", lambda *a, **k: loads.append(a) or load(*a, **k))
    path = _write_inputs(tmp_path)
    assert _run("render", path["pieces"], "-o", tmp_path / "pieces.svg") == 0
    assert len(loads) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_device_full_while_writing_is_input_error(capsys):
    # The write fails once the first buffer fills, past the first part.
    capsys.readouterr()
    assert _run("compile", THREE_TILE_PATH, "-o", "/dev/full") == 2
    assert capsys.readouterr().err == \
        "error: cannot write /dev/full: [Errno 28] No space left on device\n"


def test_out_of_memory_while_writing_is_resource_limit(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise MemoryError

    # The first list is formatted after the file is opened.
    monkeypatch.setattr(cli, "_rows", fail)
    capsys.readouterr()
    assert _run("compile", THREE_TILE_PATH, "-o", tmp_path / "pieces.json") == 3
    assert capsys.readouterr().err == "error: out of memory: \n"


# Each subcommand's JSON inputs: BAD is the file under test, the others are
# valid.
_JSON_READERS = {
    "compile": "compile BAD",
    "solve-wang": "solve-wang BAD --torus 1 1",
    "solve-poly": "solve-poly BAD --rect 1 1",
    "simulate-set": "simulate BAD wang_tiling",
    "simulate-tiling": "simulate wang_set BAD",
    "verify-pieces": "verify BAD tiling",
    "verify-tiling": "verify pieces BAD",
    "render": "render BAD",
    "render-pieces": "render tiling --pieces BAD",
    "info": "info BAD",
}
# Files from which no JSON value can be read, and which json.dumps cannot
# write: arrays nested deeper than the decoder recurses, and bytes that are
# not UTF-8.
_UNREADABLE = {"deep": ("[" * 10 ** 5 + "]" * 10 ** 5).encode(),
               "binary": b"\xff\xfe\x00\x9c binary"}


@pytest.mark.parametrize("content", list(_UNREADABLE))
@pytest.mark.parametrize("case", list(_JSON_READERS))
def test_unreadable_json_is_input_error_naming_the_file(tmp_path, capsys, case, content):
    path = _write_inputs(tmp_path)
    path["BAD"] = tmp_path / "bad.json"
    path["BAD"].write_bytes(_UNREADABLE[content])
    argv = [path.get(word, word) for word in _JSON_READERS[case].split()]
    capsys.readouterr()
    assert _run(*argv, "-o", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: cannot read {path['BAD']}: ")


@pytest.mark.parametrize("flag, values", [("--rect", (10 ** 20, 1)),
                                          ("--torus-lattice", (2 ** 31, 0, 0, 1))])
def test_region_flag_past_coord_bound_is_input_error(tmp_path, capsys, flag, values):
    pieces = _write_inputs(tmp_path)["pieces"]
    capsys.readouterr()
    assert _run("solve-poly", pieces, flag, *values, "--mode", "count") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: {flag} values must be of magnitude below 2**31")


@pytest.mark.parametrize("width, height", [(10 ** 5, 10 ** 5), (2 ** 31 - 1, 1),
                                           (2 ** 7 + 1, 2 ** 7)])
def test_region_over_search_limit_is_resource_limit(tmp_path, capsys, width, height):
    # Within the coordinate bound, a region too large to search is refused
    # before anything sized by its area is allocated.
    pieces = _write_inputs(tmp_path)["pieces"]
    capsys.readouterr()
    assert _run("solve-poly", pieces, "--rect", width, height, "--mode", "count") == 3
    assert capsys.readouterr().err == (f"error: a region of {width * height} cells "
                                       "is over the search limit of 16384 cells\n")
    # A bad piece file is still an input error.
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps([{"name": "m", "cells": [[0, 0]]}] * 2))
    assert _run("solve-poly", dup, "--rect", width, height, "--mode", "count") == 2
    assert capsys.readouterr().err == "input error: duplicate piece name 'm'\n"


# Each subcommand with valid inputs, writing its output to -o.
_WRITER_INPUTS = {**_VALID_INPUTS,
                  "wang_tiling": {"p": 3, "q": 1, "torus": True, "cells": [0, 1, 2]}}
_WRITERS = {
    "compile": "compile wang_set",
    "solve-wang": "solve-wang wang_set --torus 3 1",
    "solve-poly": "solve-poly pieces --rect 1 1",
    "simulate": "simulate wang_set wang_tiling",
    "verify": "verify pieces tiling",
    "render": "render pieces",
    "render-tiling": "render tiling --pieces pieces",
    "info": "info pieces",
}


@pytest.mark.parametrize("target", ["missing-dir", "dir"])
@pytest.mark.parametrize("case", list(_WRITERS))
def test_unwritable_output_is_input_error_naming_the_path(tmp_path, capsys, case, target):
    path = _write_inputs(tmp_path, **_WRITER_INPUTS)
    out = tmp_path / "missing" / "out" if target == "missing-dir" else tmp_path
    argv = [path.get(word, word) for word in _WRITERS[case].split()]
    capsys.readouterr()
    assert _run(*argv, "-o", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: cannot write {out}: ")


# Any JSON value, with the keys the input files use among its object keys.
_ANY_JSON = st.recursive(
    _JSON_SCALARS | st.floats(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["pieces", "name", "cells", "rect", "lattice", "placements",
                         "piece", "at", "p", "q", "torus", "colors", "tiles",
                         "n", "e", "s", "w"]) | _JSON_STRINGS, inner, max_size=4),
    max_leaves=12)


@st.composite
def _mutated(draw, obj):
    """obj with one value somewhere in it replaced by any JSON value, or one
    key or item dropped, or one item repeated."""
    if not (isinstance(obj, (dict, list)) and obj and draw(st.integers(0, 3))):
        return draw(_ANY_JSON)
    out = obj.copy()
    key = draw(st.sampled_from(list(obj) if isinstance(obj, dict) else range(len(obj))))
    how = draw(st.sampled_from(["drop", "repeat", "descend", "descend"]))
    if how == "drop":
        del out[key]
    elif how == "repeat" and isinstance(out, list):
        out.insert(key, obj[key])
    else:
        out[key] = draw(_mutated(obj[key]))
    return out


@given(st.sampled_from(sorted(_WRITERS)), st.data())
@settings(max_examples=150, deadline=None)
def test_any_input_file_exits_with_a_known_code(workdir, case, data):
    # Each subcommand, one of its files replaced by any JSON value or by a
    # mutation of the valid one, exits 0-3, with one stderr line for 2 or 3.
    words = _WRITERS[case].split()
    name = data.draw(st.sampled_from([w for w in words if w in _WRITER_INPUTS]))
    content = data.draw(_ANY_JSON | _mutated(_WRITER_INPUTS[name]))
    d = workdir / "fuzz"
    d.mkdir(exist_ok=True)
    path = _write_inputs(d, **{**_WRITER_INPUTS, name: content})
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = _run(*[path.get(w, w) for w in words], "-o", d / "out")
    assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue()
    if code in (2, 3):
        assert err.getvalue().count("\n") == 1
    if code == 1:  # a check or a search ran and found no exact cover
        assert words[0] in ("verify", "solve-wang", "solve-poly")
