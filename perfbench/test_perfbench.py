"""Self-tests of the benchmark: generators, oracles and tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import sys
import types

import pytest

import run
import spans
import workloads
from workloads import (DefectsRender, ExactPeriodic, OracleMismatch,
                       SearchCount, count_tilings, drawn_shapes,
                       expected_defects, import_polywang, piece_sizes,
                       quotient_cells, read_json, write_json)

cli = import_polywang()

THREE_TILE_SET = {
    "colors": ["red", "green", "yellow", "blue"],
    "tiles": [
        {"n": "red", "e": "yellow", "s": "red", "w": "green"},
        {"n": "blue", "e": "red", "s": "blue", "w": "yellow"},
        {"n": "yellow", "e": "green", "s": "yellow", "w": "red"},
    ],
}
DOMINOES = (("h", ((0, 0), (1, 0))), ("v", ((0, 0), (0, 1))))


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = run.OUT / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload, workdir):
    cls = workloads.WORKLOADS[workload]
    for sub, seed in (("a", 11), ("b", 11), ("c", 12)):
        (workdir / sub).mkdir()
        cls().generate(seed, workdir / sub, cli)
    assert _files(workdir / "a") == _files(workdir / "b")
    assert _files(workdir / "a") != _files(workdir / "c")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_other_seeds_keep_sizes(seed, workdir):
    # exact-periodic: n = 9, t = 2 on a 6x6 torus
    ExactPeriodic().generate(seed, workdir, cli)
    wang_set = read_json(workdir / "wang.json")
    assert (len(wang_set["tiles"]), len(wang_set["colors"])) == (9, 4)
    assert cli.run(["simulate", str(workdir / "wang.json"),
                    str(workdir / "tiling.json"),
                    "-o", str(workdir / "sim.json")]) == 0
    sim = read_json(workdir / "sim.json")
    (x1, y1), (x2, y2) = sim["lattice"]
    assert abs(x1 * y2 - y1 * x2) == quotient_cells(9, 2, 6, 6) == 2_332_800
    assert len(sim["placements"]) == 2808
    # defects-render: the 3x3 base torus, three deleted and three duplicated
    DefectsRender().generate(seed, workdir, cli)
    sim = read_json(workdir / "sim.json")
    (x1, y1), (x2, y2) = sim["lattice"]
    assert abs(x1 * y2 - y1 * x2) == quotient_cells(9, 2, 3, 3) == 583_200
    assert len(sim["placements"]) == 702


def test_dp_matches_known_counts():
    fib = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert [count_tilings(2, n, [c for _, c in DOMINOES])
            for n in range(1, 11)] == fib
    assert count_tilings(2, 3, [((0, 0), (1, 0), (0, 1))]) == 0
    assert count_tilings(6, 8, [c for _, c in DOMINOES]) == 167_089
    assert count_tilings(6, 6, workloads.SEARCH_PIECES.values()) == 123_648
    assert count_tilings(6, 5, workloads.SEARCH_PIECES.values()) == 12_126


def test_defect_oracle_on_three_tile_example(workdir):
    assert expected_defects(3, 2, ["t_filler"], []) == (18, 0)
    write_json(workdir / "wang.json", THREE_TILE_SET)
    write_json(workdir / "tiling.json",
               {"p": 3, "q": 1, "torus": True, "cells": [0, 1, 2]})
    d = str(workdir)
    assert cli.run(["compile", d + "/wang.json", "-o", d + "/pieces.json"]) == 0
    assert cli.run(["simulate", d + "/wang.json", d + "/tiling.json",
                    "-o", d + "/sim.json"]) == 0
    sim = read_json(workdir / "sim.json")
    drop = next(i for i, pl in enumerate(sim["placements"])
                if pl["piece"] == "t_filler")
    del sim["placements"][drop]
    write_json(workdir / "sim.json", sim)
    assert cli.run(["verify", d + "/pieces.json", d + "/sim.json",
                    "-o", d + "/report.json"]) == 1
    report = read_json(workdir / "report.json")
    assert (len(report["uncovered"]), len(report["overlaps"])) == (18, 0)


def test_piece_size_closed_forms_match_compiler(workdir):
    write_json(workdir / "wang.json", THREE_TILE_SET)
    assert cli.run(["compile", str(workdir / "wang.json"),
                    "-o", str(workdir / "pieces.json")]) == 0
    pieces = read_json(workdir / "pieces.json")["pieces"]
    assert {p["name"]: len(p["cells"]) for p in pieces} == piece_sizes(3, 2)


def _speed(seconds):
    return 0.05


def _failed(workload, d):
    ops, _ = run.measure(cli, workload, d, 0, None, _speed)
    return sum(not op.ok for op in ops)


def _one_op(workload, d, seed=4):
    workload.generate(seed, d, cli)
    workload.prepare_oracle(d)
    return _failed(workload, d)


def test_wrong_oracle_value_counts_as_failure(workdir, monkeypatch):
    search = SearchCount(width=2, height=6, pieces=DOMINOES)
    assert _one_op(search, workdir) == 0
    search.expected += 1
    assert _failed(search, workdir) == 1

    exact = ExactPeriodic(reps=1)
    assert _one_op(exact, workdir) == 0
    wrong = dict(piece_sizes(9, 2), t_filler=19)
    monkeypatch.setattr(workloads, "piece_sizes", lambda n, t: wrong)
    assert _failed(exact, workdir) == 1


def test_unexpected_exit_code_counts_as_failure(workdir):
    search = SearchCount(width=2, height=6, pieces=DOMINOES)
    search.generate(1, workdir, cli)
    search.prepare_oracle(workdir)
    with pytest.raises(OracleMismatch):
        search.check(workdir, [1])


def test_defects_render_oracle(workdir):
    defects = DefectsRender()
    assert _one_op(defects, workdir) == 0
    assert defects.expected == (656, 5292)
    defects.expected = (655, 5292)
    assert _failed(defects, workdir) == 1


def test_svg_oracle_counts_paths_and_uses():
    ns = 'xmlns="http://www.w3.org/2000/svg"'
    paths = (f'<svg {ns} width="4" height="4">\n'
             '<path d="M0,0L1,0L1,1Z"/>\n<path d="M1,0L2,0L2,1Z"/>\n'
             '<line x1="0" y1="0" x2="1" y2="1"/>\n</svg>\n')
    uses = (f'<svg {ns} xmlns:xlink="http://www.w3.org/1999/xlink">'
            '<defs><path id="a" d="M0,0L1,0L1,1Z"/>'
            '<path id="b" d="M0,0L2,0L2,1Z"/></defs>'
            '<use href="#a" x="0"/><g fill="red"><use xlink:href="#b" x="3"/>'
            '<use href="#a" x="7"/></g></svg>')
    assert drawn_shapes(paths) == 2
    assert drawn_shapes(uses) == 3
    with pytest.raises(OracleMismatch):
        drawn_shapes("<html><path/></html>")


def test_stale_outputs_do_not_pass(workdir, monkeypatch):
    search = SearchCount(width=2, height=6, pieces=DOMINOES)
    assert _one_op(search, workdir) == 0
    # An op that exits 0 but writes nothing must not pass on the last op's
    # count.txt.
    monkeypatch.setattr(cli, "run", lambda argv: 0)
    assert _failed(search, workdir) == 1


def test_tracer_spans_add_up_and_restore(workdir):
    original = cli.run
    exact = ExactPeriodic(reps=1)
    exact.generate(2, workdir, cli)
    exact.prepare_oracle(workdir)
    tracer = spans.Tracer()
    ops, gaps = run.measure(cli, exact, workdir, 0, tracer, _speed)
    assert [(op.kind, op.ok, op.scale) for op in ops] == \
        [("memory", True, 1.0), ("traced", True, 1.0), ("plain", True, 1.0)]
    assert gaps == [0.05] * 4
    assert cli.run is original
    timed = [s for s in tracer.spans if s["op"] == 1]
    names = {s["name"] for s in timed}
    assert {"cli.run", "compiler.compile_pieces", "simulate.emit_placements",
            "solver.check_tiling", "kernels.coverage_counts",
            "kernels.reduce_points"} <= names
    assert names == {s["name"] for s in tracer.spans if s["op"] == 0}
    roots = [s for s in timed if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.run"] * 3
    root_time = sum(s["end"] - s["start"] for s in roots)
    own = [t for t, s in zip(tracer.self_times(), tracer.spans) if s["op"] == 1]
    assert sum(own) == pytest.approx(root_time, rel=1e-9)
    assert root_time <= ops[1].seconds
    metrics = tracer.layer_metrics({1: 1.0}, 0.0)
    assert set(metrics) == set(spans.METRICS)
    assert metrics["simulate.placements"]["value"] == 702
    assert metrics["solver.defects_out"]["value"] == 0
    assert metrics["solver.check_tiling_s"]["value"] > 0
    # 583,200 cells of int64 coordinates pass through check_tiling.
    assert metrics["solver.check_tiling_rss_growth_mb"]["value"] > 4
    assert metrics["render.rss_growth_mb"]["value"] == 0


def test_heap_growth_of_nested_spans(monkeypatch):
    def inner():
        block = bytearray(8 * spans.MB)
        del block

    def outer():
        kept = bytearray(spans.MB)
        fake.inner()
        return kept

    fake = types.SimpleNamespace(inner=inner, outer=outer)
    monkeypatch.setitem(sys.modules, "polywang.fake", fake)
    monkeypatch.setattr(spans, "WRAPPED", (
        ("fake", "outer", "fake.outer", None),
        ("fake", "inner", "fake.inner", None)))
    tracer = spans.Tracer()
    with tracer.tracing(0, memory=True):
        fake.outer()
    growth = {s["name"]: s["heap_growth_mb"] for s in tracer.spans}
    assert growth["fake.inner"] == pytest.approx(8, abs=0.1)
    assert growth["fake.outer"] == pytest.approx(9, abs=0.1)
    assert (fake.outer, fake.inner) == (outer, inner)


def test_missing_entry_points_read_zero(workdir, monkeypatch):
    from polywang import _kernels, render
    monkeypatch.delattr(render, "render_svg")
    monkeypatch.delattr(_kernels, "backend")
    exact = ExactPeriodic(reps=1)
    exact.generate(2, workdir, cli)
    exact.prepare_oracle(workdir)
    tracer = spans.Tracer()
    with tracer.tracing(0):
        assert run.run_op(cli, exact, workdir)[1]
    assert not hasattr(render, "render_svg")
    metrics = tracer.layer_metrics({0: 1.0}, 0.0)
    assert metrics["render.render_svg_s"]["value"] == 0
    assert metrics["solver.check_tiling_s"]["value"] > 0
    assert run.environment(1)["kernels_backend"] == "none"


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {k: (u, b) for k, (u, b, _, _) in spans.METRICS.items()}
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"op_s", "peak_rss_mb", "setup_s"}


@pytest.mark.parametrize("var", run.REFUSED_ENV)
def test_refuses_program_settings(var, monkeypatch, capsys):
    monkeypatch.setenv(var, "1")
    assert run.main(["--workload", "search-count", "--seed", "1",
                     "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_speed_probe_helper_times_and_exits():
    with run.SpeedProbe() as speed:
        times = [speed(0), speed(0.2)]
        proc = speed._proc
    assert all(0 < t < 10 for t in times)
    assert proc.returncode == 0
