"""Stage times and peak memory of the pipeline on a fixed size ladder.

    python benchmarks/ladder.py            # the three small rungs
    python benchmarks/ladder.py --large    # also the 49.2M-cell rung
    python benchmarks/ladder.py --huge     # also the 995M-cell rung (~2 GB)

A rung compiles a Wang set of n tiles over 2**t colours, emits the
placements of its self-matching tile on a p x p torus, verifies them with
``check_tiling`` and renders the seven pieces.  Then it runs the same
pipeline through ``cli.run`` on files in a temporary directory (compile,
simulate, verify and the render of the tiling), so the reading and writing
of JSON and SVG shows too (``cli_*_s``).  Each rung runs REPEATS times.
Each run's library stages and its command-line stages run in two fresh
Python processes, spawned from this small one, so each ``ru_maxrss`` is
that part's own peak: the peak after emit and the one at the end of the
library stages (``peak_rss_mb``) show verify's share, and
``cli_peak_rss_mb`` is the command line's peak, not the heap the library
stages left.  Each measure is recorded as the median of the repeats, with
their [min, max] under ``<measure>_range``.  Once per rung, each library
stage also runs under tracemalloc in a fresh process of its own, its inputs
built before tracing starts, so its heap peak (``<stage>_heap_mb``) is its
own and the timed stages run untraced; ``verify_heap_bytes_per_run`` divides
verify's by the row runs it places (``runs``).  The run (git SHA, versions,
rungs) is appended to BENCH_ladder.json at the root of the checkout, or to
--out.  The polywang measured is the one in this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# (n, t, p): 2400 * n * (t + 1) * p * p quotient cells
RUNGS = ((3, 2, 3), (4, 3, 6), (8, 4, 8))
LARGE_RUNG = (16, 4, 16)
HUGE_RUNG = (16, 4, 72)
HEAP_STAGES = ("compile", "emit", "verify", "render")
REPEATS = 3
MEASURES = ("compile_s", "emit_s", "verify_s", "render_s",
            "peak_rss_after_emit_mb", "peak_rss_mb", "cli_compile_s",
            "cli_simulate_s", "cli_verify_s", "cli_render_s", "cli_peak_rss_mb")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rung_inputs(n: int, t: int, p: int):
    """The Wang set of n tiles over 2**t colours and its self-matching
    tiling of the p x p torus."""
    sys.path.insert(0, str(ROOT / "src"))
    from polywang.wang import WangTileSet, WangTiling

    m = 2 ** t
    colors = [f"c{i}" for i in range(m)]
    # Tile 0 matches itself on every side; the others only fill out the set.
    tiles = [(colors[0],) * 4] + [
        tuple(colors[(k + j) % m] for j in range(4)) for k in range(1, n)]
    return WangTileSet.from_labels(tiles, colors), WangTiling(p, p, True, (0,) * (p * p))


def _runs(pieces, placements) -> int:
    """Row runs of the pieces at the placements."""
    runs = {p.name: len(p.runs[1]) for p in pieces}
    uses = np.bincount(placements.piece, minlength=len(placements.names))
    return sum(runs[name] * int(k) for name, k in zip(placements.names, uses))


def run_rung(n: int, t: int, p: int) -> dict:
    """Compile, emit, verify and render one rung in this process, through
    the library."""
    tileset, tiling = rung_inputs(n, t, p)
    from polywang.compiler import compile_pieces
    from polywang.render import RenderSpec, render_svg
    from polywang.simulate import emit_placements
    from polywang.solver import Torus, check_tiling

    start = time.perf_counter()
    pieces = compile_pieces(tileset)
    compiled = time.perf_counter()
    sim = emit_placements(tileset, tiling)
    emitted = time.perf_counter()
    emit_peak = _peak_mb()
    region = Torus(sim.lattice)
    report = check_tiling(region, pieces.pieces, sim.placements)
    verified = time.perf_counter()
    render_svg(RenderSpec(), pieces.pieces)
    rendered = time.perf_counter()
    return {
        "n": n, "t": t, "torus": [p, p],
        "quotient_cells": region.area,
        "placements": len(sim.placements),
        "runs": _runs(pieces.pieces, sim.placements),
        "exact": report.exact,
        "compile_s": round(compiled - start, 3),
        "emit_s": round(emitted - compiled, 3),
        "verify_s": round(verified - emitted, 3),
        "render_s": round(rendered - verified, 3),
        "peak_rss_after_emit_mb": round(emit_peak, 1),
        "peak_rss_mb": round(_peak_mb(), 1),
    }


def stage_heap(n: int, t: int, p: int, stage: str) -> int:
    """The tracemalloc peak, in bytes, of one library stage of a rung, run in
    this process after the stages before it."""
    tileset, tiling = rung_inputs(n, t, p)
    from polywang.compiler import compile_pieces
    from polywang.render import RenderSpec, render_svg
    from polywang.simulate import emit_placements
    from polywang.solver import Torus, check_tiling

    pieces = compile_pieces(tileset) if stage in ("verify", "render") else None
    sim = emit_placements(tileset, tiling) if stage == "verify" else None
    run = {"compile": lambda: compile_pieces(tileset),
           "emit": lambda: emit_placements(tileset, tiling),
           "verify": lambda: check_tiling(Torus(sim.lattice), pieces.pieces,
                                          sim.placements),
           "render": lambda: render_svg(RenderSpec(), pieces.pieces)}[stage]
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_cli_rung(n: int, t: int, p: int) -> dict:
    """The command-line stages of one rung in this process, and its peak."""
    tileset, tiling = rung_inputs(n, t, p)
    with tempfile.TemporaryDirectory() as tmp:
        times = run_cli_stages(Path(tmp), tileset.to_json(), tiling.to_json())
    return {**times, "cli_peak_rss_mb": round(_peak_mb(), 1)}


def in_fresh_process(fn, *args):
    """fn(*args), run in a new Python process spawned from this one."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(fn, args)


def run_cli_stages(d: Path, wang_set: dict, tiling: dict) -> dict:
    """Seconds of each ``polywang`` command of the pipeline on files in d."""
    from polywang import cli

    (d / "wang.json").write_text(json.dumps(wang_set))
    (d / "tiling.json").write_text(json.dumps(tiling))
    stages = {
        "cli_compile_s": ["compile", "wang.json", "-o", "pieces.json"],
        "cli_simulate_s": ["simulate", "wang.json", "tiling.json", "-o", "sim.json"],
        "cli_verify_s": ["verify", "pieces.json", "sim.json", "-o", "report.json"],
        "cli_render_s": ["render", "sim.json", "--pieces", "pieces.json",
                         "-o", "tiling.svg"],
    }
    times = {}
    for name, argv in stages.items():
        start = time.perf_counter()
        code = cli.run([str(d / a) if a.endswith((".json", ".svg")) else a
                        for a in argv])
        times[name] = round(time.perf_counter() - start, 3)
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited with {code}")
    return times


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--large", action="store_true",
                    help="also run the 16-tile, 16x16 rung (49.2M cells, "
                         "about 0.5 GB)")
    ap.add_argument("--huge", action="store_true",
                    help="also run the 16-tile, 72x72 rung (995M cells, "
                         "about 2 GB); not run in CI")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_ladder.json")
    args = ap.parse_args(argv)

    sha = _git("rev-parse", "HEAD")
    run = {
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown",
        # Whether src/ differs from that commit.
        "src_modified": _git("diff", "--quiet", "HEAD", "--", "src").returncode != 0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rungs": [],
    }
    for rung in (RUNGS + ((LARGE_RUNG,) if args.large else ())
                 + ((HUGE_RUNG,) if args.huge else ())):
        results = [{**in_fresh_process(run_rung, *rung),
                    **in_fresh_process(run_cli_rung, *rung)}
                   for _ in range(REPEATS)]
        result = {k: v for k, v in results[0].items() if k not in MEASURES}
        result["repeats"] = REPEATS
        for k in MEASURES:
            values = sorted(r[k] for r in results)
            result[k] = statistics.median(values)
            result[k + "_range"] = [values[0], values[-1]]
        heap = {stage: in_fresh_process(stage_heap, *rung, stage)
                for stage in HEAP_STAGES}
        for stage, peak in heap.items():
            result[f"{stage}_heap_mb"] = round(peak / 2 ** 20, 1)
        result["verify_heap_bytes_per_run"] = round(heap["verify"] / result["runs"], 1)
        print(json.dumps(result))
        run["rungs"].append(result)
    runs = json.loads(args.out.read_text()) if args.out.exists() else []
    args.out.write_text(json.dumps(runs + [run], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
