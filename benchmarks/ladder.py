"""Stage times and peak memory of the pipeline on a fixed size ladder.

    python benchmarks/ladder.py            # the three small rungs
    python benchmarks/ladder.py --large    # also the 49.2M-cell rung

A rung compiles a Wang set of n tiles over 2**t colours, emits the
placements of its self-matching tile on a p x p torus, verifies them with
``check_tiling`` and renders the seven pieces.  Then it runs the same
pipeline through ``cli.run`` on files in a temporary directory (compile,
simulate, verify and the render of the tiling), so the reading and writing
of JSON and SVG shows too (``cli_*_s``).  Each rung runs REPEATS times,
each in a fresh Python process, so its ``ru_maxrss`` is that run's own
peak: the peak after emit and the one before the CLI stages
(``peak_rss_mb``) are recorded, so that verify's share shows, and
``cli_peak_rss_mb`` is the peak at the end.  Each measure is recorded as
the median of the repeats, with their [min, max] under ``<measure>_range``.
The run (git SHA, versions, rungs) is appended to BENCH_ladder.json at the
root of the checkout, or to --out.  The polywang measured is the one in
this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (n, t, p): 2400 * n * (t + 1) * p * p quotient cells
RUNGS = ((3, 2, 3), (4, 3, 6), (8, 4, 8))
LARGE_RUNG = (16, 4, 16)
REPEATS = 3
MEASURES = ("compile_s", "emit_s", "verify_s", "render_s",
            "peak_rss_after_emit_mb", "peak_rss_mb", "cli_compile_s",
            "cli_simulate_s", "cli_verify_s", "cli_render_s", "cli_peak_rss_mb")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rung(n: int, t: int, p: int) -> dict:
    """Compile, emit, verify and render one rung in this process, through
    the library and then through the command line."""
    sys.path.insert(0, str(ROOT / "src"))
    from polywang.compiler import compile_pieces
    from polywang.render import RenderSpec, render_svg
    from polywang.simulate import emit_placements
    from polywang.solver import Torus, check_tiling
    from polywang.wang import WangTileSet, WangTiling

    m = 2 ** t
    colors = [f"c{i}" for i in range(m)]
    # Tile 0 matches itself on every side; the others only fill out the set.
    tiles = [(colors[0],) * 4] + [
        tuple(colors[(k + j) % m] for j in range(4)) for k in range(1, n)]
    tileset = WangTileSet.from_labels(tiles, colors)
    tiling = WangTiling(p, p, True, (0,) * (p * p))

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
    library_peak = _peak_mb()
    with tempfile.TemporaryDirectory() as tmp:
        cli_times = run_cli_stages(Path(tmp), tileset.to_json(), tiling.to_json())
    return {
        "n": n, "t": t, "torus": [p, p],
        "quotient_cells": region.area,
        "placements": len(sim.placements),
        "exact": report.exact,
        "compile_s": round(compiled - start, 3),
        "emit_s": round(emitted - compiled, 3),
        "verify_s": round(verified - emitted, 3),
        "render_s": round(rendered - verified, 3),
        "peak_rss_after_emit_mb": round(emit_peak, 1),
        "peak_rss_mb": round(library_peak, 1),
        **cli_times,
        "cli_peak_rss_mb": round(_peak_mb(), 1),
    }


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
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_ladder.json")
    ap.add_argument("--rung", help=argparse.SUPPRESS)  # "n,t,p": one rung
    args = ap.parse_args(argv)
    if args.rung:
        print(json.dumps(run_rung(*map(int, args.rung.split(",")))))
        return 0

    import numpy
    sha = _git("rev-parse", "HEAD")
    run = {
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown",
        # Whether src/ differs from that commit.
        "src_modified": _git("diff", "--quiet", "HEAD", "--", "src").returncode != 0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rungs": [],
    }
    for rung in RUNGS + ((LARGE_RUNG,) if args.large else ()):
        results = []
        for _ in range(REPEATS):
            proc = subprocess.run(
                [sys.executable, __file__, "--rung", ",".join(map(str, rung))],
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        result = {k: v for k, v in results[0].items() if k not in MEASURES}
        result["repeats"] = REPEATS
        for k in MEASURES:
            values = sorted(r[k] for r in results)
            result[k] = statistics.median(values)
            result[k + "_range"] = [values[0], values[-1]]
        print(json.dumps(result))
        run["rungs"].append(result)
    runs = json.loads(args.out.read_text()) if args.out.exists() else []
    args.out.write_text(json.dumps(runs + [run], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
