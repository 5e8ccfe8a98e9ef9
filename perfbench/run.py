"""Run one workload of the pipeline benchmark and print its metrics.

    python3 perfbench/run.py --workload exact-periodic --seed 1 --seconds 35 --trace 0

The workload's inputs are generated from the seed.  Set-up runs several
times, each in a fresh Python process (import, generate, write), and
``setup_s`` is the median.  Then ops run one at a time through
``polywang.cli.run`` in this process (a closed loop with one client) until
the next op would end after ``--seconds``; ``op_s`` is the median.  A speed
probe (probe.py) runs between set-ups and between ops, and every time is
scaled to the probe's reference speed.  Every op is checked against the
workload's oracle.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
memory op under tracemalloc, then alternates traced and untraced ops,
reports the per-layer metrics and writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probe  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5
PROBE_SHARE = 0.1  # probe for this share of the time of the op before
# The program must see only the generated inputs, not a chosen backend or
# worker count.
REFUSED_ENV = ("POLYWANG_NO_NUMBA", "POLYWANG_WORKERS")


def git_sha(root: Path) -> str:
    """HEAD commit of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
            # Do not look for a repository above the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(nproc: int) -> dict:
    import numpy
    try:
        from polywang import _kernels
        backend = getattr(_kernels, "backend", lambda: "none")()
    except ImportError:
        backend = "none"
    return {
        "git_sha": git_sha(workloads.ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": backend,
        "nproc": nproc,
    }


@dataclass
class Timed:
    seconds: float  # wall time
    scale: float  # to reference speed, from the probes either side


@dataclass
class Op(Timed):
    kind: str = "plain"  # "plain", "traced" or "memory" (see measure)
    ok: bool = True


def set_up(workload: str, seed: int, work: Path,
           speed: Callable[[float], float]) -> list[Timed]:
    """Set the workload up SETUP_REPS times, probing between the set-ups."""
    reps = []
    before = speed(PROBE_SHARE)
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(workloads.__file__)),
                        workload, str(seed), str(work)],
                       check=True, timeout=120)
        elapsed = time.perf_counter() - t0
        after = speed(PROBE_SHARE * elapsed)
        reps.append(Timed(elapsed, 2 * probe.REFERENCE_S / (before + after)))
        before = after
    return reps


def run_op(cli, workload, work: Path) -> tuple[float, bool]:
    """One op: its command lines in order, then the oracle check.

    The files the op writes are removed first, so that the check reads
    only what this op wrote.
    """
    steps = workload.steps(work)
    for out in workloads.outputs(steps):
        out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        codes = [cli.run(argv) for argv in steps]
        elapsed = time.perf_counter() - t0
        workload.check(work, codes)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - t0, False
    return elapsed, True


class SpeedProbe:
    """The probe helper process; it inherits this process's CPU."""

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(probe.__file__))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self, seconds: float) -> float:
        """Mean probe time over about ``seconds`` of probing."""
        self._proc.stdin.write(f"{seconds}\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


def measure(cli, workload, work: Path, seconds: float, tracer: Tracer | None,
            speed: Callable[[float], float]) -> tuple[list[Op], list[float]]:
    """Closed loop: ops back to back until the next would overrun.

    The probe runs before the first op and, for a tenth of the op's time,
    after every op; returns the ops and the mean probe time of each gap.
    With a tracer, the first op is a memory op (traced under tracemalloc,
    not timed); after it, odd ops are traced and even ops are not, so both
    kinds share the run's conditions.
    """
    deadline = time.perf_counter() + seconds
    min_ops = 1 if tracer is None else 3
    ops: list[Op] = []
    gaps = [speed(PROBE_SHARE)]
    while True:
        if tracer is None:
            kind = "plain"
        elif not ops:
            kind = "memory"
        else:
            kind = "traced" if len(ops) % 2 else "plain"
        with (tracer.tracing(len(ops), memory=kind == "memory")
              if kind != "plain" else nullcontext()):
            elapsed, ok = run_op(cli, workload, work)
        gaps.append(speed(PROBE_SHARE * elapsed))
        ops.append(Op(elapsed, 2 * probe.REFERENCE_S / (gaps[-2] + gaps[-1]),
                      kind, ok))
        if len(ops) >= min_ops and time.perf_counter() + elapsed > deadline:
            return ops, gaps


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    refused = [v for v in REFUSED_ENV if v in os.environ]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set", file=sys.stderr)
        return 2
    try:
        cli = workloads.import_polywang()
    except (OSError, ImportError) as exc:
        print(f"cannot import polywang: {exc}", file=sys.stderr)
        return 2

    # One CPU for the ops, the set-ups and the probe, so that the probe
    # sees the conditions the ops see.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        with SpeedProbe() as speed:
            setups = set_up(args.workload, args.seed, work, speed)
            workload = workloads.WORKLOADS[args.workload]()
            workload.prepare_oracle(work)
            tracer = Tracer() if args.trace else None
            ops, gaps = measure(cli, workload, work, args.seconds, tracer,
                                speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Times are reported as seconds on a host where the probe takes
    # probe.REFERENCE_S: each set-up and each op is scaled by the probes
    # either side of it.  The detail line keeps the raw wall times.
    failed = sum(not op.ok for op in ops)
    plain = [op for op in ops if op.kind == "plain"]
    detail = {"workload": args.workload, "seed": args.seed,
              "env": environment(len(cpus)),
              "setups": [asdict(rep) for rep in setups],
              "probe_s": gaps, "ops": [asdict(op) for op in ops],
              "failed_frac": failed / len(ops)}
    if tracer is None:
        metrics = {
            "op_s": {"value": statistics.median(
                op.seconds * op.scale for op in plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(
                rep.seconds * rep.scale for rep in setups), "unit": "s"},
        }
    else:
        traced = {i: op for i, op in enumerate(ops) if op.kind == "traced"}
        overhead = (
            statistics.median(op.seconds * op.scale for op in traced.values())
            / statistics.median(op.seconds * op.scale for op in plain) - 1)
        metrics = tracer.layer_metrics(
            {i: op.scale for i, op in traced.items()}, overhead)
        # The self times of the timed traced ops' spans add up to their
        # wall time minus this.
        detail["unspanned_s_per_op"] = (
            sum(op.seconds for op in traced.values())
            - sum(own for own, s in zip(tracer.self_times(), tracer.spans)
                  if s["op"] in traced)) / len(traced)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({**detail, "spans": tracer.spans}))
        detail["trace_file"] = str(trace_file.relative_to(workloads.ROOT))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
