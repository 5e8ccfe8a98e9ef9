"""Machine-speed probe: a fixed computation, timed on request.

The benchmark was built on a shared 2-core host whose speed drifted by up
to 2x over seconds to minutes, for reasons outside the process.  A run
probes between its set-ups and between its ops, and scales the wall time
of each by REFERENCE_S over the mean probe time on either side of it, so
that times read as seconds on a host where the probe takes REFERENCE_S.
The probe runs in its own process, so that it leaves the workload
process's heap and peak RSS alone, on the same CPU as that process.

Run as a helper: each line read from standard input holds a number of
seconds; the helper probes back to back for about that long (at least
once) and prints the mean probe time in seconds.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# Probe time on a quiet 2-core host; scales the reported times.
REFERENCE_S = 0.05


def probe() -> float:
    """Wall time of a fixed mix of interpreter, container and numpy work."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i & 7
    cells = {(i % 300, i // 300) for i in range(30_000)}
    by_row: dict[int, list] = {}
    for x, y in sorted(cells, key=lambda c: (c[1], c[0])):
        by_row.setdefault(y, []).append(x)
    a = np.arange(200_000, dtype=np.int64) * 7919 % 100_003
    np.bincount(a)
    np.sort(a)
    return time.perf_counter() - t0


def sample(seconds: float) -> float:
    """Mean time of probes run back to back for about ``seconds``."""
    times = [probe()]
    while sum(times) < seconds:
        times.append(probe())
    return sum(times) / len(times)


if __name__ == "__main__":
    probe()  # the first call is slower: lazy allocation and imports
    for line in sys.stdin:
        print(sample(float(line)), flush=True)
