"""Machine-speed probe: the reported times are scaled to a fixed machine speed.

This shared 2-core VM changes speed from one second to the next.  The
same decide pass took 3.2 to 5.5 s within four minutes, and ten seeds
read 20-28 ops/s unscaled.  The probe is a fixed piece of integer work
owned by the benchmark, shaped like the package's hot loops: a
lattice-point scan of one cone and a Bareiss elimination on big
integers.  It runs between ops, at most every PROBE_EVERY_S, outside the
timed intervals, warmed up first so that what the last op left in the
caches does not change its time.  Each op's latency is multiplied by
PROBE_NS over the mean of the probes just before and just after it:
that is its latency on a machine where the probe takes PROBE_NS.  Over
200 s of decide passes this cut the spread of 30-s windows from 11.6 %
to 2.6 % of the median; over 150 s of gale-wide, from 9.7 % to 0.7 %.
A change to the package cannot change the probe.
"""

from __future__ import annotations

import bisect
import random
import statistics
from math import gcd
from time import perf_counter, perf_counter_ns

PROBE_NS = 250_000
PROBE_EVERY_S = 0.1
NEIGHBOURS = 1

_RNG = random.Random(5)
_MATRIX = [[_RNG.randint(-10**6, 10**6) for _ in range(9)] for _ in range(9)]


def speed_probe() -> int:
    """Fixed integer work; about 0.25 ms warm on the machine these bounds were set on."""
    ax, ay, bx, by = 9, -4, -5, 13
    det = ax * by - ay * bx
    cands = []
    for px in range(min(0, ax, bx, ax + bx), max(0, ax, bx, ax + bx) + 1):
        for py in range(min(0, ay, by, ay + by), max(0, ay, by, ay + by) + 1):
            c1 = ax * py - ay * px
            c2 = px * by - py * bx
            if 0 <= c1 <= det and 0 <= c2 <= det and (px or py):
                cands.append((px, py))
    kept = 0
    for px, py in cands:
        if gcd(px, py) != 1:
            continue
        for qx, qy in cands:
            rx, ry = px - qx, py - qy
            if (rx or ry) and ax * ry - ay * rx >= 0 and rx * by - ry * bx >= 0:
                break
        else:
            kept += 1
    a = [row[:] for row in _MATRIX]
    n, prev = len(a), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return kept + a[n - 1][n - 1]


class Probe:
    """Probe times along a run, and the scale factor they give at any moment."""

    def __init__(self):
        self.at: list[float] = []
        self.ns: list[int] = []
        self._last = float("-inf")

    def run(self) -> None:
        """One untimed run to warm the caches the last op evicted, then the faster of two."""
        now = perf_counter()
        speed_probe()
        best = None
        for _ in range(2):
            t0 = perf_counter_ns()
            speed_probe()
            dt = perf_counter_ns() - t0
            best = dt if best is None else min(best, dt)
        self.ns.append(best)
        self.at.append(now)
        self._last = perf_counter()

    def maybe(self) -> None:
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.run()

    def scale(self, t: float) -> float:
        """PROBE_NS over the median of the probes bracketing time t."""
        j = bisect.bisect_left(self.at, t)
        near = self.ns[max(0, j - NEIGHBOURS): j + NEIGHBOURS]
        return PROBE_NS / statistics.median(near)
