"""Benchmark the compiled box scan kernel against the pure-Python fallback.

Usage: python benchmarks/bench_kernels.py [--repeat N]

Times the oracle's box scan on growing workloads and prints a table with
the speedup of the compiled path.  Runs fine without the extension (the
native column is reported as unavailable).
"""

import argparse
import random
import time

from galerobust._speed import _pure

try:
    from galerobust._speed import _native
except ImportError:
    _native = None


def _random_rows(rng, n, bound):
    rows = []
    while len(rows) < n:
        v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if v != (0, 0):
            rows.append(v)
    return rows


def _time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_box_scan(repeat):
    rng = random.Random(2)
    print("graver_box_scan: divisibility-minimal kernel vectors in a box")
    print(f"{'radius':>6} {'n':>4} {'pure (s)':>10} {'native (s)':>11} {'speedup':>8}")
    for radius, n in ((10, 4), (25, 5), (50, 6), (100, 6)):
        rows = _random_rows(rng, n, 6)

        def run(mod):
            mod.graver_box_scan(rows, radius)

        tp = _time(lambda: run(_pure), repeat)
        if _native is None:
            print(f"{radius:>6} {n:>4} {tp:>10.4f} {'n/a':>11} {'-':>8}")
        else:
            tn = _time(lambda: run(_native), repeat)
            print(f"{radius:>6} {n:>4} {tp:>10.4f} {tn:>11.4f} {tp / tn:>8.1f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="best of N timings")
    args = parser.parse_args()
    if _native is None:
        print("note: compiled kernel unavailable, timing the pure path only\n")
    bench_box_scan(args.repeat)


if __name__ == "__main__":
    main()
