"""Micro-benchmarks: the oracle's box scan, the Gale transform over n,
the fan layers of ``is_strongly_robust`` and the CLI per subcommand.

Usage: python benchmarks/bench_kernels.py [--repeat N]

Times the oracle's box scan (best of N seconds) on growing radii over
random Gale rows with entries in +-6.  Then prints the size curve
of ``gale_transform`` on seeded dense (n-2) x n matrices with entries in
+-9, and for n = 64 and 100 on A = ker(B^T)^T, the kernel of random
nonzero Gale rows B with entries in +-9: median and max milliseconds
over five matrices per row.  Then the median microseconds per op (best
of N) of each Gale stage on 100 seeded dense (n-2) x n matrices, n
12..18, entries in +-9: the forward elimination the planar kernel runs
(on the rows reversed, the reversal included), the rest of the planar
kernel ``gale_transform`` runs (back substitution and the saturation in
Z^2 that yields the Hermite form), the Lagrange reduction with the
configuration, ``reduce_configuration``, ``is_positively_graded`` and
``bouquets``; the back-substitution and Lagrange stages are
differences of two timings of the same matrix.  Then the forward
elimination alone, the one-step reference in the tests' conftest
against the package's two-step form, on 20 seeded dense (n-2) x n
matrices per cell, n 12, 18, 24 and 32, entries in +-9 and +-2^64:
microseconds per call (best of N, the two timed in turn) and their
ratio.  Then, over 100 seeded problems drawn like
the acceptance suite, the median microseconds per problem (best of N)
of the plain fan union, the half-turn of the symmetrized fan read off
that union, and the Graver binomials built from it in one batch (one
per half-turn vector), and the median microseconds per Graver element
(best of N) of the fiber oracle ``is_indispensable_oracle``.  Then a
least-squares line through the microseconds per call of
``is_strongly_robust`` (best of N, ten calls each) against the Graver
basis size on those 100 problems: its intercept is the cost every call
pays, its slope the cost per Graver element.  One line is fitted per
pass over the problems, over FIT_PASSES passes in turn, and the median
and the min-max of each fit value are printed, so that the spread
between passes shows.  Last, the median wall milliseconds
of ``python -m galerobust <cmd>`` on ``tests/data/example_4x6.mat`` for
each subcommand, over CLI_RUNS fresh processes: start-up and imports
included, since a subcommand loads only the modules it runs.  Two floor
rows come first, a bare ``python -c pass`` and ``import galerobust.cli``.
Every process runs with PYTHONDONTWRITEBYTECODE=1, and the table header
says whether ``src/galerobust/__pycache__`` exists: without it each
process compiles the modules it imports.  For that case, run the script
itself with PYTHONDONTWRITEBYTECODE=1 in a tree with no ``__pycache__``,
so that its own imports leave none behind.
"""

import argparse
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Import the package from src/ beside this script, so that no install or
# PYTHONPATH is needed, and the kernel generator from the tests' conftest.
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))

import galerobust
from galerobust import (
    IntegerMatrix,
    bouquets,
    fan_hilbert_union,
    gale_transform,
    is_indispensable_oracle,
    is_positively_graded,
    is_strongly_robust,
    rank,
    reduce_configuration,
)
from galerobust.errors import RankError, ZeroRowError
from galerobust.intlinalg import _bareiss_forward, _planar_kernel
from galerobust.hilbert import symmetrized_half_turn
from galerobust.oracle import _box_scan
from galerobust.toric import _gale_binomials

from conftest import kernel_lattice_basis, reference_bareiss_forward, transpose


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
    print("box scan: divisibility-minimal kernel vectors in a box")
    print(f"{'radius':>6} {'n':>4} {'best (s)':>10}")
    for radius, n in ((10, 4), (25, 5), (50, 6), (100, 6)):
        rows = _random_rows(rng, n, 6)
        t = _time(lambda: _box_scan(rows, radius), repeat)
        print(f"{radius:>6} {n:>4} {t:>10.4f}")


def _dense(rng, n):
    return IntegerMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 2)])


def _kernel_of_gale_rows(rng, n):
    """A = ker(B^T)^T for n random nonzero Gale rows B of rank 2."""
    while True:
        bt = IntegerMatrix(list(zip(*_random_rows(rng, n, 9))))
        if rank(bt) == 2:
            return transpose(kernel_lattice_basis(bt))


def bench_gale_transform():
    print("gale_transform: (n-2) x n matrices; dense entries and Gale rows B in +-9")
    print(f"{'input':<12} {'n':>4} {'median (ms)':>12} {'max (ms)':>9}")
    for kind, make, sizes in (
        ("dense", _dense, (16, 24, 32, 48)),
        ("ker(B^T)^T", _kernel_of_gale_rows, (64, 100)),
    ):
        for n in sizes:
            times = []
            for seed in range(5):
                a = make(random.Random(seed), n)
                t0 = time.perf_counter()
                gale_transform(a)
                times.append((time.perf_counter() - t0) * 1e3)
            print(f"{kind:<12} {n:>4} {statistics.median(times):>12.1f} {max(times):>9.1f}")


def bench_gale_stages(repeat):
    rng = random.Random(1)
    stages = {
        name: []
        for name in (
            "forward elimination",
            "back substitution, saturation",
            "Lagrange and configuration",
            "reduce_configuration",
            "is_positively_graded",
            "bouquets",
        )
    }
    done = 0
    while done < 100:
        n = rng.randint(12, 18)
        a = _dense(rng, n)
        try:
            b = gale_transform(a)
        except (RankError, ZeroRowError):
            continue
        done += 1
        forward = _time(lambda: _bareiss_forward([row[::-1] for row in a.rows], n), repeat)
        kernel = _time(lambda: _planar_kernel(a), repeat)
        whole = _time(lambda: gale_transform(a), repeat)
        for name, t in (
            ("forward elimination", forward),
            ("back substitution, saturation", kernel - forward),
            ("Lagrange and configuration", whole - kernel),
            ("reduce_configuration", _time(lambda: reduce_configuration(b), repeat)),
            ("is_positively_graded", _time(lambda: is_positively_graded(b), repeat)),
            ("bouquets", _time(lambda: bouquets(b), repeat)),
        ):
            stages[name].append(t * 1e6)
    print("Gale stages: 100 seeded dense (n-2) x n matrices, n 12..18, entries in +-9")
    print(f"{'stage':<30} {'median (us)':>12}")
    for name, times in stages.items():
        print(f"{name:<30} {statistics.median(times):>12.1f}")


FORWARD_SIZES = (12, 18, 24, 32)
FORWARD_BOUNDS = (9, 2**64)


def bench_forward_sweep(repeat, sizes=FORWARD_SIZES, bounds=FORWARD_BOUNDS, count=20):
    """Two-step ``_bareiss_forward`` against the one-step reference in conftest.

    Per cell, ``count`` seeded dense (n-2) x n matrices with entries in
    +-bound; the two are timed in turn on each repeat, so that a drift in
    machine speed moves both alike.
    """
    print("forward elimination: (n-2) x n dense matrices, best of N, us per call")
    print(f"{'n':>4} {'entries':>8} {'one-step':>10} {'two-step':>10} {'ratio':>6}")
    for n in sizes:
        for bound in bounds:
            rng = random.Random(n * 1000 + bound.bit_length())
            mats = [
                [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n - 2)]
                for _ in range(count)
            ]
            best = {reference_bareiss_forward: float("inf"), _bareiss_forward: float("inf")}
            for _ in range(repeat):
                for fn in best:
                    t0 = time.perf_counter()
                    for rows in mats:
                        fn(list(rows), n)
                    best[fn] = min(best[fn], (time.perf_counter() - t0) / count)
            ref, pkg = best.values()
            label = f"+-{bound}" if bound < 1000 else f"+-2^{bound.bit_length() - 1}"
            print(f"{n:>4} {label:>8} {ref * 1e6:>10.1f} {pkg * 1e6:>10.1f} {pkg / ref:>6.2f}")


def _fan_problems(count, seed):
    """(A, gale_transform(A)) for corank-2, positively graded matrices A,
    n in 4..7, entries in +-4."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((4, 5, 6, 7))
        m = IntegerMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 2)])
        if rank(m) != n - 2:
            continue
        try:
            b = gale_transform(m)
        except ZeroRowError:
            continue
        if is_positively_graded(b):
            out.append((m, b))
    return out


def bench_fan_layers(repeat):
    problems = _fan_problems(100, seed=20260810)
    layers = {
        "fan_hilbert_union": [],
        "symmetrized_half_turn": [],
        "graver binomials": [],
        "is_indispensable_oracle": [],
    }
    for _, b in problems:
        reduced = reduce_configuration(b)
        union = fan_hilbert_union(reduced)
        half = symmetrized_half_turn(union)
        for name, fn in (
            ("fan_hilbert_union", lambda: fan_hilbert_union(reduced)),
            ("symmetrized_half_turn", lambda: symmetrized_half_turn(union)),
            ("graver binomials", lambda: _gale_binomials(b, half)),
        ):
            layers[name].append(_time(fn, repeat) * 1e6)
        for x in _gale_binomials(b, half):
            t = _time(lambda: is_indispensable_oracle(b, x), repeat)
            layers["is_indispensable_oracle"].append(t * 1e6)
    print("fan layers: 100 seeded problems, n in 4..7, entries in +-4;")
    print("is_indispensable_oracle per Graver element of those problems")
    print(f"{'layer':<30} {'median (us)':>12}")
    for name, times in layers.items():
        print(f"{name:<30} {statistics.median(times):>12.1f}")


FIT_PASSES = 5


def bench_decide_fit(repeat):
    matrices = [a for a, _ in _fan_problems(100, seed=20260810)]
    sizes = [len(is_strongly_robust(a).graver) for a in matrices]
    fits = {"mean (us per call)": [], "intercept (us per call)": [],
            "slope (us per Graver element)": []}
    for _ in range(FIT_PASSES):
        micros = [
            _time(lambda: [is_strongly_robust(a) for _ in range(10)], repeat) / 10 * 1e6
            for a in matrices
        ]
        slope, intercept = statistics.linear_regression(sizes, micros)
        for name, value in zip(fits, (statistics.mean(micros), intercept, slope)):
            fits[name].append(value)
    print("is_strongly_robust: the same 100 problems, time per call against Graver size;")
    print(f"one fit per pass, {FIT_PASSES} passes")
    print(f"{'fit':<30} {'median':>9} {'min':>9} {'max':>9}")
    for name, values in fits.items():
        print(f"{name:<30} {statistics.median(values):>9.2f} {min(values):>9.2f} "
              f"{max(values):>9.2f}")


CLI_RUNS = 9
CLI_COMMANDS = ("check", "graver", "indispensable", "markov", "bouquets", "gale", "oracle", "plot")


def bench_cli():
    example = ROOT / "tests" / "data" / "example_4x6.mat"
    package = Path(galerobust.__file__).resolve().parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package.parent), env.get("PYTHONPATH")]))
    cached = "present" if (package / "__pycache__").is_dir() else "absent"
    print(f"python -m galerobust <cmd> {example.name}: median of {CLI_RUNS} processes;")
    print(f"PYTHONDONTWRITEBYTECODE=1, src/galerobust/__pycache__ {cached}")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        rows = {
            "python -c pass": ["-c", "pass"],
            "import galerobust.cli": ["-c", "import galerobust.cli"],
        }
        for cmd in CLI_COMMANDS:
            rows[cmd] = ["-m", "galerobust", cmd, str(example), "--out", out]
        times = {name: [] for name in rows}
        # Round-robin over the rows, so that a drift in machine speed
        # shifts every row alike.
        for _ in range(CLI_RUNS):
            for name, args in rows.items():
                t0 = time.perf_counter()
                subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)
                times[name].append(time.perf_counter() - t0)
    print(f"{'command':<22} {'median (ms)':>12}")
    for name, ts in times.items():
        print(f"{name:<22} {statistics.median(ts) * 1e3:>12.1f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="best of N timings")
    args = parser.parse_args()
    bench_box_scan(args.repeat)
    print()
    bench_gale_transform()
    print()
    bench_gale_stages(args.repeat)
    print()
    bench_forward_sweep(args.repeat)
    print()
    bench_fan_layers(args.repeat)
    print()
    bench_decide_fit(args.repeat)
    print()
    bench_cli()


if __name__ == "__main__":
    main()
