"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on the terminal.
"""

import random
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations
from math import gcd

from galerobust import (
    Binomial,
    Cone2D,
    IntegerMatrix,
    fan_radius_bound,
    gale_transform,
    graver_bruteforce,
    hilbert_basis,
    is_indispensable_oracle,
    is_strongly_robust,
    rank,
    reduce_configuration,
)
from galerobust.oracle import SHELL_WIDTH
from galerobust.planar import cross

from conftest import (
    DATA,
    EXAMPLE_BINOMIALS,
    EXAMPLE_REDUCED_ROWS,
    _xgcd,
    binomial_from_gale,
    binomial_from_vector,
    hilbert_basis_visible,
    is_zero,
    lawrence_lifting,
    matmul,
    primitive,
)

EXAMPLE_FILE = str(DATA / "example_4x6.mat")
CUBIC_FILE = str(DATA / "twisted_cubic.mat")


def _criterion(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _default_radius(m: IntegerMatrix) -> int:
    return fan_radius_bound(reduce_configuration(gale_transform(m))) + SHELL_WIDTH


def _project_first_half(binom: Binomial, n: int) -> Binomial:
    z = tuple(p - q for p, q in zip(binom.plus[:n], binom.minus[:n]))
    return binomial_from_vector(z)


def test_criterion_1_example_end_to_end(example_matrix):
    t0 = time.monotonic()
    report = is_strongly_robust(example_matrix)
    reduced = report.reduced
    elapsed = time.monotonic() - t0
    ok = (
        elapsed < 1.0
        and report.strongly_robust
        and Counter(reduced.rows) == Counter(EXAMPLE_REDUCED_ROWS)
        and {(b.plus, b.minus) for b in report.graver} == EXAMPLE_BINOMIALS
        and report.mixed_count == 2
        and report.centrally_symmetric
    )
    _criterion(
        "criterion 1: worked example end to end",
        ok,
        f"{elapsed * 1000:.0f} ms, {len(report.graver)} Graver binomials",
    )


def test_criterion_2_point_to_binomial(example_matrix):
    b = gale_transform(example_matrix)
    binom = binomial_from_gale(b, (1, 1))
    ok = binom.vector == (3, -1, -3, -1, 1, 2)
    _criterion("criterion 2: point-to-binomial map", ok, str(binom.vector))


def _assert_kernel_basis(m: IntegerMatrix, b) -> None:
    """B's columns are a basis of ker A: A B = 0 and B's 2x2 minors have gcd 1.

    The box scan is sized from B's fan, so a wrong B would make it run for
    minutes before any mismatch shows; this check fails at once instead.
    """
    assert is_zero(matmul(m, IntegerMatrix(b.rows))), f"B's columns are not in ker A, A = {m}"
    minors = (cross(p, q) for p, q in combinations(b.rows, 2))
    assert gcd(*minors) == 1, f"B's 2x2 minors do not have gcd 1, A = {m}"


def test_criterion_3_oracle_equivalence_suite(acceptance_suite):
    t0 = time.monotonic()
    mismatches = 0
    for m in acceptance_suite:
        report = is_strongly_robust(m)
        b = report.gale
        _assert_kernel_basis(m, b)
        brute = graver_bruteforce(b, _default_radius(m))
        if brute != report.graver:
            mismatches += 1
            continue
        via_oracle = frozenset(x for x in brute if is_indispensable_oracle(b, x))
        if via_oracle != report.indispensable:
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and len(acceptance_suite) >= 100 and elapsed < 60.0
    _criterion(
        "criterion 3: oracle equivalence suite",
        ok,
        f"{len(acceptance_suite)} instances, {mismatches} mismatches, {elapsed:.1f} s",
    )


def test_criterion_4_lawrence_cross_check(acceptance_suite):
    failures = 0
    for m in acceptance_suite:
        n = m.ncols
        lam = lawrence_lifting(m)
        projected = frozenset(
            _project_first_half(x, n) for x in is_strongly_robust(lam).indispensable
        )
        if projected != is_strongly_robust(m).graver:
            failures += 1
    ok = failures == 0
    _criterion(
        "criterion 4: Lawrence lifting cross-check",
        ok,
        f"{len(acceptance_suite)} instances, {failures} failures",
    )


def test_criterion_5_criterion_equivalence(acceptance_suite):
    disagreements = 0
    for m in acceptance_suite:
        report = is_strongly_robust(m)  # raises ConsistencyError on any split
        core = set(report.h_core)
        geometric = all((-x, -y) in core for (x, y) in report.reduced.rows)
        direct = report.indispensable == report.graver
        if geometric != direct or report.strongly_robust != direct:
            disagreements += 1
    ok = disagreements == 0
    _criterion(
        "criterion 5: geometric vs direct robustness criterion",
        ok,
        f"{len(acceptance_suite)} instances, {disagreements} disagreements",
    )


def test_criterion_6_theorem_implications(acceptance_suite, example_matrix):
    # The random suite rarely contains strongly robust instances, so known
    # robust ones (doubled matrices) are added to make the implication bite.
    reports = [is_strongly_robust(m) for m in [*acceptance_suite, example_matrix]]
    robust_count = sum(1 for report in reports if report.strongly_robust)
    rng = random.Random(606)
    while robust_count < 10:
        d = rng.choice([1, 2])
        n = d + 2
        base = IntegerMatrix(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        )
        if rank(base) != d:
            continue
        lam = lawrence_lifting(base)
        if rank(lam) != lam.ncols - 2:
            continue
        try:
            gale_transform(lam)
        except Exception:
            continue  # a base variable appears in no kernel vector
        reports.append(is_strongly_robust(lam))
        robust_count += reports[-1].strongly_robust
    violations = sum(
        1
        for report in reports
        if report.strongly_robust
        and (not report.centrally_symmetric or report.mixed_count < 2)
    )
    ok = violations == 0 and robust_count >= 10
    _criterion(
        "criterion 6: symmetry and mixed-bouquet implications",
        ok,
        f"{robust_count} robust instances, {violations} violations",
    )


def _random_primitive(rng, bound):
    while True:
        v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if v != (0, 0):
            return primitive(v)


def test_criterion_7_hilbert_dual_characterization():
    rng = random.Random(20260807)
    mismatches = 0
    checked = 0
    while checked < 200:
        a = _random_primitive(rng, 50)
        b = _random_primitive(rng, 50)
        if cross(a, b) <= 0:
            continue
        checked += 1
        cone = Cone2D(a, b)
        if hilbert_basis(cone) != hilbert_basis_visible(cone):
            mismatches += 1
    unimodular_bad = 0
    for _ in range(60):
        a = _random_primitive(rng, 50)
        # complete a to a determinant-1 pair, then shear by a random amount
        g, s, t = _xgcd(a[0], a[1])
        w = (-t, s)
        k = rng.randint(0, 3)
        b = (w[0] + k * a[0], w[1] + k * a[1])
        cone = Cone2D(a, b)
        assert cross(cone.a, cone.b) == 1
        if hilbert_basis(cone) != (a, b):
            unimodular_bad += 1
    ok = mismatches == 0 and unimodular_bad == 0
    _criterion(
        "criterion 7: visibility equals irreducibility",
        ok,
        f"200 cones, {mismatches} mismatches; 60 unimodular cones, {unimodular_bad} bad",
    )


def test_criterion_8_twisted_cubic_negative(twisted_cubic):
    report = is_strongly_robust(twisted_cubic)
    witness_valid = (
        report.witness is not None
        and report.witness in report.reduced.rows
        and (-report.witness[0], -report.witness[1]) not in set(report.h_core)
    )
    ok = (not report.strongly_robust) and witness_valid and not report.centrally_symmetric
    _criterion(
        "criterion 8: twisted cubic rejected with witness",
        ok,
        f"witness {report.witness}",
    )


def test_criterion_9_determinism_and_svg(tmp_path):
    cmd = [sys.executable, "-m", "galerobust", "check", EXAMPLE_FILE]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    byte_identical = r1.stdout == r2.stdout and r1.returncode == r2.returncode == 0

    svg_path = tmp_path / "example.svg"
    rc = subprocess.run(
        [sys.executable, "-m", "galerobust", "plot", EXAMPLE_FILE, "--out", str(svg_path)],
        capture_output=True,
    ).returncode
    svg = svg_path.read_text() if svg_path.exists() else ""
    arrows = svg.count('class="gale-arrow"')
    dots = svg.count('class="ha-dot"')
    svg_ok = rc == 0 and arrows == 6 and dots == 12
    ok = byte_identical and svg_ok
    _criterion(
        "criterion 9: byte-identical reports and SVG element counts",
        ok,
        f"{arrows} arrows, {dots} dots",
    )
