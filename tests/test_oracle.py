import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galerobust import (
    GaleConfiguration,
    GradingError,
    ShellWarning,
    fan_radius_bound,
    gale_transform,
    graver_bruteforce,
    is_strongly_robust,
    is_indispensable_oracle,
    is_positively_graded,
    reduce_configuration,
)
from galerobust.matrixio import load_matrix
from galerobust.oracle import SHELL_WIDTH, _box_scan, _column_span, _indispensable_among
from galerobust.toric import Binomial

from conftest import (
    DATA,
    apply,
    binomial_from_gale,
    enumerate_fiber,
    random_valid_instances,
    reference_box_scan,
    reference_enumerate_fiber,
)


def default_radius(m):
    return fan_radius_bound(reduce_configuration(gale_transform(m))) + SHELL_WIDTH


def test_fiber_of_indispensable_has_two_points(example_matrix):
    b = gale_transform(example_matrix)
    fib = enumerate_fiber(b, (3, 0, 0, 0, 1, 2))
    assert fib.points == {(3, 0, 0, 0, 1, 2), (0, 1, 3, 1, 0, 0)}
    assert fib.target in fib.points


def test_fiber_of_origin(example_matrix):
    b = gale_transform(example_matrix)
    assert enumerate_fiber(b, (0,) * 6).points == {(0,) * 6}


def test_fiber_singleton(example_matrix):
    b = gale_transform(example_matrix)
    assert enumerate_fiber(b, (1, 0, 0, 0, 0, 0)).points == {(1, 0, 0, 0, 0, 0)}


def test_fiber_requires_grading():
    b = GaleConfiguration(rows=((1, 0), (0, 1), (1, 1)))
    with pytest.raises(GradingError):
        enumerate_fiber(b, (1, 1, 1))


def test_fiber_points_share_image(example_matrix):
    b = gale_transform(example_matrix)
    v = (2, 1, 0, 3, 0, 1)
    fib = enumerate_fiber(b, v)
    target_image = apply(example_matrix, v)
    for w in fib.points:
        assert apply(example_matrix, w) == target_image
        assert all(x >= 0 for x in w)


def test_fiber_count_equals_polygon_lattice_count(example_matrix):
    # Count lattice points of {alpha : B alpha <= v} by an independent scan.
    b = gale_transform(example_matrix)
    v = (3, 2, 1, 1, 2, 2)
    fib = enumerate_fiber(b, v)
    count = 0
    for a1 in range(-20, 21):
        for a2 in range(-20, 21):
            if all(r[0] * a1 + r[1] * a2 <= t for r, t in zip(b.rows, v)):
                count += 1
    assert len(fib.points) == count


def test_indispensable_oracle_on_example_generators(example_matrix):
    report = is_strongly_robust(example_matrix)
    b = report.gale
    for binom in report.indispensable:
        assert is_indispensable_oracle(b, binom)


def test_indispensable_oracle_rejects_double(example_matrix):
    b = gale_transform(example_matrix)
    doubled = binomial_from_gale(b, (2, 2))
    assert not is_indispensable_oracle(b, doubled)


def test_indispensable_oracle_rejects_non_kernel(example_matrix):
    b = gale_transform(example_matrix)
    with pytest.raises(ValueError, match="not a kernel vector"):
        is_indispensable_oracle(b, Binomial((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)))
    # B (1, 0) = (1, -2, -1, 0, 2, 2) but for its last entry: the first
    # two rows solve for u, and only the other rows reject it.
    with pytest.raises(ValueError, match="not a kernel vector"):
        is_indispensable_oracle(b, Binomial((1, 0, 0, 0, 2, 3), (0, 2, 1, 0, 0, 0)))


def test_indispensable_oracle_rejects_mismatched_lengths(example_matrix):
    report = is_strongly_robust(example_matrix)
    b = report.gale
    x = next(iter(report.indispensable))
    assert is_indispensable_oracle(b, x)
    for wrong in (Binomial(x.plus[:5], x.minus[:5]), Binomial(x.plus + (0,), x.minus + (0,))):
        with pytest.raises(ValueError, match="does not match configuration size"):
            is_indispensable_oracle(b, wrong)


@st.composite
def _graded_rows(draw):
    """3-7 nonzero Gale rows with entries in +-9 that span the plane positively."""
    n = draw(st.integers(3, 7))
    entry = st.integers(-9, 9)
    rows = draw(st.lists(st.tuples(entry, entry), min_size=n, max_size=n))
    assume((0, 0) not in rows)
    b = GaleConfiguration(rows=tuple(rows))
    assume(is_positively_graded(b))
    return b


@settings(max_examples=200, deadline=None)
@given(_graded_rows(), st.data())
def test_fiber_matches_reference(b, data):
    v = tuple(data.draw(st.lists(st.integers(0, 12), min_size=b.n, max_size=b.n)))
    assert enumerate_fiber(b, v).points == reference_enumerate_fiber(b, v)


@settings(max_examples=100, deadline=None)
@given(_graded_rows(), st.data(), st.integers(-(2**30), 2**30), st.integers(-(2**30), 2**30))
def test_fiber_is_invariant_under_a_shear(b, data, s, t):
    # B U with U = [[1 + st, s], [t, 1]], det 1: the same lattice, so the
    # same fiber, from entries up to about 9 * 2^60, past int64.
    v = tuple(data.draw(st.lists(st.integers(0, 12), min_size=b.n, max_size=b.n)))
    rows = tuple((p * (1 + s * t) + q * t, p * s + q) for p, q in b.rows)
    assert enumerate_fiber(GaleConfiguration(rows=rows), v).points == enumerate_fiber(b, v).points


# Polygons {alpha : B alpha <= v} with a column that meets them in a real
# interval holding no integer, before columns with fiber points: a walk
# stopping at the first empty integer range misses points.  The walk
# Lagrange-reduces B first; the second B is reduced already, so the walk
# itself meets that column.
THIN_POLYGONS = [
    (((-1, 1), (2, -3), (-2, 4)), (0, 3, 0), 5, 10),
    (((1, 2), (-3, 1), (-1, -3)), (1, 3, 0), 2, 3),
]


@pytest.mark.parametrize("rows, v, thin, size", THIN_POLYGONS)
def test_thin_polygon_fiber(rows, v, thin, size):
    b = GaleConfiguration(rows=rows)
    assert _column_span(rows, [t - p * thin for (p, _), t in zip(rows, v)]) == range(0)
    fiber = enumerate_fiber(b, v).points
    assert len(fiber) == size
    assert fiber == reference_enumerate_fiber(b, v)


SMALL = st.integers(-5, 5)
HUGE = st.integers(2**64, 2**70) | st.integers(-(2**70), -(2**64))
OVERSIZED = [(10**19, 1), (-10**19, 1), (1, -1), (-1, -1)]


@st.composite
def _mixed_rows(draw):
    """3-7 Gale rows whose entries mix +-5 with magnitudes of 2^64 and up."""
    n = draw(st.integers(3, 7))
    flat = draw(st.lists(SMALL | HUGE, min_size=2 * n, max_size=2 * n))
    assume(any(abs(x) >= 2**64 for x in flat) and any(abs(x) <= 5 for x in flat))
    return list(zip(flat[::2], flat[1::2]))


@settings(max_examples=200, deadline=None)
@given(_mixed_rows(), st.integers(1, 6))
def test_box_scan_matches_reference(rows, radius):
    assert _box_scan(rows, radius) == reference_box_scan(rows, radius)


def test_box_scan_is_exact_past_int64():
    # Some |B u| here exceeds 2^63, past any fixed-width integer.
    kept = _box_scan(OVERSIZED, 2)
    assert kept == reference_box_scan(OVERSIZED, 2)
    assert max(abs(bx * u1 + by * u2) for u1, u2 in kept for bx, by in OVERSIZED) > 2**63


def test_bruteforce_example_radius_8(example_matrix):
    report = is_strongly_robust(example_matrix)
    assert graver_bruteforce(report.gale, 8) == report.graver


def test_bruteforce_twisted_cubic(twisted_cubic):
    report = is_strongly_robust(twisted_cubic)
    brute = graver_bruteforce(report.gale, 8)
    assert report.indispensable < brute
    assert brute == report.graver


def test_bruteforce_antichain(example_matrix):
    b = gale_transform(example_matrix)
    brute = sorted(graver_bruteforce(b, 8))

    def divides(x: Binomial, y: Binomial) -> bool:
        return all(p <= q for p, q in zip(x.plus, y.plus)) and all(
            p <= q for p, q in zip(x.minus, y.minus)
        )

    for x in brute:
        for y in brute:
            if x != y:
                assert not divides(x, y)


def test_shell_warning_on_small_radius(twisted_cubic):
    b = gale_transform(twisted_cubic)
    with pytest.warns(ShellWarning):
        graver_bruteforce(b, 2)
    # A box of radius 0 holds no nonzero vector at all.
    with pytest.raises(ValueError, match="radius must be positive"):
        graver_bruteforce(b, 0)


def test_no_shell_warning_at_default_radius(example_matrix):
    b = gale_transform(example_matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ShellWarning)
        graver_bruteforce(b, default_radius(example_matrix))


def test_bruteforce_matches_fan_on_random_instances():
    for m in random_valid_instances(25, seed=5150):
        report = is_strongly_robust(m)
        assert graver_bruteforce(report.gale, default_radius(m)) == report.graver


def test_oracle_indispensable_agrees_on_random_instances():
    for m in random_valid_instances(10, seed=616):
        report = is_strongly_robust(m)
        b = report.gale
        via_oracle = frozenset(x for x in report.graver if is_indispensable_oracle(b, x))
        assert via_oracle == report.indispensable


def test_batched_indispensability_matches_per_binomial_calls():
    # The CLI's oracle checks B's grading and reduces it once for all of
    # its binomials; the answers must be those of one call per binomial.
    bundled = [load_matrix(str(DATA / f)) for f in ("example_4x6.mat", "twisted_cubic.mat")]
    for m in bundled + random_valid_instances(20, seed=20260810):
        report = is_strongly_robust(m)
        b, graver = report.gale, report.graver
        per_call = frozenset(x for x in graver if is_indispensable_oracle(b, x))
        assert _indispensable_among(b, graver) == per_call


def test_batched_indispensability_raises_as_per_binomial_calls(example_matrix):
    b = gale_transform(example_matrix)
    non_kernel = Binomial((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="not a kernel vector"):
        _indispensable_among(b, [non_kernel])
    ungraded = GaleConfiguration(rows=((1, 0), (0, 1), (1, 1)))
    valid = binomial_from_gale(ungraded, (1, 0))
    with pytest.raises(GradingError):
        is_indispensable_oracle(ungraded, valid)
    with pytest.raises(GradingError):
        _indispensable_among(ungraded, [valid])
    # No binomial, no call: nothing is checked.
    assert _indispensable_among(ungraded, []) == frozenset()
    # Rank 1: the rows span no plane, so no fiber is bounded.  B (1, 0)
    # is a kernel vector, and the grading is checked before that.
    rank_one = GaleConfiguration(rows=((1, 0), (2, 0), (-1, 0)))
    on_the_line = Binomial((1, 2, 0), (0, 0, 1))
    with pytest.raises(GradingError):
        is_indispensable_oracle(rank_one, on_the_line)
    with pytest.raises(GradingError):
        _indispensable_among(rank_one, [on_the_line])
