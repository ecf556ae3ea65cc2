import random
import time
from collections import Counter
from itertools import combinations
from math import gcd

import pytest

from galerobust import (
    GaleConfiguration,
    IntegerMatrix,
    RankError,
    ZeroRowError,
    bouquets,
    gale_transform,
    is_positively_graded,
    reduce_configuration,
)
from galerobust.planar import cross

from conftest import (
    EXAMPLE_GALE_ROWS,
    EXAMPLE_REDUCED_ROWS,
    identity,
    is_zero,
    matmul,
    primitive,
    random_valid_instances,
)


def test_gale_transform_example_matrix(example_matrix):
    b = gale_transform(example_matrix)
    assert b.rows == EXAMPLE_GALE_ROWS
    assert is_zero(matmul(example_matrix, IntegerMatrix(b.rows)))


def test_gale_transform_two_block_matrix():
    a = IntegerMatrix([[1, 1, 0, 0], [0, 0, 1, 1]])
    b = gale_transform(a)
    assert Counter(b.rows) == Counter([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert is_zero(matmul(a, IntegerMatrix(b.rows)))



@pytest.mark.parametrize(
    "rows, gale_rows",
    [
        ([[1, 1, 1]], ((1, 1), (-1, 0), (0, -1))),
        ([[3, 3, 3, -3], [-1, -3, 0, 3]], ((0, 3), (1, -1), (0, -2), (1, 0))),
        ([[0, 1, -1, 1], [-1, 1, 1, 1]], ((0, 2), (1, 0), (0, 1), (-1, 1))),
    ],
)
def test_gale_transform_settles_lagrange_tie(rows, gale_rows):
    # A Lagrange tie: the reduced basis v, w has 2|v.w| = |v|^2, so w
    # and w -+ v are equally short, and the reduction keeps whichever
    # its input basis leads to.  The kernel of [1 1 1] is hexagonal; the
    # other two are not.  Reduced from the Hermite normal form of the
    # kernel, a canonical basis, the rows depend on the kernel alone.
    assert gale_transform(IntegerMatrix(rows)).rows == gale_rows

def test_gale_transform_rejects_wrong_rank():
    with pytest.raises(RankError):
        gale_transform(identity(3))
    with pytest.raises(RankError):
        gale_transform(IntegerMatrix([[1, 2]]))


@pytest.mark.parametrize("nrows", [6, 46])
def test_gale_transform_rejects_wide_low_rank_fast(nrows):
    # Rank 6 of 48 columns: the 42-dimensional kernel is found before the
    # rank is known, and must not take long (minutes for a swelling HNF).
    rng = random.Random(6)
    base = [[rng.randint(-9, 9) for _ in range(48)] for _ in range(6)]
    rows = list(base)
    while len(rows) < nrows:
        c = [rng.randint(-2, 2) for _ in base]
        rows.append([sum(x * row[j] for x, row in zip(c, base)) for j in range(48)])
    t0 = time.monotonic()
    with pytest.raises(RankError, match=r"rank 6 != ncols - 2 = 46"):
        gale_transform(IntegerMatrix(rows))
    assert time.monotonic() - t0 < 5.0


def test_gale_transform_large_n_is_saturated_and_fast():
    rng = random.Random(4648)
    a = IntegerMatrix([[rng.randint(-9, 9) for _ in range(48)] for _ in range(46)])
    t0 = time.monotonic()
    b = gale_transform(a)
    elapsed = time.monotonic() - t0
    assert is_zero(matmul(a, IntegerMatrix(b.rows)))
    g = 0
    for (x1, y1), (x2, y2) in combinations(b.rows, 2):
        g = gcd(g, x1 * y2 - y1 * x2)
    assert g == 1
    assert elapsed < 5.0, f"gale_transform took {elapsed:.1f} s at n=48"


def test_gale_transform_zero_row():
    # The kernel of the first matrix is spanned by (0, 1, 1, 0) and
    # (0, 0, 0, 1): the first variable appears in no kernel vector.  The
    # error names the first zero row.
    for rows, i in (
        (((1, 0, 0, 0), (0, 1, -1, 0)), 0),
        (((0, 1, 0, 0), (1, 0, -1, 0)), 1),
        (((1, 1, 1, 1, 0), (0, 1, 2, 3, 0), (0, 0, 0, 0, 1)), 4),
    ):
        with pytest.raises(ZeroRowError) as exc:
            gale_transform(IntegerMatrix(rows))
        assert str(exc.value) == (
            f"Gale row {i} is zero; variable {i} lies in no kernel vector "
            "and must be removed before analysis"
        )


def test_configuration_rejects_zero_rows_and_small_n():
    with pytest.raises(ZeroRowError):
        GaleConfiguration(rows=((1, 0), (0, 0), (0, 1)))
    with pytest.raises(ValueError):
        GaleConfiguration(rows=((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        GaleConfiguration(rows=((1,), (1, 0), (0, 1)))


def test_reduce_example_rows(example_matrix):
    reduced = reduce_configuration(gale_transform(example_matrix))
    assert reduced.rows == EXAMPLE_REDUCED_ROWS
    assert reduced.angular_order == (3, 4, 5, 0, 1, 2)


def test_reduce_scales_to_primitive():
    b = GaleConfiguration(rows=((2, 0), (2, 0), (2, 0)))
    assert reduce_configuration(b).rows == ((0, 1), (0, 1), (0, 1))


def test_reduce_single_row_example():
    b = GaleConfiguration(rows=((0, -1), (1, 0), (0, 1)))
    assert reduce_configuration(b).rows[0] == (1, 0)


def test_reduce_on_primitive_rows_is_pure_rotation():
    rng = random.Random(2)
    for _ in range(25):
        rows = []
        while len(rows) < 4:
            v = (rng.randint(-6, 6), rng.randint(-6, 6))
            if v != (0, 0):
                rows.append(primitive(v))
        b = GaleConfiguration(rows=tuple(rows))
        reduced = reduce_configuration(b)
        assert reduced.rows == tuple((-y, x) for (x, y) in rows)


def test_positively_graded_example(example_matrix):
    assert is_positively_graded(gale_transform(example_matrix))


def test_not_graded_half_plane():
    b = GaleConfiguration(rows=((1, 0), (0, 1), (1, 1)))
    assert not is_positively_graded(b)


def test_not_graded_with_line():
    b = GaleConfiguration(rows=((1, 0), (-1, 0), (0, 1)))
    assert not is_positively_graded(b)


def _graded_by_enumeration(rows, radius=20):
    for a1 in range(-radius, radius + 1):
        for a2 in range(-radius, radius + 1):
            if (a1, a2) == (0, 0):
                continue
            if all(r[0] * a1 + r[1] * a2 >= 0 for r in rows):
                return False
    return True


def test_positively_graded_agrees_with_enumeration():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(3, 6)
        rows = []
        while len(rows) < n:
            v = (rng.randint(-4, 4), rng.randint(-4, 4))
            if v != (0, 0):
                rows.append(v)
        b = GaleConfiguration(rows=tuple(rows))
        assert is_positively_graded(b) == _graded_by_enumeration(rows)


def test_graded_angular_order_has_convex_steps():
    for m in random_valid_instances(15, seed=99):
        reduced = reduce_configuration(gale_transform(m))
        dirs = reduced.distinct_directions()
        for i, d in enumerate(dirs):
            assert cross(d, dirs[(i + 1) % len(dirs)]) > 0


def test_bouquets_example(example_matrix):
    qs = bouquets(gale_transform(example_matrix))
    as_dict = {frozenset(q.members): q for q in qs}
    assert set(as_dict) == {
        frozenset({0, 2}),
        frozenset({1, 4}),
        frozenset({3}),
        frozenset({5}),
    }
    assert as_dict[frozenset({0, 2})].direction == (1, 2)
    assert as_dict[frozenset({0, 2})].mixed
    assert as_dict[frozenset({1, 4})].direction == (2, -1)
    assert as_dict[frozenset({1, 4})].mixed
    assert not as_dict[frozenset({3})].mixed
    assert not as_dict[frozenset({5})].mixed
    assert sum(q.mixed for q in qs) == 2


def test_bouquets_lawrence_cross():
    b = GaleConfiguration(rows=((1, 0), (-1, 0), (0, 1), (0, -1)))
    qs = bouquets(b)
    assert len(qs) == 2
    assert all(q.mixed for q in qs)


def test_bouquets_single_ray():
    b = GaleConfiguration(rows=((1, 2), (1, 2), (1, 2)))
    qs = bouquets(b)
    assert len(qs) == 1
    assert not qs[0].mixed
    assert qs[0].direction == (1, 2)


def test_rotation_preserves_bouquet_partition():
    rng = random.Random(31)
    for _ in range(20):
        rows = []
        while len(rows) < 5:
            v = (rng.randint(-5, 5), rng.randint(-5, 5))
            if v != (0, 0):
                rows.append(v)
        b = GaleConfiguration(rows=tuple(rows))
        reduced = reduce_configuration(b)
        rotated = GaleConfiguration(rows=reduced.rows)
        part1 = {frozenset(q.members) for q in bouquets(b)}
        part2 = {frozenset(q.members) for q in bouquets(rotated)}
        assert part1 == part2
