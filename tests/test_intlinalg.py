import itertools
import random
from math import gcd

import pytest

from galerobust import ConsistencyError, IntegerMatrix, RankError, rank
from galerobust.intlinalg import (
    _back_substitute,
    _bareiss_forward,
    _divide_exactly,
    _planar_kernel,
)

from conftest import (
    EXAMPLE_A,
    column,
    column_hnf,
    determinant,
    hermite_normal_form,
    identity,
    is_zero,
    kernel_lattice_basis,
    lattices_equal,
    matmul,
    reference_kernel,
)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        IntegerMatrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        IntegerMatrix([[1, 2.5]])
    with pytest.raises(TypeError):
        IntegerMatrix([[True, 0]])
    with pytest.raises(ValueError):
        IntegerMatrix([])


def test_rank_identity_is_full():
    assert rank(identity(2)) == 2


def test_rank_example_matrix():
    assert rank(IntegerMatrix(EXAMPLE_A)) == 4


def test_rank_zero_matrix():
    assert rank(IntegerMatrix([[0] * 3] * 3)) == 0


def test_hnf_single_column_gcd():
    m = IntegerMatrix([[2], [4]])
    h, u = hermite_normal_form(m)
    assert h.rows == ((2,), (0,))
    assert abs(determinant(u)) == 1
    assert matmul(u, m) == h


def test_hnf_identity():
    m = identity(2)
    h, u = hermite_normal_form(m)
    assert h == m
    assert u == m


def test_hnf_4x2_has_two_nonzero_rows():
    m = IntegerMatrix([[3, 0], [2, 1], [1, 2], [0, 3]])
    h, u = hermite_normal_form(m)
    nonzero = [r for r in h.rows if any(r)]
    assert len(nonzero) == 2
    assert matmul(u, m) == h
    assert abs(determinant(u)) == 1


def _check_hnf_shape(h: IntegerMatrix):
    last_pivot = -1
    seen_zero_row = False
    for row in h.rows:
        cols = [j for j, x in enumerate(row) if x != 0]
        if not cols:
            seen_zero_row = True
            continue
        assert not seen_zero_row, "nonzero row after a zero row"
        j = cols[0]
        assert j > last_pivot
        last_pivot = j
        assert row[j] > 0
    # entries above each pivot reduced into [0, pivot)
    pivots = []
    for i, row in enumerate(h.rows):
        cols = [j for j, x in enumerate(row) if x != 0]
        if cols:
            pivots.append((i, cols[0]))
    for i, j in pivots:
        p = h.rows[i][j]
        for r in range(i):
            assert 0 <= h.rows[r][j] < p


def test_hnf_random_roundtrip():
    rng = random.Random(11)
    for _ in range(60):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = IntegerMatrix([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        h, u = hermite_normal_form(m)
        assert matmul(u, m) == h
        assert abs(determinant(u)) == 1
        _check_hnf_shape(h)


def test_kernel_coordinate_projection():
    m = IntegerMatrix([[1, 0, 0], [0, 1, 0]])
    k = kernel_lattice_basis(m)
    assert lattices_equal(k, IntegerMatrix([[0], [0], [1]]))


def test_kernel_example_matrix_matches_reference_lattice():
    m = IntegerMatrix(EXAMPLE_A)
    k = kernel_lattice_basis(m)
    assert k.ncols == 2
    assert is_zero(matmul(m, k))
    ref = IntegerMatrix(
        [[1, 2], [-2, 1], [-1, -2], [0, -1], [2, -1], [2, 0]]
    )
    assert lattices_equal(k, ref)


def test_kernel_twisted_cubic_lattice():
    m = IntegerMatrix([[3, 2, 1, 0], [0, 1, 2, 3]])
    k = kernel_lattice_basis(m)
    assert is_zero(matmul(m, k))
    ref = IntegerMatrix([[1, 0], [-2, 1], [1, -2], [0, 1]])
    assert lattices_equal(k, ref)


def test_kernel_full_rank_is_empty():
    k = kernel_lattice_basis(identity(3))
    assert k.nrows == 3 and k.ncols == 0


def test_column_hnf_of_empty_kernel_is_zero_column():
    k = kernel_lattice_basis(identity(3))
    assert column_hnf(k) == IntegerMatrix([[0], [0], [0]])


def _maximal_minors_gcd(k: IntegerMatrix) -> int:
    cols = k.ncols
    g = 0
    for rows in itertools.combinations(range(k.nrows), cols):
        sub = IntegerMatrix([[k.rows[i][j] for j in range(cols)] for i in rows])
        g = gcd(g, abs(determinant(sub)))
    return g


def test_kernel_random_saturation_and_annihilation():
    rng = random.Random(23)
    for _ in range(50):
        nr = rng.randint(1, 4)
        nc = rng.randint(nr + 1, nr + 3)
        m = IntegerMatrix([[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)])
        k = kernel_lattice_basis(m)
        if k.ncols == 0:
            continue
        assert is_zero(matmul(m, k))
        assert _maximal_minors_gcd(k) == 1


def test_column_hnf_is_lattice_invariant():
    # Same lattice under a unimodular recombination of the columns.
    k1 = IntegerMatrix([[1, 2], [-2, 1], [-1, -2], [0, -1], [2, -1], [2, 0]])
    k2 = IntegerMatrix(
        [[r[0] + r[1], r[1]] for r in k1.rows]
    )
    assert column_hnf(k1) == column_hnf(k2)


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(5)

    def cofactor_det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(minor)
        return total

    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        assert determinant(IntegerMatrix(rows)) == cofactor_det(rows)
    # Mostly zero entries: row swaps, rows already zero in the pivot
    # column, and singular matrices.
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(n)] for _ in range(n)]
        assert determinant(IntegerMatrix(rows)) == cofactor_det(rows)


def test_exactness_with_huge_entries():
    big = 10**40
    m = IntegerMatrix([[big, big + 1], [big - 1, big]])
    assert determinant(m) == big * big - (big + 1) * (big - 1)
    h, u = hermite_normal_form(m)
    assert matmul(u, m) == h
    assert abs(determinant(u)) == 1


@pytest.mark.parametrize("d", [1, 3, 6, 10, 16])
def test_kernel_of_wide_matrix_matches_reference(d):
    # Kernels of dimension 8 to 23, beyond the matrices drawn in
    # test_kernel_properties.py.
    rng = random.Random(d * 100 + 24)
    m = IntegerMatrix([[rng.randint(-9, 9) for _ in range(24)] for _ in range(d)])
    assert kernel_lattice_basis(m) == reference_kernel(m)


def _planar_inputs(seed, count):
    """Seeded A with n 3..11 columns and n - 2 independent rows, mostly.

    Entries in +-1, +-2, +-9 or +-2**70, up to two sparse columns, an
    extra dependent row and a zero row; small entries and sparse columns
    sometimes leave the rank below n - 2.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 11)
        bound = rng.choice((1, 2, 9, 2**70))
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n - 2)]
        for j in rng.sample(range(n), rng.randint(0, 2)):
            for row in rows:
                if rng.random() < 0.7:
                    row[j] = 0
        if rng.random() < 0.3:
            c = [rng.randint(-2, 2) for _ in rows]
            dependent = [sum(x * row[j] for x, row in zip(c, rows)) for j in range(n)]
            rows.insert(rng.randint(0, len(rows)), dependent)
        if rng.random() < 0.2:
            rows.insert(rng.randint(0, len(rows)), [0] * n)
        yield IntegerMatrix(rows)


def test_planar_kernel_is_hermite_form_of_reference_kernel():
    # reference_kernel takes the Hermite form of the kernel rows that a
    # transform-carrying HNF of A^T leaves, with no _bareiss_forward.
    checked = 0
    for m in _planar_inputs(41, 1400):
        k = reference_kernel(m)
        if k.ncols != 2:
            with pytest.raises(RankError):
                _planar_kernel(m)
            continue
        assert _planar_kernel(m) == (list(column(k, 0)), list(column(k, 1)))
        checked += 1
    assert checked > 1000


def test_planar_kernel_is_invariant_under_unimodular_row_operations():
    # Row operations keep the kernel, so its Hermite form, sign included,
    # must not change; swaps and negations have determinant -1.
    rng = random.Random(42)
    checked = 0
    for m in _planar_inputs(43, 600):
        try:
            h = _planar_kernel(m)
        except RankError:
            continue
        rows = [list(r) for r in m.rows]
        for _ in range(rng.randint(1, 6)):
            i = rng.randrange(len(rows))
            j = rng.randrange(len(rows))
            kind = rng.randrange(3) if i != j else 2
            if kind == 0:
                q = rng.choice((-3, -1, 1, 2, 2**40))
                rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
            elif kind == 1:
                rows[i], rows[j] = rows[j], rows[i]
            else:
                rows[i] = [-x for x in rows[i]]
        assert _planar_kernel(IntegerMatrix(rows)) == h
        checked += 1
    assert checked > 400


def test_divide_exactly_raises_on_a_remainder():
    assert _divide_exactly([-4, 0, 8], 4) == [-1, 0, 2]
    with pytest.raises(ConsistencyError, match="division by 4 left a remainder"):
        _divide_exactly([-4, 6, 8], 4)


def test_back_substitute_raises_when_a_pivot_does_not_divide():
    # The kernel's own elimination of the example, as _planar_kernel runs it.
    n = len(EXAMPLE_A[0])
    pivots, u, d = _bareiss_forward([row[::-1] for row in EXAMPLE_A], n)
    u = [list(row) for row in u]
    assert _back_substitute(pivots, u, d, n) == [[4, 5, 1, 0, -5, 0], [-2, 0, 2, 5, 0, -5]]
    # The last pivot, -5, becomes -4: the first vector's dot product there
    # is 0, the second's is 25, which -4 does not divide.
    u[-1][pivots[-1]] += 1
    with pytest.raises(ConsistencyError, match="division by -4 left a remainder"):
        _back_substitute(pivots, u, d, n)
