"""Property tests, drawn by hypothesis, for the kernel, the Gale transform
and the trusted binomial constructor.

The two-step forward elimination must return what the one-step form
(``reference_bareiss_forward`` in conftest) does, entry for entry.
The rank and the kernel are compared with the old transform-carrying
Hermite normal form (``reference_rank`` and ``reference_kernel`` in
conftest), and the Gale rows must not change under unimodular row
operations on A, which keep its kernel.  Kernels of wide sparse
matrices A = ker(B^T)^T must be saturated, the Gram-matrix Lagrange
reduction must return what the vector form (``reference_lagrange``)
does, and the Gale rows of a fixed set of dense matrices must hash to a
recorded digest.  ``gale_transform`` reads its rows off the Hermite
normal form of the kernel, so on small-entry matrices, where Lagrange
ties are common, and on the wide sparse ones its rows must equal the
Lagrange reduction of ``kernel_lattice_basis`` (in conftest), the same
form found another way.
``_gale_binomials`` is the unchecked batch builder, so every binomial
it builds must pass the constructor's checks and equal the checked
reference (``binomial_from_vector`` in conftest).
"""

import hashlib
import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from galerobust import (
    Binomial,
    GaleRobustError,
    IntegerMatrix,
    RankError,
    ZeroRowError,
    gale_transform,
    rank,
)
from galerobust.gale import GaleConfiguration, _lagrange_reduced_columns
from galerobust.intlinalg import _bareiss_forward
from galerobust.toric import _gale_binomials

from conftest import (
    binomial_from_vector,
    column,
    is_zero,
    kernel_lattice_basis,
    matmul,
    reference_bareiss_forward,
    reference_kernel,
    reference_lagrange,
    reference_rank,
    transpose,
)


@st.composite
def _matrices(draw):
    """1-6 rows, 1-8 columns, with zero, repeated and dependent rows."""
    nr = draw(st.integers(1, 6))
    nc = draw(st.integers(1, 8))
    bound = draw(st.sampled_from([1, 9, 2**20, 2**70]))
    entry = st.integers(-bound, bound)
    rows = []
    for i in range(nr):
        kind = draw(st.sampled_from(["free", "free", "zero", "repeat", "combine"]))
        if kind == "zero":
            rows.append([0] * nc)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combine" and rows:
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, e = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([c * p + e * q for p, q in zip(x, y)])
        else:
            rows.append(draw(st.lists(entry, min_size=nc, max_size=nc)))
    return IntegerMatrix(rows)


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_rank_and_kernel_match_hnf_reference(m):
    assert rank(m) == reference_rank(m)
    k = kernel_lattice_basis(m)
    assert k == reference_kernel(m)
    assert k.ncols == m.ncols - rank(m)


@st.composite
def _elimination_inputs(draw):
    """Rows and width: 1-9 rows, 1-11 columns, entries to 2**70.

    Zero, repeated and summed rows, zero columns, a singular leading 2x2
    block (so the second pivot needs a swap or is missing) and a column
    that is a multiple of the one before it (no second pivot there).
    """
    nr = draw(st.integers(1, 9))
    nc = draw(st.integers(1, 11))
    bound = draw(st.sampled_from([1, 9, 2**20, 2**70]))
    entry = st.integers(-bound, bound)
    rows = []
    for _ in range(nr):
        kind = draw(st.sampled_from(["free", "free", "zero", "repeat", "sum"]))
        if kind == "zero":
            rows.append([0] * nc)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "sum" and rows:
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([p + q for p, q in zip(x, y)])
        else:
            rows.append(draw(st.lists(entry, min_size=nc, max_size=nc)))
    for j in draw(st.sets(st.integers(0, nc - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    if nr >= 2 and nc >= 2 and draw(st.booleans()):
        c = draw(st.integers(-2, 2))
        rows[1][:2] = [c * x for x in rows[0][:2]]
    if nc >= 2 and draw(st.booleans()):
        j = draw(st.integers(0, nc - 2))
        c = draw(st.integers(-2, 2))
        for row in rows:
            row[j + 1] = c * row[j]
    return rows, nc


@settings(max_examples=600, deadline=None)
@given(_elimination_inputs())
# The second pivot only after a swap: rows 0 and 1 are singular on columns 0, 1.
@example(([[1, 2, 3], [2, 4, 5], [0, 1, 1]], 3))
# Column 1 holds no second pivot, so it comes from column 2.
@example(([[1, 2, 3], [2, 4, 5]], 3))
# Rank 1: no column holds a second pivot, two rows left below.
@example(([[1, 2, 3], [2, 4, 6], [3, 6, 9]], 3))
# Odd rank: one pass of two pivots, then a pivot with one row left below.
@example(([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0]], 4))
# Two pivots in one pass, then a single last row.
@example(([[2, 1, 0, 3], [1, 3, 1, 1], [4, 1, 2, 5]], 4))
# A zero first column and entries to 2**70.
@example(([[0, 2**70, -(2**70) + 1], [0, 3, 2**69], [0, -1, 7]], 3))
def test_two_step_elimination_matches_one_step_reference(case):
    rows, nc = case
    before = [list(r) for r in rows]
    pivots, u, d = _bareiss_forward(list(rows), nc)
    assert rows == before
    ref_pivots, ref_u, ref_d = reference_bareiss_forward([list(r) for r in rows], nc)
    assert (pivots, [list(r) for r in u], d) == (ref_pivots, [list(r) for r in ref_u], ref_d)


def _outcome(a):
    try:
        return gale_transform(a).rows
    except GaleRobustError as e:
        return type(e).__name__, str(e)


@st.composite
def _row_operations(draw):
    """A matrix of d x (d+2) and a sequence of unimodular row operations."""
    d = draw(st.integers(1, 4))
    bound = draw(st.sampled_from([2, 9, 2**70]))
    rows = [
        draw(st.lists(st.integers(-bound, bound), min_size=d + 2, max_size=d + 2))
        for _ in range(d)
    ]
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["shuffle", "add", "negate"]),
                st.integers(0, d - 1),
                st.integers(0, d - 1),
                st.integers(-5, 5),
                st.randoms(use_true_random=False),
            ),
            max_size=6,
        )
    )
    return rows, ops


@settings(max_examples=150, deadline=None)
@given(_row_operations())
def test_gale_rows_invariant_under_unimodular_row_operations(case):
    rows, ops = case
    before = _outcome(IntegerMatrix(rows))
    rows = [list(r) for r in rows]
    for kind, i, j, c, rnd in ops:
        if kind == "shuffle":
            rnd.shuffle(rows)
        elif kind == "add" and i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == "negate":
            rows[i] = [-x for x in rows[i]]
    assert _outcome(IntegerMatrix(rows)) == before


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=8).filter(any))
def test_trusted_binomial_passes_validation(z):
    # Rows (x, 1) and u = (1, 0) give B u = z; the trusted constructor
    # also takes the one- and two-row batches.
    rows = GaleConfiguration._trusted(tuple((x, 1) for x in z))
    b = _gale_binomials(rows, [(1, 0)])[0]
    assert Binomial(plus=b.plus, minus=b.minus) == b
    assert b == binomial_from_vector(z)
    assert b.vector in (tuple(z), tuple(-x for x in z))


@st.composite
def _planar_bases(draw):
    """Two independent columns of length 2-8, entries up to 2**70.

    Some draws give both columns the same norm (one is a signed
    permutation of the other), some shear a short basis by a unimodular
    [[1 + s*t, s], [t, 1]] so that the reduction takes many passes.
    """
    m = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["free", "equal", "shear"]))
    bound = draw(st.sampled_from([1, 3, 2**20, 2**70]))
    entry = st.integers(-bound, bound)
    v = draw(st.lists(entry, min_size=m, max_size=m))
    if kind == "equal":
        perm = draw(st.permutations(range(m)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m))
        w = [sg * v[i] for sg, i in zip(signs, perm)]
    else:
        w = draw(st.lists(entry, min_size=m, max_size=m))
    if kind == "shear":
        s, t = draw(st.integers(-(2**30), 2**30)), draw(st.integers(-(2**30), 2**30))
        v, w = (
            [(1 + s * t) * x + t * y for x, y in zip(v, w)],
            [s * x + y for x, y in zip(v, w)],
        )
    return v, w


@settings(max_examples=400, deadline=None)
@given(_planar_bases())
def test_gram_lagrange_matches_vector_form(basis):
    v, w = basis
    # Dependent columns span no planar lattice.
    assume(any(x * y2 != x2 * y for (x, y), (x2, y2) in combinations(zip(v, w), 2)))
    k = IntegerMatrix(list(zip(v, w)))
    assert _lagrange_reduced_columns(v, w) == reference_lagrange(k).rows


@st.composite
def _wide_kernels(draw):
    """A = ker(B^T)^T for random Gale rows B, n up to 40.

    A comes out of column_hnf, so it is sparse and in echelon form; read
    from the last column, its elimination meets rows with 0 in the pivot
    column and needs row swaps.  Rows of B repeat or vanish at times.
    """
    n = draw(st.integers(3, 40))
    bound = draw(st.sampled_from([1, 3, 9, 2**20]))
    pool = [(0, 0), (1, 0), (0, 1)]
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["free", "free", "free", "pool", "repeat"]))
        if kind == "pool":
            rows.append(draw(st.sampled_from(pool)))
        elif kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(
                (draw(st.integers(-bound, bound)), draw(st.integers(-bound, bound)))
            )
    bt = IntegerMatrix([[r[0] for r in rows], [r[1] for r in rows]])
    if rank(bt) < 2:
        return None
    return transpose(kernel_lattice_basis(bt))


@settings(max_examples=200, deadline=None)
@given(_wide_kernels())
def test_wide_sparse_kernels_are_saturated(a):
    assume(a is not None)
    k = kernel_lattice_basis(a)
    assert k.ncols == 2
    assert is_zero(matmul(a, k))
    g = 0
    for (x, y), (x2, y2) in combinations(k.rows, 2):
        g = gcd(g, x * y2 - x2 * y)
    assert g == 1
    if a.ncols <= 12:
        assert k == reference_kernel(a)



@st.composite
def _small_corank2(draw):
    """(n-2) x n matrices, n 3..10, entries in +-1, +-2 or +-3; some rank-deficient."""
    n = draw(st.integers(3, 10))
    bound = draw(st.integers(1, 3))
    entry = st.integers(-bound, bound)
    row = st.lists(entry, min_size=n, max_size=n)
    return IntegerMatrix(draw(st.lists(row, min_size=n - 2, max_size=n - 2)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_small_corank2(), _wide_kernels()))
def test_gale_rows_match_reduced_kernel_lattice_basis(a):
    assume(a is not None)
    n = a.ncols
    if rank(a) != n - 2:
        with pytest.raises(RankError) as e:
            gale_transform(a)
        assert str(e.value) == f"rank {rank(a)} != ncols - 2 = {n - 2}; kernel is not planar"
        return
    k = kernel_lattice_basis(a)
    expected = _lagrange_reduced_columns(column(k, 0), column(k, 1))
    if (0, 0) in expected:
        with pytest.raises(ZeroRowError):
            gale_transform(a)
    else:
        assert gale_transform(a).rows == expected

# sha256 of the Gale rows of _golden_matrices(), recorded before the
# elimination became forward-only and the Lagrange reduction moved onto
# the Gram matrix.
GOLDEN_GALE_DIGEST = "99e7b6e7b7d32589f8a2b5ed70121d44ddaa5fe223e39d0884c0c9c82e48d7cc"


def _golden_matrices():
    """Four seeded dense (n-2) x n matrices per n in 12..24, entries in +-9."""
    for n in range(12, 25):
        for s in range(4):
            rng = random.Random(n * 100 + s)
            yield IntegerMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 2)])


def test_gale_rows_match_golden_digest():
    h = hashlib.sha256()
    for a in _golden_matrices():
        h.update(repr(gale_transform(a).rows).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_GALE_DIGEST
