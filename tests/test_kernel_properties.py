"""Property tests, drawn by hypothesis, for the kernel, the Gale transform
and the trusted binomial constructor.

The rank and the kernel are compared with the old transform-carrying
Hermite normal form (``reference_rank`` and ``reference_kernel`` in
conftest), and the Gale rows must not change under unimodular row
operations on A, which keep its kernel.  ``Binomial.from_vector`` skips
the constructor's checks, so every binomial it builds must pass them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from galerobust import (
    Binomial,
    GaleRobustError,
    IntegerMatrix,
    gale_transform,
    kernel_lattice_basis,
    rank,
)

from conftest import reference_kernel, reference_rank


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
    b = Binomial.from_vector(z)
    assert Binomial(plus=b.plus, minus=b.minus) == b
    assert b.vector in (tuple(z), tuple(-x for x in z))
