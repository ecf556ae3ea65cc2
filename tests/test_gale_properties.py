"""Property tests, drawn by hypothesis, for the one-pass Gale readers and
the trusted Gale configuration.

``is_positively_graded`` tests the extremes on either side of the first
row, and ``bouquets`` groups the rows in one pass; both must equal the
sort-based versions kept in conftest (``reference_is_positively_graded``
and ``reference_bouquets``) on every configuration.  Zero rows never
reach them: ``GaleConfiguration`` rejects those when it is built.
``gale_transform`` builds its configuration without the public
constructor, so it must equal what that constructor makes of the same
rows, or raise the same ZeroRowError.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from galerobust import (
    GaleConfiguration,
    IntegerMatrix,
    RankError,
    ZeroRowError,
    bouquets,
    gale_transform,
    is_positively_graded,
)
from galerobust.gale import _lagrange_reduced_columns

from conftest import (
    column,
    kernel_lattice_basis,
    reference_bouquets,
    reference_is_positively_graded,
)

_BOUNDS = (4, 2**70)


@st.composite
def _rows(draw):
    """3-12 nonzero rows to +-4 or +-2**70, some of them multiples of others.

    Besides free draws, a draw can be all collinear (one line, both
    signs) or a single direction (one ray); the others get duplicates and
    opposite multiples of earlier rows mixed in.
    """
    bound = draw(st.sampled_from(_BOUNDS))
    coord = st.integers(-bound, bound)
    row = st.tuples(coord, coord).filter(lambda r: r != (0, 0))
    size = draw(st.integers(3, 12))
    shape = draw(st.sampled_from(("free", "free", "collinear", "ray")))
    if shape != "free":
        x, y = draw(row)
        factors = st.integers(1, 5) if shape == "ray" else st.integers(-5, 5).filter(bool)
        return [(k * x, k * y) for k in draw(st.lists(factors, min_size=size, max_size=size))]
    rows = draw(st.lists(row, min_size=1, max_size=size))
    while len(rows) < size:
        x, y = draw(st.sampled_from(rows))
        k = draw(st.sampled_from((1, 1, -1, 2, -3)) | st.integers(-5, 5).filter(bool))
        rows.insert(draw(st.integers(0, len(rows))), (k * x, k * y))
    return rows


@settings(max_examples=400, deadline=None)
@given(_rows())
def test_grading_matches_sort_reference(rows):
    b = GaleConfiguration(rows=tuple(rows))
    assert is_positively_graded(b) == reference_is_positively_graded(b)


@settings(max_examples=400, deadline=None)
@given(_rows())
def test_bouquets_match_reference(rows):
    b = GaleConfiguration(rows=tuple(rows))
    assert bouquets(b) == reference_bouquets(b)


@st.composite
def _corank_two_matrices(draw):
    """(n-2) x n matrices to +-3, n 3..8; some force a zero Gale row.

    Replacing a row by e_j puts variable j in no kernel vector.
    """
    n = draw(st.integers(3, 8))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n - 2, max_size=n - 2))
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        rows[draw(st.integers(0, n - 3))] = [int(i == j) for i in range(n)]
    return IntegerMatrix(rows)


def _configuration(fn, a):
    try:
        b = fn(a)
    except (RankError, ZeroRowError) as e:
        return type(e).__name__, str(e)
    return b.rows


def _checked(a):
    k = kernel_lattice_basis(a)
    if k.ncols != 2:
        raise RankError(str(k.ncols))
    rows = _lagrange_reduced_columns(column(k, 0), column(k, 1))
    return GaleConfiguration(rows=rows)


@settings(max_examples=300, deadline=None)
@given(_corank_two_matrices())
def test_trusted_configuration_matches_public_constructor(a):
    got = _configuration(gale_transform, a)
    want = _configuration(_checked, a)
    if want[0] == "RankError":
        assert got[0] == "RankError"
    else:
        assert got == want
