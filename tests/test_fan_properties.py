"""Property tests, drawn by hypothesis, for the fan unions and the
binomial builder.

The plain union is assembled in walk order and must equal the sort-based
assembly over every cone (``reference_fan_union`` in conftest) in
vectors and cones, and fail with the same GradingError texts; the
provenance it computes when read must equal the labels collected cone
by cone in a dict (``reference_provenance``).  The symmetrized fan must
build the same cones over the same directions, and the half-turn read
off the plain union must be one half of its reference union, in
counterclockwise order, with the ± pairs of the half-turn walked cone
by cone (``reference_half_turn``).  The symmetric core that the same
merge yields must be the vectors of the union whose negation is in it,
in the union's order.
``binomial_from_gale`` (in conftest) is a one-vector call of the
unchecked batch builder ``_gale_binomials``, so each result must also
pass the public constructor's checks and equal ``binomial_from_vector``,
which builds through the checked reference; a batch must equal the
per-vector reference (``reference_binomial`` in conftest) in order, and
a batch with a zero kernel vector must raise the package's error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galerobust import (
    Binomial,
    GaleConfiguration,
    GradingError,
    fan_hilbert_union,
    reduce_configuration,
)
from galerobust.hilbert import (
    _fan_cones,
    _symmetric_directions,
    half_turn_and_core,
)
from galerobust.toric import _gale_binomials

from conftest import (
    assert_half_turn_of,
    binomial_from_gale,
    binomial_from_vector,
    full_turn,
    kernel_vector,
    reference_binomial,
    reference_fan_union,
    reference_half_turn,
    reference_provenance,
    reference_symmetric_directions,
)


@st.composite
def _gale_configurations(draw, bound=40):
    """3-9 nonzero rows with entries to +-bound."""
    row = st.tuples(st.integers(-bound, bound), st.integers(-bound, bound)).filter(
        lambda r: r != (0, 0)
    )
    return GaleConfiguration(rows=tuple(draw(st.lists(row, min_size=3, max_size=9))))


_BIG = st.integers(-(2**70), 2**70)
_NONZERO_U = st.tuples(_BIG, _BIG).filter(lambda u: u != (0, 0))


@st.composite
def _batches(draw):
    """1-40 nonzero u to +-2**70, with repeats and +-u pairs, shuffled."""
    base = draw(st.lists(_NONZERO_U, min_size=1, max_size=20))
    picks = draw(st.lists(st.tuples(st.sampled_from(base), st.booleans()), max_size=20))
    batch = base + [(-x, -y) if neg else (x, y) for (x, y), neg in picks]
    return draw(st.permutations(batch))


@st.composite
def _fan_configurations(draw):
    """Rows to +-40, in some draws sheared to entries near 2**66.

    A cone's Hilbert basis can have as many elements as its determinant,
    so big entries come from a unimodular shear [[1+st, s], [t, 1]] with
    |s|, |t| <= 2**30 of small rows: it keeps every basis size and moves
    the fan's vectors across the x-axis, where the union is rotated.
    """
    b = draw(_gale_configurations())
    s = draw(st.sampled_from([0, 0, 0, 1]) | st.integers(-(2**30), 2**30))
    t = draw(st.sampled_from([0, 0, 0, 1]) | st.integers(-(2**30), 2**30))
    return GaleConfiguration(
        rows=tuple(((1 + s * t) * x + s * y, t * x + y) for x, y in b.rows)
    )


def _outcome(fn, arg):
    try:
        return fn(arg)
    except GradingError as e:
        return str(e)


@settings(max_examples=400, deadline=None)
@given(_fan_configurations())
def test_fan_unions_equal_sorted_assembly(b):
    reduced = reduce_configuration(b)
    union = _outcome(fan_hilbert_union, reduced)
    assert union == _outcome(reference_fan_union, reduced.distinct_directions())
    if isinstance(union, str):
        # The half-turn is read off the plain union, so only it can fail.
        return
    assert union.provenance == reference_provenance(union)
    dirs = _symmetric_directions(reduced)
    assert dirs == reference_symmetric_directions(reduced)
    expected = reference_fan_union(dirs)
    assert tuple(_fan_cones(dirs)) == expected.cones
    half, core = half_turn_and_core(union)
    assert_half_turn_of(half, expected)
    walked = reference_half_turn(reduced)
    assert len(half) == len(walked)
    assert set(full_turn(half)) == set(full_turn(walked))
    have = set(union.vectors)
    assert core == tuple(v for v in union.vectors if (-v[0], -v[1]) in have)


@settings(max_examples=300, deadline=None)
@given(_gale_configurations(bound=2**70), _NONZERO_U)
def test_binomial_from_gale_equals_from_vector(b, u):
    z = kernel_vector(b, u)
    if not any(z):
        # Rows on one line: u can lie in the kernel of B.
        for build in (lambda: binomial_from_gale(b, u), lambda: binomial_from_vector(z)):
            with pytest.raises(ValueError, match="zero vector"):
                build()
        return
    built = binomial_from_gale(b, u)
    assert built == binomial_from_vector(z)
    assert Binomial(plus=built.plus, minus=built.minus) == built


@settings(max_examples=300, deadline=None)
@given(_gale_configurations(bound=2**70), _batches())
def test_gale_binomials_equal_checked_reference_in_order(b, us):
    zs = [kernel_vector(b, u) for u in us]
    if not all(map(any, zs)):
        # Rows on one line: some u can lie in the kernel of B.
        with pytest.raises(ValueError, match="zero vector yields no binomial"):
            _gale_binomials(b, us)
        return
    built = _gale_binomials(b, us)
    assert built == [reference_binomial(z) for z in zs]


@st.composite
def _collinear_batches(draw):
    """Rows k*(p, q) on one line, and a batch holding (-q, p), B's kernel."""
    p, q = draw(_NONZERO_U)
    ks = draw(st.lists(_BIG.filter(bool), min_size=3, max_size=9))
    b = GaleConfiguration(rows=tuple((k * p, k * q) for k in ks))
    batch = draw(_batches())
    at = draw(st.integers(0, len(batch)))
    return b, batch[:at] + [(-q, p)] + batch[at:]


@settings(max_examples=100, deadline=None)
@given(_collinear_batches())
def test_gale_binomials_reject_a_batch_with_a_zero_kernel_vector(case):
    b, us = case
    with pytest.raises(ValueError, match="zero vector yields no binomial"):
        _gale_binomials(b, us)
