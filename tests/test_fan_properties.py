"""Property tests, drawn by hypothesis, for the fan unions and the
binomial builder.

The plain union is assembled in walk order and must equal the sort-based
assembly over every cone (``reference_fan_union`` in conftest) in
vectors, provenance and cones.  The symmetrized fan must build the same
cones, and its half-turn must be one half of the reference union, in
counterclockwise order.  Both fail with the same GradingError texts.
``binomial_from_gale`` and ``Binomial.from_vector`` share one unchecked
builder, so each result must also pass the public constructor's checks.
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
from galerobust.hilbert import _fan_cones, _symmetric_directions, symmetrized_fan_half_turn
from galerobust.toric import binomial_from_gale

from conftest import assert_half_turn_of, reference_fan_union


@st.composite
def _gale_configurations(draw, bound=40):
    """3-9 nonzero rows with entries to +-bound."""
    row = st.tuples(st.integers(-bound, bound), st.integers(-bound, bound)).filter(
        lambda r: r != (0, 0)
    )
    return GaleConfiguration(rows=tuple(draw(st.lists(row, min_size=3, max_size=9))))


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
    assert _outcome(fan_hilbert_union, reduced) == _outcome(
        reference_fan_union, reduced.distinct_directions()
    )
    dirs = _symmetric_directions(reduced)
    half = _outcome(symmetrized_fan_half_turn, reduced)
    expected = _outcome(reference_fan_union, dirs)
    if isinstance(expected, str):
        assert half == expected
    else:
        assert tuple(_fan_cones(dirs)) == expected.cones
        assert_half_turn_of(half, expected)


@settings(max_examples=300, deadline=None)
@given(
    _gale_configurations(bound=2**70),
    st.tuples(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70)).filter(
        lambda u: u != (0, 0)
    ),
)
def test_binomial_from_gale_equals_from_vector(b, u):
    z = b.kernel_vector(u)
    if not any(z):
        # Rows on one line: u can lie in the kernel of B.
        for build in (lambda: binomial_from_gale(b, u), lambda: Binomial.from_vector(z)):
            with pytest.raises(ValueError, match="zero vector"):
                build()
        return
    built = binomial_from_gale(b, u)
    assert built == Binomial.from_vector(z)
    assert Binomial(plus=built.plus, minus=built.minus) == built
