"""Property tests, drawn by hypothesis, for the exact planar primitives.

``angle_cmp`` and ``convex_hull`` spell their half-plane and cross
product tests out inline, and ``ReducedGaleConfiguration`` sorts its
rows with ``angle_cmp`` when ``angular_order`` or
``distinct_directions()`` is read.  Each must agree with the form built
from ``_half`` and ``cross`` calls that the test references keep
(``reference_angle_cmp`` and ``reference_convex_hull`` in conftest), on
vectors along both axes, repeated and collinear points, degenerate point
sets and entries up to 2**70.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from galerobust import GaleConfiguration, reduce_configuration
from galerobust.planar import angle_cmp, convex_hull

from conftest import reference_angle_cmp, reference_convex_hull

_SMALL = st.integers(-3, 3)
_HUGE = st.integers(-(2**70), 2**70)
_ENTRY = _SMALL | _HUGE


@st.composite
def _nonzero_vectors(draw):
    """Nonzero vectors: on an axis, a multiple of a small one, or anything."""
    kind = draw(st.sampled_from(("axis", "multiple", "any")))
    if kind == "axis":
        t = draw(_ENTRY.filter(bool))
        return (t, 0) if draw(st.booleans()) else (0, t)
    if kind == "multiple":
        x, y = draw(st.tuples(_SMALL, _SMALL).filter(lambda v: v != (0, 0)))
        k = draw(st.integers(-(2**70), 2**70).filter(bool))
        return (k * x, k * y)
    return draw(st.tuples(_ENTRY, _ENTRY).filter(lambda v: v != (0, 0)))


@st.composite
def _vector_pairs(draw):
    """Two nonzero vectors, often on one line: equal, opposite or scaled."""
    u = draw(_nonzero_vectors())
    relation = draw(st.sampled_from(("free", "equal", "opposite", "scaled")))
    if relation == "free":
        return u, draw(_nonzero_vectors())
    if relation == "equal":
        return u, u
    if relation == "opposite":
        return u, (-u[0], -u[1])
    k = draw(st.integers(1, 2**20))
    return u, (k * u[0], k * u[1])


@st.composite
def _point_sets(draw):
    """0-12 points: repeated, on one line, or free; small or huge entries."""
    kind = draw(st.sampled_from(("free", "line", "repeats")))
    entry = draw(st.sampled_from((_SMALL, _HUGE, _ENTRY)))
    if kind == "line":
        base = draw(st.tuples(entry, entry))
        step = draw(st.tuples(_SMALL, _SMALL))
        ks = draw(st.lists(st.integers(-5, 5), max_size=12))
        return [(base[0] + k * step[0], base[1] + k * step[1]) for k in ks]
    points = draw(st.lists(st.tuples(entry, entry), max_size=12))
    if kind == "repeats" and points:
        points += draw(st.lists(st.sampled_from(points), max_size=6))
    return points


@settings(max_examples=400, deadline=None)
@given(_vector_pairs())
def test_angle_cmp_matches_reference(pair):
    u, v = pair
    assert angle_cmp(u, v) == reference_angle_cmp(u, v)
    assert angle_cmp(v, u) == reference_angle_cmp(v, u)


@settings(max_examples=300, deadline=None)
@given(_point_sets())
def test_convex_hull_matches_reference(points):
    assert convex_hull(points) == reference_convex_hull(points)


@settings(max_examples=200, deadline=None)
@given(st.lists(_nonzero_vectors(), min_size=3, max_size=9))
def test_angular_order_matches_reference_sort(rows):
    reduced = reduce_configuration(GaleConfiguration(rows=tuple(rows)))
    key = functools.cmp_to_key(lambda i, j: reference_angle_cmp(reduced.rows[i], reduced.rows[j]))
    order = tuple(sorted(range(len(rows)), key=key))
    assert reduced.angular_order == order
    assert reduced.distinct_directions() == tuple(dict.fromkeys(reduced.rows[i] for i in order))
