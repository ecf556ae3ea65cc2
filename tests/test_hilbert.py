import random
from math import gcd

import pytest

from galerobust import (
    Cone2D,
    GradingError,
    HilbertBasisSet,
    IntegerMatrix,
    fan_hilbert_union,
    fan_radius_bound,
    gale_transform,
    hilbert_basis,
    reduce_configuration,
    symmetric_core,
)
from galerobust.gale import GaleConfiguration, ReducedGaleConfiguration
from galerobust.hilbert import _fan_cones, _symmetric_directions, symmetrized_half_turn
from galerobust.planar import cross

from conftest import (
    EXAMPLE_A,
    EXAMPLE_UNION,
    assert_half_turn_of,
    full_turn,
    hilbert_basis_visible,
    primitive,
    reference_fan_union,
    reference_half_turn,
    reference_symmetric_directions,
)


def brute_cone_points(a, b):
    """All nonzero lattice points of cone(a,b) inside conv{0,a,b,a+b}."""
    det = cross(a, b)
    xs = [0, a[0], b[0], a[0] + b[0]]
    ys = [0, a[1], b[1], a[1] + b[1]]
    pts = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if (x, y) == (0, 0):
                continue
            if 0 <= cross(a, (x, y)) <= det and 0 <= cross((x, y), b) <= det:
                pts.append((x, y))
    return pts


def brute_hilbert(a, b):
    """Independent irreducibility filter used as the reference oracle."""
    pts = brute_cone_points(a, b)
    in_cone = lambda p: cross(a, p) >= 0 and cross(p, b) >= 0
    basis = set()
    for p in pts:
        if any(
            q != p and in_cone((p[0] - q[0], p[1] - q[1])) and (p[0] - q[0], p[1] - q[1]) != (0, 0)
            for q in pts
        ):
            continue
        basis.add(p)
    return basis


def random_primitive(rng, bound):
    while True:
        v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if v != (0, 0):
            return primitive(v)


def random_cone(rng, bound):
    while True:
        a = random_primitive(rng, bound)
        b = random_primitive(rng, bound)
        if cross(a, b) > 0:
            return Cone2D(a, b)


def test_cone_validation():
    with pytest.raises(ValueError):
        Cone2D((1, 0), (2, 0))
    with pytest.raises(ValueError):
        Cone2D((0, 1), (1, 0))  # clockwise
    with pytest.raises(ValueError):
        Cone2D((2, 0), (0, 1))  # not primitive


def test_unimodular_cone():
    assert hilbert_basis(Cone2D((1, 0), (0, 1))) == ((1, 0), (0, 1))


def test_small_cone_with_midpoint():
    assert hilbert_basis(Cone2D((1, 0), (1, 2))) == ((1, 0), (1, 1), (1, 2))


def test_det5_fan_cone():
    c = Cone2D((-2, 1), (-1, -2))
    assert hilbert_basis(c) == ((-2, 1), (-1, 0), (-1, -1), (-1, -2))


def hirzebruch_jung_chain(k, coefficients):
    """a = (1, 0), v1 = (k, 1), v(i+1) = c·v(i) - v(i-1) for each c >= 2.

    Consecutive vectors span determinant 1 and every c >= 2 keeps the
    chain convex towards the origin, so the chain is by construction the
    Hilbert basis of the cone from its first to its last vector.
    """
    chain = [(1, 0), (k, 1)]
    for c in coefficients:
        (px, py), (qx, qy) = chain[-2], chain[-1]
        chain.append((c * qx - px, c * qy - py))
    return chain


@pytest.mark.parametrize(
    "k, coefficients",
    [
        (10**20, [2]),
        (10**20 + 7, [3, 2, 5, 2, 2, 4, 2]),
        (3 * 10**20 + 1, [10**6 + 3, 999_983, 10**6]),  # det above 10^18
    ],
)
@pytest.mark.parametrize("shear", [0, 2**64 + 1])
def test_huge_cone_basis_is_its_chain(k, coefficients, shear):
    # Far beyond any scan: the bounding box holds more than 10^20 points.
    # The shear (x, y) -> (x, y + shear*x) is unimodular and keeps the
    # orientation, and it pushes coordinates past 2^63.
    chain = [(x, y + shear * x) for x, y in hirzebruch_jung_chain(k, coefficients)]
    cone = Cone2D(chain[0], chain[-1])
    assert hilbert_basis(cone) == tuple(chain)


def test_matches_brute_force_oracle():
    rng = random.Random(41)
    for _ in range(60):
        c = random_cone(rng, 9)
        assert set(hilbert_basis(c)) == brute_hilbert(c.a, c.b)


def test_contains_generators_and_counterclockwise():
    rng = random.Random(43)
    for _ in range(40):
        c = random_cone(rng, 12)
        basis = hilbert_basis(c)
        assert basis[0] == c.a and basis[-1] == c.b
        for p, q in zip(basis, basis[1:]):
            assert cross(p, q) > 0


def test_irreducibility_property():
    rng = random.Random(47)
    for _ in range(25):
        c = random_cone(rng, 8)
        basis = set(hilbert_basis(c))
        pts = brute_cone_points(c.a, c.b)
        for h in basis:
            for x in pts:
                y = (h[0] - x[0], h[1] - x[1])
                if y == (0, 0):
                    continue
                # no cone point x with h - x also a nonzero cone point
                assert not (
                    cross(c.a, y) >= 0 and cross(y, c.b) >= 0
                ), f"{h} = {x} + {y} splits"


def test_generation_by_greedy_subtraction():
    rng = random.Random(53)
    for _ in range(8):
        c = random_cone(rng, 4)
        basis = hilbert_basis(c)

        def generated(p, memo):
            if p == (0, 0):
                return True
            if p in memo:
                return memo[p]
            memo[p] = False
            for h in basis:
                q = (p[0] - h[0], p[1] - h[1])
                if q == (0, 0) or (cross(c.a, q) >= 0 and cross(q, c.b) >= 0):
                    if generated(q, memo):
                        memo[p] = True
                        break
            return memo[p]

        memo = {}
        for x in range(-25, 26):
            for y in range(-25, 26):
                p = (x, y)
                if p == (0, 0):
                    continue
                if cross(c.a, p) >= 0 and cross(p, c.b) >= 0:
                    assert generated(p, memo), f"{p} not generated in cone {c}"


def test_containment_bound():
    rng = random.Random(59)
    for _ in range(40):
        c = random_cone(rng, 15)
        det = cross(c.a, c.b)
        for h in hilbert_basis(c):
            assert 0 <= cross(c.a, h) <= det
            assert 0 <= cross(h, c.b) <= det


def test_visible_equals_irreducible_small():
    rng = random.Random(61)
    for _ in range(60):
        c = random_cone(rng, 12)
        assert hilbert_basis(c) == hilbert_basis_visible(c)


def test_fan_splitting_property():
    rng = random.Random(67)
    found = 0
    while found < 25:
        c = random_cone(rng, 9)
        if cross(c.a, c.b) < 2:
            continue
        mid = primitive((c.a[0] + c.b[0], c.a[1] + c.b[1]))
        if mid in (c.a, c.b):
            continue
        found += 1
        left = set(hilbert_basis(Cone2D(c.a, mid)))
        right = set(hilbert_basis(Cone2D(mid, c.b)))
        assert set(hilbert_basis(c)) <= left | right


def test_fan_union_example(example_matrix):
    reduced = reduce_configuration(gale_transform(example_matrix))
    union = fan_hilbert_union(reduced)
    assert set(union.vectors) == EXAMPLE_UNION
    assert len(union.cones) == 6
    # every union vector is primitive and lies inside (the bounding
    # parallelepiped of) each cone it is attributed to
    for v, idx in union.provenance:
        assert gcd(abs(v[0]), abs(v[1])) == 1
        assert idx
        for i in idx:
            c = union.cones[i]
            assert 0 <= cross(c.a, v) <= cross(c.a, c.b)
            assert 0 <= cross(v, c.b) <= cross(c.a, c.b)
    assert symmetric_core(union) == union.vectors


def test_fan_union_quadrant_cross():
    reduced = ReducedGaleConfiguration(rows=((1, 0), (0, 1), (-1, 0), (0, -1)))
    union = fan_hilbert_union(reduced)
    assert set(union.vectors) == {(1, 0), (0, 1), (-1, 0), (0, -1)}


def test_fan_union_rejects_half_plane():
    reduced = ReducedGaleConfiguration(rows=((1, 0), (0, 1)))
    with pytest.raises(GradingError):
        fan_hilbert_union(reduced)


def _half_turn(reduced):
    return symmetrized_half_turn(fan_hilbert_union(reduced))


def test_fan_cones_equal_checked_cones():
    # The fan builds its cones without Cone2D's checks; they must still be
    # the cones the checking constructor gives, and a hand-built
    # configuration with non-primitive rows must be refused when it is made.
    reduced = reduce_configuration(gale_transform(IntegerMatrix(EXAMPLE_A)))
    for cones in (fan_hilbert_union(reduced).cones, _fan_cones(_symmetric_directions(reduced))):
        for c in cones:
            assert c == Cone2D(c.a, c.b)
            assert hash(c) == hash(Cone2D(c.a, c.b))
    with pytest.raises(ValueError, match="primitive"):
        ReducedGaleConfiguration(rows=((2, 0), (0, 1), (-1, -1)))


def test_reduced_configuration_checks_its_fields():
    rows = ((1, 0), (0, 1), (-1, -1))
    # Unchecked, a zero row made the fan read this graded configuration
    # as not graded.
    with pytest.raises(ValueError, match="primitive"):
        ReducedGaleConfiguration(((1, 0), (0, 0), (-1, -1)))
    ok = ReducedGaleConfiguration([[1, 0], [0, 1], [-1, -1]])
    assert ok == ReducedGaleConfiguration(rows)
    assert ok == _reduced(rows)
    assert len(fan_hilbert_union(ok).vectors) == 3


def _reduced(rows):
    # reduce_configuration turns each primitive Gale row (x, y) into (-y, x).
    return reduce_configuration(GaleConfiguration(rows=tuple((y, -x) for x, y in rows)))


def _assert_unions_match_reference(reduced):
    union = fan_hilbert_union(reduced)
    assert union == reference_fan_union(reduced.distinct_directions())
    assert_half_turn_of(
        symmetrized_half_turn(union),
        reference_fan_union(reference_symmetric_directions(reduced)),
    )


def test_fan_union_starting_on_the_x_axis():
    # dirs[0] = (1, 0): the wrap-around chain (3,-2), (2,-1), (1,0) lies
    # below the axis, so only (1, 0) itself moves to the front.
    reduced = _reduced(((1, 3), (-2, 1), (1, 0), (-1, -4), (3, -2)))
    _assert_unions_match_reference(reduced)
    union = fan_hilbert_union(reduced)
    assert union.vectors[0] == (1, 0)
    assert union.vectors[-2:] == ((3, -2), (2, -1))
    assert union.provenance[0] == ((1, 0), (0, 4))


def test_fan_union_wrap_cone_straddles_the_x_axis():
    # The wrap-around cone (1,-3) -> (1,3) has basis vectors on both sides
    # of the positive x-axis; those from angle 0 on come first.
    reduced = _reduced(((1, 3), (-1, 0), (1, -3)))
    _assert_unions_match_reference(reduced)
    union = fan_hilbert_union(reduced)
    assert union.vectors[:4] == ((1, 0), (1, 1), (1, 2), (1, 3))
    assert union.vectors[-2:] == ((1, -2), (1, -1))
    assert dict(union.provenance)[(1, 1)] == (2,)
    assert dict(union.provenance)[(1, 3)] == (0, 2)


def test_symmetric_core_trivial_cases():
    assert symmetric_core(HilbertBasisSet(((1, 0), (0, 1)), (), ())) == ()
    union = HilbertBasisSet(((1, 0), (0, 1), (-1, 0)), (), ())
    assert symmetric_core(union) == ((1, 0), (-1, 0))


def test_symmetrized_fan_contains_plain_union():
    rng = random.Random(71)
    from conftest import random_valid_instances

    for m in random_valid_instances(12, seed=rng.randint(0, 10**6)):
        reduced = reduce_configuration(gale_transform(m))
        plain = set(fan_hilbert_union(reduced).vectors)
        half = _half_turn(reduced)
        sym = set(full_turn(half))
        assert plain <= sym
        assert len(sym) == 2 * len(half)
        assert sym == set(full_turn(reference_half_turn(reduced)))


def test_fan_radius_bound_covers_union(example_matrix):
    reduced = reduce_configuration(gale_transform(example_matrix))
    bound = fan_radius_bound(reduced)
    for v in full_turn(_half_turn(reduced)):
        assert max(abs(v[0]), abs(v[1])) <= bound
    # Rows on one line leave two directions: the fan's own error.
    line = ReducedGaleConfiguration(rows=((1, 1), (-1, -1), (1, 1)))
    with pytest.raises(GradingError, match="only 2 distinct directions"):
        fan_radius_bound(line)
