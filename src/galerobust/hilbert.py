"""Hilbert bases of rational cones in the plane and their fan unions.

A pointed 2D cone spanned by primitive a, b (counterclockwise, angle
strictly below pi) has a unique minimal generating set of its lattice
monoid: the Hirzebruch–Jung chain from a to b, built in one walk with
one step per basis element.

``fan_hilbert_union`` assembles the union in walk order: consecutive
cones share a generator and each walk is already counterclockwise, so
the chains are joined and rotated to start at angle 0, with no sort.
The fan over {±rows} is centrally symmetric; one half-turn of its
union, read off the plain union, holds each ± pair once.
"""

from __future__ import annotations

import bisect
from math import gcd
from operator import index

from . import planar
from ._value import _Value
from .errors import GradingError
from .gale import ReducedGaleConfiguration
from .planar import Vec2, cross


class Cone2D(_Value):
    """Pointed cone spanned by two primitive generators, a before b.

    The public constructor converts both generators to int pairs and
    checks them; ``Cone2D._trusted`` and ``Cone2D._trusted_all`` build
    cones from generators already known to be valid, without the checks.
    """

    __slots__ = ()
    _fields = ("a", "b")

    def __new__(cls, a: Vec2, b: Vec2):
        a = (index(a[0]), index(a[1]))
        b = (index(b[0]), index(b[1]))
        if gcd(*a) != 1 or gcd(*b) != 1:
            raise ValueError("cone generators must be primitive")
        if cross(a, b) <= 0:
            raise ValueError("generators must be counterclockwise with angle < pi")
        return super().__new__(cls, a, b)


class HilbertBasisSet(_Value):
    """Union of the Hilbert bases of a fan, with per-vector provenance.

    ``vectors`` run counterclockwise from angle 0.  ``provenance`` pairs
    each vector with the indices of the ``cones`` whose basis holds it:
    (i,) inside cone i's chain, (i, i+1) on the generator cones i and
    i+1 share, and (0, last) on the first direction, which the last cone
    shares with cone 0.
    """

    __slots__ = ()
    _fields = ("vectors", "provenance", "cones")


def hilbert_basis(cone: Cone2D) -> tuple[Vec2, ...]:
    """Minimal generating set of cone ∩ Z², counterclockwise from a to b.

    Hirzebruch–Jung walk (Oda, *Convex Bodies and Algebraic Geometry*,
    ch. 1): v0 = a; v1 is the point with det(a, v1) = 1 and the least
    det(v1, b) >= 0; then v(i+1) = c·v(i) - v(i-1) with c the smallest
    integer keeping v(i+1) in the cone, until b is reached.  Consecutive
    elements span determinant 1, and the number of steps is the length of
    the continued fraction of det / det(v1, b).  The determinants
    r(i) = det(v(i), b) are carried as ints: c = ceil(r(i-1) / r(i)),
    r(i+1) = c·r(i) - r(i-1), and the walk stops at r(i) = 0, where
    v(i) = b.  Always contains both generators; equals (a, b) exactly
    when det(a, b) = 1.
    """
    a, b = cone.a, cone.b
    a0, a1 = a
    b0, b1 = b
    # cross(a, (-t, s)) = s*a0 + t*a1 = 1, with a0 = ±1 where a1 = 0 as a is
    # primitive; any such pair, shifted along a by k, puts cross(v1, b) into [0, det).
    s = pow(a0, -1, a1) if a1 else a0
    t = (1 - s * a0) // a1 if a1 else 0
    # r_prev = cross(a, b) and divmod(cross((-t, s), b), r_prev).
    r_prev = a0 * b1 - a1 * b0
    k, r_cur = divmod(-t * b1 - s * b0, r_prev)
    prev, cur = a, (-t - k * a0, s - k * a1)
    basis = [a, cur]
    while r_cur:
        c = -(-r_prev // r_cur)
        prev, cur = cur, (c * cur[0] - prev[0], c * cur[1] - prev[1])
        r_prev, r_cur = r_cur, c * r_cur - r_prev
        basis.append(cur)
    return tuple(basis)


def _fan_cones(dirs: tuple[Vec2, ...]) -> list[Cone2D]:
    if len(dirs) < 3:
        raise GradingError(
            f"only {len(dirs)} distinct directions; the fan cannot cover the plane"
        )
    nexts = dirs[1:] + dirs[:1]
    for d, nxt in zip(dirs, nexts):
        # The configuration's rows are primitive, and cross(d, nxt) > 0 is
        # checked here, so the cones are built trusted.
        if d[0] * nxt[1] - d[1] * nxt[0] <= 0:
            raise GradingError(
                f"consecutive directions {d} and {nxt} span an angle >= pi; "
                "the configuration is not positively graded"
            )
    return Cone2D._trusted_all(dirs, nexts)


def fan_hilbert_union(config: ReducedGaleConfiguration) -> HilbertBasisSet:
    """Union of the Hilbert bases of all consecutive cones of the fan.

    Duplicate directions are collapsed; the fan is built over the distinct
    directions in counterclockwise order, wrapping around.  Raises
    GradingError if any consecutive pair spans an angle of pi or more,
    which happens exactly when the configuration is not positively graded.

    Cone i ends where cone i+1 starts, so the counterclockwise chains
    without their first vectors list every vector once, from just after
    dirs[0] round to dirs[0].  The wrap-around chain crosses angle 0 once;
    its vectors from there on (half 0) move to the front, which gives the
    angular order from 0 without sorting: Hilbert basis elements are
    primitive, so no two share an angle.

    Each vector's provenance label lists the cones whose basis holds it:
    (i,) inside chain i, (i, i+1) on the generator that cones i and i+1
    share, and (0, last) on dirs[0], where the last cone meets cone 0.
    The labels are built per chain, a repeated (i,) and one shared label,
    and zipped with the vectors once.
    """
    cones = _fan_cones(config.distinct_directions())
    last = len(cones) - 1
    vectors: list[Vec2] = []
    labels: list[tuple[int, ...]] = []
    for i, chain in enumerate(map(hilbert_basis, cones)):
        vectors.extend(chain[1:])
        labels.extend([(i,)] * (len(chain) - 2))
        labels.append((i, i + 1) if i < last else (0, last))
    split = len(vectors)
    while planar._half(vectors[split - 1]) == 0:
        split -= 1
    vectors = vectors[split:] + vectors[:split]
    return HilbertBasisSet._trusted(
        tuple(vectors), tuple(zip(vectors, labels[split:] + labels[:split])), tuple(cones)
    )


def _half_merge(vectors: tuple[Vec2, ...]) -> list[Vec2]:
    """The distinct members of ±vectors in [0, pi), counterclockwise.

    ``vectors`` are primitive, distinct and counterclockwise from angle 0.
    """
    split = bisect.bisect(vectors, 0, key=planar._half)
    lower = [(-x, -y) for x, y in vectors[split:]]
    merged: list[Vec2] = []
    j = 0
    k = len(lower)
    for u in vectors[:split]:
        ux, uy = u
        while j < k:
            w = lower[j]
            # cross(w, u) >= 0: w is not past u.
            if w[0] * uy - w[1] * ux < 0:
                break
            if w != u:
                merged.append(w)
            j += 1
        merged.append(u)
    return merged + lower[j:]


def _symmetric_directions(config: ReducedGaleConfiguration) -> tuple[Vec2, ...]:
    """The distinct directions of {±rows}, counterclockwise from angle 0."""
    half = _half_merge(config.distinct_directions())
    return tuple(half + [(-x, -y) for x, y in half])


def symmetrized_half_turn(union: HilbertBasisSet) -> list[Vec2]:
    """One vector of each ± pair of H_S, the union of the fan over {±rows}.

    That fan (of the Lawrence configuration) refines the plain one, and
    irreducible stays irreducible in a subcone: H_S holds the plain union
    H_P and -H_P.  Their runs step by determinant 1, so H_S adds only the
    walks across their gaps of determinant > 1.  With M their vectors in
    [0, pi), the result runs from just after M[0] to -M[0].
    """
    merged = _half_merge(union.vectors)
    half: list[Vec2] = []
    for p, q in zip(merged, merged[1:] + [(-merged[0][0], -merged[0][1])]):
        # cross(p, q) > 1: a gap that holds more basis vectors.
        if p[0] * q[1] - p[1] * q[0] > 1:
            half.extend(hilbert_basis(Cone2D._trusted(p, q))[1:-1])
        half.append(q)
    return half


def symmetric_core(h: HilbertBasisSet) -> tuple[Vec2, ...]:
    """Vectors u with both u and -u in the union; centrally symmetric.

    The result keeps both members of every pair, in the union's
    counterclockwise order.
    """
    have = set(h.vectors)
    return tuple([v for v in h.vectors if (-v[0], -v[1]) in have])


def fan_radius_bound(config: ReducedGaleConfiguration) -> int:
    """Max over symmetrized fan cones of |a|_inf + |b|_inf.

    Every Hilbert basis element of a cone lies in conv{0, a, b, a+b}, so
    every primitive-binomial witness u has sup-norm at most this bound;
    brute-force verifiers add their own safety shell on top.
    """
    return max(
        max(abs(c.a[0]), abs(c.a[1])) + max(abs(c.b[0]), abs(c.b[1]))
        for c in _fan_cones(_symmetric_directions(config))
    )
