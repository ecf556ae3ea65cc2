"""Hilbert bases of rational cones in the plane and their fan unions.

A pointed 2D cone spanned by primitive a, b (counterclockwise, angle
strictly below pi) has a unique minimal generating set of its lattice
monoid: the Hirzebruch–Jung chain from a to b, built in one walk with
one step per basis element.

``fan_hilbert_union`` assembles the union in walk order: consecutive
cones share a generator and each walk is already counterclockwise, so
the chains are joined and rotated to start at angle 0, with no sort.
It stores the vectors and the cones; which cones hold each vector is
computed when ``provenance`` is read.  The fan over {±rows} is
centrally symmetric; one half-turn of its union, read off the plain
union, holds each ± pair once.  The merge that builds that half-turn
meets every pair u, -u of the union, so ``half_turn_and_core`` returns
both the half-turn and the symmetric core from that one pass.
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
    """Union of the Hilbert bases of a fan, and the fan's cones.

    ``vectors`` run counterclockwise from angle 0; cone i spans the fan's
    directions d_i to d_(i+1), wrapping round, and d_0 is the first
    direction from angle 0.  ``provenance`` is computed when read.
    """

    __slots__ = ()
    _fields = ("vectors", "cones")

    @property
    def provenance(self) -> tuple[tuple[Vec2, tuple[int, ...]], ...]:
        """Each vector paired with the indices of the cones whose basis holds it.

        (i,) inside cone i's chain, (j-1, j) on the direction d_j that
        cones j-1 and j share, and (0, last) on d_0, which the last cone
        shares with cone 0.  One pass: the vectors before d_0 lie in the
        last cone, and each direction met starts the next cone.
        """
        starts = {c.a: i for i, c in enumerate(self.cones)}
        last = len(self.cones) - 1
        i = last
        labels = []
        for v in self.vectors:
            j = starts.get(v)
            if j is None:
                labels.append((v, (i,)))
            else:
                labels.append((v, (j - 1, j) if j else (0, last)))
                i = j
        return tuple(labels)


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

    No provenance labels are built here: ``HilbertBasisSet.provenance``
    reads them off the vectors and the cones.
    """
    cones = _fan_cones(config.distinct_directions())
    vectors: list[Vec2] = []
    for chain in map(hilbert_basis, cones):
        vectors.extend(chain[1:])
    split = len(vectors)
    while planar._half(vectors[split - 1]) == 0:
        split -= 1
    return HilbertBasisSet._trusted(tuple(vectors[split:] + vectors[:split]), tuple(cones))


def _half_merge(vectors: tuple[Vec2, ...]) -> tuple[list[Vec2], list[Vec2]]:
    """The distinct members of ±vectors in [0, pi), counterclockwise, and
    the members u there with both u and -u in ``vectors``, in the same order.

    ``vectors`` are primitive, distinct and counterclockwise from angle 0.
    The vectors in [pi, 2pi) are negated and merged into those in
    [0, pi); a pair u, -u of ``vectors`` meets there as one vector twice.
    """
    split = bisect.bisect(vectors, 0, key=planar._half)
    lower = [(-x, -y) for x, y in vectors[split:]]
    merged: list[Vec2] = []
    core: list[Vec2] = []
    j = 0
    k = len(lower)
    for u in vectors[:split]:
        ux, uy = u
        while j < k:
            w = lower[j]
            # cross(w, u) >= 0: w is not past u.
            if w[0] * uy - w[1] * ux < 0:
                break
            if w == u:
                core.append(u)
            else:
                merged.append(w)
            j += 1
        merged.append(u)
    return merged + lower[j:], core


def _both_signs(upper: list[Vec2]) -> tuple[Vec2, ...]:
    """Vectors in [0, pi), counterclockwise, then their negations: the
    counterclockwise order from angle 0 of a centrally symmetric set."""
    return tuple(upper + [(-x, -y) for x, y in upper])


def _symmetric_directions(config: ReducedGaleConfiguration) -> tuple[Vec2, ...]:
    """The distinct directions of {±rows}, counterclockwise from angle 0."""
    return _both_signs(_half_merge(config.distinct_directions())[0])


def _walk_gaps(merged: list[Vec2]) -> list[Vec2]:
    """The half-turn of H_S from the merged vectors M in [0, pi): each
    vector after M[0] up to -M[0], with the walks across the gaps."""
    half: list[Vec2] = []
    for p, q in zip(merged, merged[1:] + [(-merged[0][0], -merged[0][1])]):
        # cross(p, q) > 1: a gap that holds more basis vectors.
        if p[0] * q[1] - p[1] * q[0] > 1:
            half.extend(hilbert_basis(Cone2D._trusted(p, q))[1:-1])
        half.append(q)
    return half


def half_turn_and_core(union: HilbertBasisSet) -> tuple[list[Vec2], tuple[Vec2, ...]]:
    """The half-turn of H_S and the symmetric core of the union, from one merge.

    H_S is the union of the fan over {±rows} (the Lawrence configuration's
    fan).  That fan refines the plain one, and irreducible stays
    irreducible in a subcone: H_S holds the plain union H_P and -H_P.
    Their runs step by determinant 1, so H_S adds only the walks across
    their gaps of determinant > 1.  With M their vectors in [0, pi), the
    half-turn holds one vector of each ± pair of H_S, from just after
    M[0] to -M[0].

    The core is the vectors u with both u and -u in the union; it is
    centrally symmetric and keeps both members of every pair, in the
    union's counterclockwise order: the members in [0, pi) that the merge
    meets twice, then their negations.
    """
    merged, upper = _half_merge(union.vectors)
    return _walk_gaps(merged), _both_signs(upper)


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
