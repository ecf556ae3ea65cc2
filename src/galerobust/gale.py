"""Planar Gale configurations: construction, reduction, grading, bouquets.

A matrix with n columns and rank n-2 has a rank-2 integer kernel; the
rows of a kernel basis are the Gale vectors b_1..b_n.  Rotating each row
by 90 degrees and scaling to coprime entries gives the reduced
configuration, whose angular fan drives everything else in the package.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cmp_to_key
from math import gcd
from operator import index, mul

from ._value import _Value
from .errors import RankError, ZeroRowError
from .intlinalg import IntegerMatrix, _planar_kernel
from .planar import Vec2, angle_cmp

_ANGLE_KEY = cmp_to_key(angle_cmp)


class GaleConfiguration(_Value):
    """List of 2D integer row vectors spanning the kernel lattice of A."""

    __slots__ = ()
    _fields = ("rows",)

    def __new__(cls, rows: tuple[Vec2, ...]):
        if len(rows) < 3:
            raise ValueError("a Gale configuration needs at least 3 rows")
        clean = []
        for i, row in enumerate(rows):
            if len(row) != 2:
                raise ValueError("Gale rows must be 2-dimensional")
            t = (index(row[0]), index(row[1]))
            if t == (0, 0):
                raise _zero_row_error(i)
            clean.append(t)
        return super().__new__(cls, tuple(clean))

    @property
    def n(self) -> int:
        return len(self.rows)


def _zero_row_error(i: int) -> ZeroRowError:
    return ZeroRowError(
        f"Gale row {i} is zero; variable {i} lies in no kernel vector "
        "and must be removed before analysis"
    )


class ReducedGaleConfiguration(_Value):
    """Primitive 90-degree rotations of the Gale rows.

    ``rows[i]`` belongs to variable i, as the rows keep their original
    order, and ``rows`` is the only stored field.  The angular facts are
    computed from it each time they are read: ``angular_order`` lists
    row positions sorted counterclockwise from the smallest angle in
    [0, 2*pi), ties broken by original index, and
    ``distinct_directions()`` lists the distinct rows in that order.
    Only the fan and the command line's ``reduced_gale`` section read
    them.  The constructor checks that the rows are primitive int pairs,
    none zero.
    """

    __slots__ = ()
    _fields = ("rows",)

    def __new__(cls, rows: Sequence[Vec2]):
        clean = tuple((index(x), index(y)) for x, y in rows)
        if any(gcd(x, y) != 1 for x, y in clean):
            raise ValueError(f"reduced rows must be primitive, got {clean}")
        return super().__new__(cls, clean)

    @property
    def angular_order(self) -> tuple[int, ...]:
        # A stable sort; each row's comparator key is made once.
        keys = list(map(_ANGLE_KEY, self.rows))
        return tuple(sorted(range(len(keys)), key=keys.__getitem__))

    def distinct_directions(self) -> tuple[Vec2, ...]:
        """Distinct reduced directions in counterclockwise order."""
        # Distinct primitive rows never tie in angle.
        return tuple(sorted(set(self.rows), key=_ANGLE_KEY))


class Bouquet(_Value):
    """Maximal set of variables whose Gale vectors span one line."""

    __slots__ = ()
    _fields = ("members", "direction", "mixed")


def _lagrange_reduced_columns(c0: Sequence[int], c1: Sequence[int]) -> tuple[Vec2, ...]:
    """Rows of the shortest basis of the lattice spanned by columns c0, c1.

    Gauss/Lagrange reduction followed by sign normalization (first
    nonzero entry positive) and lexicographic column order.  The
    reduction runs on the Gram matrix (|v|^2, |w|^2, v.w) and a 2x2
    unimodular transform, so a pass costs O(1); the transform is applied
    to the two columns once, at the end.  The reduced basis is unique up
    to sign and order, so the result depends only on the lattice, except
    on a tie, 2|v.w| = |v|^2, where w and w -+ v are equally short and
    the result depends on the input basis: a canonical input basis, such
    as a Hermite normal form, settles it.
    """
    nv, nw, t = sum(map(mul, c0, c0)), sum(map(mul, c1, c1)), sum(map(mul, c0, c1))
    # v = a*c0 + b*c1 and w = c*c0 + d*c1.
    a, b, c, d = 1, 0, 0, 1
    if nv > nw:
        a, b, c, d, nv, nw = c, d, a, b, nw, nv
    while True:
        # Nearest integer to t/nv, half rounded up; exact integer arithmetic.
        q = (2 * t + nv) // (2 * nv)
        c, d = c - q * a, d - q * b
        nw -= q * (2 * t - q * nv)
        t -= q * nv
        if nw < nv:
            a, b, c, d, nv, nw = c, d, a, b, nw, nv
        else:
            break
    v = [a * x + b * y for x, y in zip(c0, c1)]
    w = [c * x + d * y for x, y in zip(c0, c1)]

    def sign_fix(x):
        lead = next(filter(None, x), 0)
        return [-t for t in x] if lead < 0 else x

    v, w = sign_fix(v), sign_fix(w)
    if w < v:
        v, w = w, v
    return tuple(zip(v, w))


def gale_transform(a: IntegerMatrix) -> GaleConfiguration:
    """Gale configuration of a matrix with corank exactly 2.

    ``intlinalg._planar_kernel`` gives the Hermite normal form of the
    saturated kernel, a canonical basis, and its Lagrange reduction is
    the shortest planar basis whose rows are read off, ties included, so
    the configuration is a deterministic function of the kernel of A.
    Raises RankError when rank(A) is not ncols - 2, before any back
    substitution, and ZeroRowError when some variable occurs in no
    kernel vector.
    """
    n = a.ncols
    if n < 3:
        raise RankError(f"need at least 3 columns, got {n}")
    # The reduced rows are int pairs already; only the zero check is left.
    rows = _lagrange_reduced_columns(*_planar_kernel(a))
    if (0, 0) in rows:
        raise _zero_row_error(rows.index((0, 0)))
    return GaleConfiguration._trusted(rows)


def reduce_configuration(b: GaleConfiguration) -> ReducedGaleConfiguration:
    """Rotate each row by 90 degrees and scale entries to be coprime."""
    reduced = []
    for (x, y) in b.rows:
        g = gcd(x, y)
        reduced.append((-y // g, x // g))
    return ReducedGaleConfiguration._trusted(tuple(reduced))


def is_positively_graded(b: GaleConfiguration) -> bool:
    """Whether {alpha in Z^2 : B alpha >= 0 componentwise} = {0}.

    Exactly equivalent to the rows of B positively spanning the plane,
    that is, no closed half-plane holds them all.  One pass, no sort:
    against the first row r0, find the most counterclockwise row L
    strictly left of r0 and the most clockwise row R strictly right of
    it, and note whether some row points opposite r0.  Every gap between
    consecutive directions is below pi unless one side of r0 is empty or
    the gap from L to R reaches pi, which a row opposite r0 splits and
    which is below pi iff cross(L, R) > 0.  The configuration's
    constructor guarantees at least three rows, none of them zero.
    """
    rows = b.rows
    # Left and right start at r0 and stay there while that side is empty.
    r0 = left = right = rows[0]
    x0, y0 = r0
    opposite = False
    for row in rows:
        x, y = row
        c = x0 * y - y0 * x
        if c > 0:
            if left[0] * y - left[1] * x > 0:
                left = row
        elif c < 0:
            if right[0] * y - right[1] * x < 0:
                right = row
        elif x0 * x + y0 * y < 0:
            opposite = True
    if left is r0 or right is r0:
        return False
    return opposite or left[0] * right[1] - left[1] * right[0] > 0


def bouquets(b: GaleConfiguration) -> list[Bouquet]:
    """Partition of the variables into maximal collinear classes.

    One pass groups the rows by the sign-canonical primitive direction
    of their line; a bouquet is mixed when both primitive ends of the
    line occur among its rows.  Groups open in row order, so bouquets
    come out listed by smallest member.  The rows are nonzero, as the
    configuration's constructor guarantees.
    """
    groups: dict[Vec2, list[int]] = {}
    ends: set[Vec2] = set()
    for i, (x, y) in enumerate(b.rows):
        g = gcd(x, y)
        x, y = x // g, y // g
        ends.add((x, y))
        d = (x, y) if x > 0 or (x == 0 and y > 0) else (-x, -y)
        groups.setdefault(d, []).append(i)
    dirs = list(groups)
    return Bouquet._trusted_all(
        [frozenset(members) for members in groups.values()],
        dirs,
        [d in ends and (-d[0], -d[1]) in ends for d in dirs],
    )
