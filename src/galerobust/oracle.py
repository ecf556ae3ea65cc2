"""Brute-force verifiers, independent of the fan pipeline.

Everything here works straight from the definitions: fibers are
enumerated as lattice points of an explicit polygon, indispensability is
read off the fiber, and primitive binomials are found by scanning a box
of kernel vectors for divisibility-minimal elements.  None of it touches
the Hilbert-basis code paths, which is the point: agreement between the
two routes is the strongest correctness check the package has.

The module is cheap to import: ``fractions`` and ``Binomial`` are
imported inside the functions that use them.
"""

from __future__ import annotations

import warnings
from math import gcd

from ._value import _Value
from .errors import GradingError, ShellWarning
from .gale import GaleConfiguration, is_positively_graded
from .planar import cross

#: Width of the safety margin checked at the edge of the scan box.
SHELL_WIDTH = 2


class FiberEnumeration(_Value):
    """All nonnegative vectors sharing the image A @ target."""

    __slots__ = ("target", "points")

    def __init__(self, target: tuple[int, ...], points: frozenset[tuple[int, ...]]):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "points", points)


def _polygon_vertices(b: GaleConfiguration, v):
    """Vertices of {x in R^2 : B x <= v}, exact rational coordinates."""
    from fractions import Fraction

    rows = b.rows
    n = len(rows)
    verts = []
    for i in range(n):
        for j in range(i + 1, n):
            d = cross(rows[i], rows[j])
            if d == 0:
                continue
            # Solve rows[i] . x = v[i], rows[j] . x = v[j] by Cramer.
            x = Fraction(v[i] * rows[j][1] - v[j] * rows[i][1], d)
            y = Fraction(rows[i][0] * v[j] - rows[j][0] * v[i], d)
            if all(rows[k][0] * x + rows[k][1] * y <= v[k] for k in range(n)):
                verts.append((x, y))
    return verts


def enumerate_fiber(b: GaleConfiguration, v) -> FiberEnumeration:
    """Fiber of a nonnegative vector v, via the kernel parametrization.

    Every fiber element is v - B alpha for a unique integer alpha with
    B alpha <= v componentwise, so the fiber is the image of the lattice
    points of that polygon.  Raises GradingError when the polygon is
    unbounded (the configuration is not positively graded).
    """
    vt = tuple(int(x) for x in v)
    if len(vt) != b.n:
        raise ValueError("target length does not match configuration size")
    if any(x < 0 for x in vt):
        raise ValueError("target must be nonnegative")
    if not is_positively_graded(b):
        raise GradingError("fiber polygon is unbounded for ungraded configurations")

    verts = _polygon_vertices(b, vt)
    # alpha = 0 is always feasible, so a bounded polygon has vertices.
    lo_x = min(x for x, _ in verts)
    hi_x = max(x for x, _ in verts)
    lo_y = min(y for _, y in verts)
    hi_y = max(y for _, y in verts)

    def ceil_frac(f: Fraction) -> int:
        return -((-f.numerator) // f.denominator)

    def floor_frac(f: Fraction) -> int:
        return f.numerator // f.denominator

    points = set()
    for a1 in range(ceil_frac(lo_x), floor_frac(hi_x) + 1):
        for a2 in range(ceil_frac(lo_y), floor_frac(hi_y) + 1):
            if all(r[0] * a1 + r[1] * a2 <= t for r, t in zip(b.rows, vt)):
                w = tuple(t - (r[0] * a1 + r[1] * a2) for r, t in zip(b.rows, vt))
                points.add(w)
    return FiberEnumeration(target=vt, points=frozenset(points))


def is_indispensable_oracle(b: GaleConfiguration, binomial) -> bool:
    """Definition check: fiber of the plus part is exactly {plus, minus}.

    Accepts a Binomial or a raw (plus, minus) pair; raw pairs with
    overlapping supports are legal input and simply return False.  Both
    parts must have length n, and plus - minus must be a kernel vector of
    the configuration.
    """
    from .toric import Binomial

    if isinstance(binomial, Binomial):
        plus, minus = binomial.plus, binomial.minus
    else:
        plus, minus = tuple(binomial[0]), tuple(binomial[1])
    if not len(plus) == len(minus) == b.n:
        raise ValueError("plus and minus must both have the configuration's length")
    if any(p > 0 and m > 0 for p, m in zip(plus, minus)):
        return False
    diff = tuple(p - m for p, m in zip(plus, minus))
    if _solve_in_kernel(b, diff) is None:
        raise ValueError("plus - minus is not a kernel vector of the configuration")
    fiber = enumerate_fiber(b, plus)
    return fiber.points == {plus, minus}


def _solve_in_kernel(b: GaleConfiguration, z):
    """Integer u with B u = z, or None."""
    rows = b.rows
    pivot = None
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if cross(rows[i], rows[j]) != 0:
                pivot = (i, j)
                break
        if pivot:
            break
    if pivot is None:
        return None
    i, j = pivot
    d = cross(rows[i], rows[j])
    u1 = z[i] * rows[j][1] - z[j] * rows[i][1]
    u2 = rows[i][0] * z[j] - rows[j][0] * z[i]
    if u1 % d or u2 % d:
        return None
    u = (u1 // d, u2 // d)
    if any(r[0] * u[0] + r[1] * u[1] != zz for r, zz in zip(rows, z)):
        return None
    return u


def _box_scan(rows, radius: int) -> list[tuple[int, int]]:
    """u in [-radius, radius]^2 \\ {0} whose B u no other box vector divides.

    z = B u is kept iff no other nonzero u' in the box gives z' with
    z'+ <= z+ and z'- <= z- componentwise.  Only primitive u can qualify,
    since B(u/g) divides B u.  Candidates are taken by increasing
    (|z|_1, u1, u2); each needs testing only against the vectors already
    kept, because a box vector that divides it has a strictly smaller
    1-norm and so is kept or divided by a kept one.

    Each (z+, z-) is packed into one int, 2n fields of ``width`` bits
    whose top bit is a guard that no |z_i| reaches.  With every guard of
    v set, subtracting g borrows inside a field exactly where g's entry
    exceeds v's, and never across fields, so g divides v iff all guards
    survive.
    """
    n = len(rows)
    width = (radius * max(abs(x) + abs(y) for x, y in rows)).bit_length() + 1
    low = n * width
    guard = 0
    for bit in range(width - 1, 2 * low, width):
        guard |= 1 << bit
    shifts = range(0, low, width)
    cands = []
    # B(-u) = -B u: pack each u with u1 > 0, or u1 == 0 < u2, once for both.
    for u1 in range(radius + 1):
        line = [(bx * u1, by, shift) for (bx, by), shift in zip(rows, shifts)]
        for u2 in range(-radius if u1 else 1, radius + 1):
            if gcd(u1, u2) != 1:
                continue
            norm = plus = minus = 0
            for a, by, shift in line:
                z = a + by * u2
                if z > 0:
                    norm += z
                    plus |= z << shift
                elif z < 0:
                    norm -= z
                    minus |= -z << shift
            cands.append((norm, u1, u2, plus | minus << low))
            cands.append((norm, -u1, -u2, minus | plus << low))
    cands.sort()
    kept_packed = []
    kept = []
    for _, u1, u2, v in cands:
        top = v | guard
        for g in kept_packed:
            if (top - g) & guard == guard:
                break
        else:
            kept_packed.append(v)
            kept.append((u1, u2))
    return kept


def graver_bruteforce(b: GaleConfiguration, radius: int) -> frozenset[Binomial]:
    """Primitive binomials found by exhaustive search over a kernel box.

    Scans every u in [-radius, radius]^2 \\ {0} and keeps B u when no
    other box element divides it part-wise.  The caller chooses a radius
    covering all candidate generators (the fan parallelepiped bound plus
    SHELL_WIDTH); if any surviving element touches the outer shell a
    ShellWarning is emitted because the box was probably too small.
    """
    from .toric import Binomial

    if radius < 1:
        raise ValueError("radius must be positive")
    kept = _box_scan(b.rows, radius)
    if any(max(abs(u1), abs(u2)) > radius - SHELL_WIDTH for u1, u2 in kept):
        warnings.warn(
            ShellWarning(
                f"a primitive element touches the outer shell of the radius-{radius} "
                "box; rerun with a larger radius"
            )
        )
    out = set()
    for u1, u2 in kept:
        out.add(Binomial.from_vector(b.kernel_vector((u1, u2))))
    return frozenset(out)
