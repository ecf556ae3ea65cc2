"""Brute-force verifiers, built from the definitions, not from the fan.

Everything here works straight from the definitions: fibers are
enumerated as lattice points of an explicit polygon, walked column by
column in exact integers, indispensability is read off the fiber, and
primitive binomials are found by scanning a box of kernel vectors for
divisibility-minimal elements.  No Hilbert basis is computed here, and
agreement between the two routes is the strongest correctness check the
package has.  Two pieces are shared with the fan route, so the box
search is not fully independent of it: the command line sizes the box
with ``hilbert.fan_radius_bound``, read off the fan's cones, and
``graver_bruteforce`` builds its binomials with ``toric._gale_binomials``,
which ``is_strongly_robust`` also calls.  ROADMAP.md item 4 plans a
Graver check that needs no radius.

The module is cheap to import: ``toric`` is imported inside the
functions that use it.
"""

from __future__ import annotations

import warnings
from itertools import combinations, count, islice
from math import gcd

from .errors import GradingError, ShellWarning
from .gale import GaleConfiguration, _lagrange_reduced_columns, is_positively_graded
from .planar import cross

#: Width of the safety margin checked at the edge of the scan box.
SHELL_WIDTH = 2


def _column_span(rows, cs) -> range | None:
    """Integers a2 with q a2 <= c for each row (p, q) and its c in cs.

    None when no real a2 qualifies.  A bound is num/den with den > 0
    (den = 0 for infinity), compared by cross-multiplication.
    """
    lo_n, lo_d, hi_n, hi_d = -1, 0, 1, 0
    for c, (_, q) in zip(cs, rows):
        if q > 0:
            if c * hi_d < hi_n * q:
                hi_n, hi_d = c, q
        elif q < 0:
            if c * lo_d < lo_n * q:
                lo_n, lo_d = -c, -q
        elif c < 0:
            return None
    if lo_n * hi_d > hi_n * lo_d:
        return None
    return range(-(-lo_n // lo_d), hi_n // hi_d + 1)


def _fiber_rows(b: GaleConfiguration) -> tuple[tuple[int, int], ...]:
    """The rows ``_fiber_walk`` walks B by: B's columns, Lagrange-reduced.

    The reduced columns span the same lattice, so they give the same
    fibers, and a shear of B does not lengthen a walk.  Raises
    GradingError unless B is positively graded: a fiber polygon is then
    unbounded.
    """
    if not is_positively_graded(b):
        raise GradingError("fiber polygon is unbounded for ungraded configurations")
    return _lagrange_reduced_columns(*zip(*b.rows))


def _fiber_walk(rows: tuple[tuple[int, int], ...], v: tuple[int, ...]):
    """Yield v - B alpha for every integer alpha with B alpha <= v.

    ``rows`` are ``_fiber_rows(b)``; the caller passes a nonnegative v of
    length n.  The polygon {alpha : B alpha <= v} is convex, contains
    alpha = 0 and is bounded, as the configuration is graded.  Its
    columns a1 = 0, 1, ... and then -1, -2, ... are walked up to the
    first one that misses it; one meeting it in a real interval with no
    integer does not end the walk, as a thin polygon can skip a column.
    """
    for a1s in count(0), count(-1, -1):
        for a1 in a1s:
            cs = [t - p * a1 for (p, _), t in zip(rows, v)]
            span = _column_span(rows, cs)
            if span is None:
                break
            for a2 in span:
                yield tuple(c - q * a2 for c, (_, q) in zip(cs, rows))


def is_indispensable_oracle(b: GaleConfiguration, binomial: Binomial) -> bool:
    """Definition check: fiber of the plus part is exactly {plus, minus}.

    The Binomial's constructor guarantees disjoint, nonnegative parts
    that are not both zero; here it must also have length n, B must be
    positively graded (GradingError otherwise), and plus - minus must be
    a kernel vector of the configuration.
    """
    return bool(_indispensable_among(b, (binomial,)))


def _indispensable_among(b: GaleConfiguration, binomials) -> frozenset[Binomial]:
    """The members of ``binomials`` whose plus part has the fiber {plus, minus}.

    Each binomial is checked as ``is_indispensable_oracle`` states, in
    iteration order, and the first bad one raises.  At the first
    binomial, before its kernel-membership check, B's grading is checked
    and its columns reduced, and the first independent pair of B's rows
    is found: the rows of a graded configuration span the plane.
    """
    rows = pair = None
    kept = []
    for x in binomials:
        plus, minus = x.plus, x.minus
        if len(plus) != b.n:
            raise ValueError("binomial length does not match configuration size")
        if rows is None:
            rows = _fiber_rows(b)
            pair = next(
                (i, j, d)
                for i, j in combinations(range(b.n), 2)
                if (d := cross(b.rows[i], b.rows[j]))
            )
        if not _is_kernel_vector(b.rows, pair, x.vector):
            raise ValueError("plus - minus is not a kernel vector of the configuration")
        # The fiber holds plus and minus; a third point decides the answer.
        if set(islice(_fiber_walk(rows, plus), 3)) == {plus, minus}:
            kept.append(x)
    return frozenset(kept)


def _is_kernel_vector(rows, pair, z) -> bool:
    """Whether z = B u for an integer u.

    ``pair`` is (i, j, d) with d = cross(rows[i], rows[j]) != 0; u is
    solved from these two rows and checked against every row.
    """
    i, j, d = pair
    u1, r1 = divmod(z[i] * rows[j][1] - z[j] * rows[i][1], d)
    u2, r2 = divmod(rows[i][0] * z[j] - rows[j][0] * z[i], d)
    return not (r1 or r2) and all(x * u1 + y * u2 == zz for (x, y), zz in zip(rows, z))


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
    from .toric import _gale_binomials

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
    return frozenset(_gale_binomials(b, kept))
