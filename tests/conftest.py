import functools
import itertools
import json
import math
import random
from fractions import Fraction
from math import gcd
from operator import index, mul
from pathlib import Path

import pytest

from galerobust import (
    Binomial,
    Cone2D,
    GradingError,
    HilbertBasisSet,
    IntegerMatrix,
    gale_transform,
    hilbert_basis,
    is_positively_graded,
    rank,
)
from galerobust._value import _Value
from galerobust.errors import ZeroRowError
from galerobust.gale import Bouquet, GaleConfiguration
from galerobust.intlinalg import _back_substitute, _bareiss_forward, _divide_exactly
from galerobust.oracle import _fiber_rows, _fiber_walk
from galerobust.planar import cross
from galerobust.toric import _gale_binomials, _trusted_binomials

DATA = Path(__file__).parent / "data"

# The worked running example: 4x6, corank 2, strongly robust.
EXAMPLE_A = (
    (1, 0, 1, 0, 0, 0),
    (0, 1, 0, 0, 1, 0),
    (0, 1, 0, 1, 0, 1),
    (-2, 0, 0, 0, -4, 5),
)
EXAMPLE_GALE_ROWS = ((1, 2), (-2, 1), (-1, -2), (0, -1), (2, -1), (2, 0))
EXAMPLE_REDUCED_ROWS = ((-2, 1), (-1, -2), (2, -1), (1, 0), (1, 2), (0, 1))
EXAMPLE_UNION = {
    (1, 0), (-1, 0), (1, 1), (-1, -1), (1, 2), (-1, -2),
    (0, 1), (0, -1), (1, -1), (-1, 1), (2, -1), (-2, 1),
}
EXAMPLE_BINOMIALS = {
    ((0, 5, 0, 0, 0, 0), (0, 0, 0, 1, 5, 4)),
    ((1, 0, 0, 0, 2, 2), (0, 2, 1, 0, 0, 0)),
    ((1, 3, 0, 0, 0, 0), (0, 0, 1, 1, 3, 2)),
    ((2, 1, 0, 0, 0, 0), (0, 0, 2, 1, 1, 0)),
    ((3, 0, 0, 0, 1, 2), (0, 1, 3, 1, 0, 0)),
    ((5, 0, 0, 0, 0, 2), (0, 0, 5, 2, 0, 0)),
}

TWISTED_CUBIC = ((3, 2, 1, 0), (0, 1, 2, 3))


@pytest.fixture(scope="session")
def example_matrix() -> IntegerMatrix:
    return IntegerMatrix(EXAMPLE_A)


@pytest.fixture(scope="session")
def twisted_cubic() -> IntegerMatrix:
    return IntegerMatrix(TWISTED_CUBIC)


def primitive(v) -> tuple[int, int]:
    """Scale a nonzero integer vector so its entries are coprime."""
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector has no primitive representative")
    g = gcd(abs(x), abs(y))
    return (x // g, y // g)


def sign_canonical(v) -> tuple[int, int]:
    """One representative per +/- pair: first nonzero coordinate positive."""
    x, y = v
    if x < 0 or (x == 0 and y < 0):
        return (-x, -y)
    return (x, y)


def _reference_half(v) -> int:
    # 0 for angles in [0, pi), 1 for [pi, 2*pi).
    x, y = v
    if y > 0 or (y == 0 and x > 0):
        return 0
    return 1


def reference_angle_cmp(u, v) -> int:
    """Angular comparison of nonzero vectors in [0, 2*pi), by half-plane and cross.

    The form ``planar.angle_cmp`` had before its arithmetic was written
    inline: the half-plane of each vector, then the sign of cross(u, v).
    """
    hu, hv = _reference_half(u), _reference_half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = cross(u, v)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def reference_convex_hull(points) -> list[tuple[int, int]]:
    """Monotone-chain hull vertices, counterclockwise, by tuple differences.

    The form ``planar.convex_hull`` had before its turn test was written
    inline: each test builds the two difference vectors and calls cross.
    """
    pts = sorted({(index(p[0]), index(p[1])) for p in points})
    if len(pts) <= 2:
        return pts

    def half_chain(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(
                (chain[-1][0] - chain[-2][0], chain[-1][1] - chain[-2][1]),
                (p[0] - chain[-1][0], p[1] - chain[-1][1]),
            ) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    hull = half_chain(pts)[:-1] + half_chain(pts[::-1])[:-1]
    if len(hull) <= 2:
        return [pts[0], pts[-1]]
    return hull


def identity(n: int) -> IntegerMatrix:
    return IntegerMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def transpose(m: IntegerMatrix) -> IntegerMatrix:
    """M^T; M needs at least one column, as a matrix needs a row."""
    return IntegerMatrix(zip(*m.rows))


def column(m: IntegerMatrix, j: int) -> tuple[int, ...]:
    return tuple(r[j] for r in m.rows)


def matmul(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """The product A B."""
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.ncols} columns against {b.nrows} rows")
    cols = list(zip(*b.rows))
    return IntegerMatrix([[sum(map(mul, r, c)) for c in cols] for r in a.rows])


def apply(m: IntegerMatrix, v) -> tuple[int, ...]:
    """The matrix-vector product M v."""
    return tuple(sum(map(mul, r, v)) for r in m.rows)


def is_zero(m: IntegerMatrix) -> bool:
    return not any(map(any, m.rows))


def kernel_vector(b: GaleConfiguration, u) -> tuple[int, ...]:
    """The kernel element B u of the ambient lattice Z^n."""
    return tuple(x * u[0] + y * u[1] for x, y in b.rows)


def lattices_equal(m1: IntegerMatrix, m2: IntegerMatrix) -> bool:
    """Column lattices coincide iff their canonical column forms do."""
    return column_hnf(m1) == column_hnf(m2)


def random_valid_instances(count: int, seed: int, sizes=(4, 5, 6, 7), bound: int = 4):
    """Random matrices filtered to corank 2, positive grading, no zero rows."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(sizes)
        m = IntegerMatrix(
            [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n - 2)]
        )
        if rank(m) != n - 2:
            continue
        try:
            b = gale_transform(m)
        except ZeroRowError:
            continue
        if not is_positively_graded(b):
            continue
        out.append(m)
    return out


@pytest.fixture(scope="session")
def acceptance_suite():
    """The shared 100-instance random suite used by the acceptance tests."""
    return random_valid_instances(100, seed=20260810)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0, by extended Euclid.

    The package takes its Bezout pairs from pow(x, -1, m); this loop is
    an independent reference for the Hermite forms here and the tests.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hermite_normal_form(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Row-style Hermite normal form with its unimodular transform.

    Returns (H, U) with U unimodular, U M = H, pivots positive, entries
    above each pivot reduced into [0, pivot), and zero rows last.
    """
    nr, nc = m.nrows, m.ncols
    h = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    piv = 0
    for col in range(nc):
        if piv >= nr:
            break
        sel = next((r for r in range(piv, nr) if h[r][col] != 0), None)
        if sel is None:
            continue
        if sel != piv:
            h[piv], h[sel] = h[sel], h[piv]
            u[piv], u[sel] = u[sel], u[piv]
        for r in range(piv + 1, nr):
            if h[r][col] == 0:
                continue
            a, b = h[piv][col], h[r][col]
            g, s, t = _xgcd(a, b)
            p, q = a // g, b // g
            # Unimodular 2x2 transform on rows (piv, r); det = s*p + t*q = 1.
            h[piv], h[r] = (
                [s * x + t * y for x, y in zip(h[piv], h[r])],
                [-q * x + p * y for x, y in zip(h[piv], h[r])],
            )
            u[piv], u[r] = (
                [s * x + t * y for x, y in zip(u[piv], u[r])],
                [-q * x + p * y for x, y in zip(u[piv], u[r])],
            )
        if h[piv][col] < 0:
            h[piv] = [-x for x in h[piv]]
            u[piv] = [-x for x in u[piv]]
        pv = h[piv][col]
        for r in range(piv):
            q = h[r][col] // pv
            if q != 0:
                h[r] = [x - q * y for x, y in zip(h[r], h[piv])]
                u[r] = [x - q * y for x, y in zip(u[r], u[piv])]
        piv += 1
    return IntegerMatrix(h), IntegerMatrix(u)


def reference_bareiss_forward(a: list, ncols: int) -> tuple[list[int], list, int]:
    """One-step fraction-free (Bareiss) elimination: one pass per pivot.

    The form the package's ``_bareiss_forward`` had before it took two
    pivots per pass; it returns the same (pivots, U, D).  Each pass
    replaces every row i below pivot row r, pivot p at column c, by
    (p * a[i][j] - a[i][c] * a[r][j]) // prev, where prev is the pivot
    before p; a row swap negates the row it displaces.
    """
    nr = len(a)
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        if a[r][col] == 0:
            sel = next((i for i in range(r + 1, nr) if a[i][col] != 0), None)
            if sel is None:
                continue
            a[r], a[sel] = a[sel], [-x for x in a[r]]
        prow = a[r]
        p = prow[col]
        tail = prow[col + 1 :]
        lead = [0] * (col + 1)
        for i in range(r + 1, nr):
            row = a[i]
            f = row[col]
            if f == 0 and p == prev:
                continue
            a[i] = lead + [(p * x - f * y) // prev for x, y in zip(row[col + 1 :], tail)]
        pivots.append(col)
        prev = p
    return pivots, a[: len(pivots)], prev


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant: the last pivot of the package's fraction-free
    elimination, which is the determinant for a square input of full rank.
    """
    if m.nrows != m.ncols:
        raise ValueError("determinant requires a square matrix")
    pivots, _, d = _bareiss_forward(list(m.rows), m.ncols)
    return d if len(pivots) == m.nrows else 0


def reference_rank(m: IntegerMatrix) -> int:
    """Rank as the number of nonzero rows of the Hermite normal form."""
    h, _ = hermite_normal_form(m)
    return sum(1 for row in h.rows if any(row))


def column_hnf(m: IntegerMatrix) -> IntegerMatrix:
    """Canonical basis of the column lattice of M, as matrix columns.

    The nonzero rows of the Hermite normal form of M^T, transposed, or a
    single zero column when the lattice is trivial.  Two matrices have
    equal column lattices iff their forms are identical.
    """
    if m.ncols:
        h, _ = hermite_normal_form(transpose(m))
        nonzero = [row for row in h.rows if any(row)]
        if nonzero:
            return transpose(IntegerMatrix(nonzero))
    return IntegerMatrix([(0,)] * m.nrows)


def reference_kernel(m: IntegerMatrix) -> IntegerMatrix:
    """Kernel from the unimodular HNF transform of M^T, then column_hnf.

    The rows of U that face zero rows of H = U M^T span the whole kernel
    lattice because U is unimodular.  Exact but slow: U is n x n and its
    entries swell with n.
    """
    h, u = hermite_normal_form(transpose(m))
    kernel_rows = [ur for hr, ur in zip(h.rows, u.rows) if not any(hr)]
    if not kernel_rows:
        return IntegerMatrix([()] * m.ncols)
    return column_hnf(transpose(IntegerMatrix(kernel_rows)))


def _triangular_basis_mod(gens: list[list[int]], d: int, r: int) -> list[list[int]]:
    """Triangular basis t_0..t_{r-1} of the lattice spanned by gens and d*Z^r.

    t_j is zero before position j and has a positive divisor of d at j.
    Since every d*e_k lies in the lattice, all other entries are reduced
    mod d, so nothing swells.
    """
    rest = [[x % d for x in g] for g in gens]
    basis = []
    for j in range(r):
        piv = [0] * r
        piv[j] = d
        left = []
        for g in rest:
            gj = g[j]
            if gj:
                pj = piv[j]
                if gj % pj == 0:
                    # The usual case once the pivot has shrunk to a gcd.
                    q = gj // pj
                    g = [(y - q * x) % d for x, y in zip(piv, g)]
                else:
                    # The new pivot gcd(pj, gj) <= gj < d survives mod d.
                    h, s, t = _xgcd(pj, gj)
                    p, q = pj // h, gj // h
                    piv, g = (
                        [(s * x + t * y) % d for x, y in zip(piv, g)],
                        [(p * y - q * x) % d for x, y in zip(piv, g)],
                    )
            if any(g[j + 1 :]):
                left.append(g)
        basis.append(piv)
        rest = left
    return basis


def kernel_lattice_basis(m: IntegerMatrix) -> IntegerMatrix:
    """Canonical basis of the saturated integer kernel {v : M v = 0}, as columns.

    A generator of kernels of any corank: the tests build A = ker(B^T)^T
    with it for up to 40 Gale rows B, where ``reference_kernel`` is too
    slow.  M is eliminated forward from its last column to its
    first by the package's ``_bareiss_forward``, and
    ``_back_substitute`` gives one kernel vector K_f per free column f.
    These rows K span the rational kernel but may miss lattice points.
    With T a lower-triangular basis of the column lattice of K (K = T V
    for an integer V), the rows of S = T^-1 K span the whole kernel
    lattice: the maximal minors of S have gcd 1.  That lattice contains
    |D|*Z^r, so T is found mod |D|.  S is found by forward substitution
    with exact division, and ``column_hnf`` makes the basis canonical.
    A full-rank input yields a matrix with zero columns.
    """
    n = m.ncols
    pivots, u, d = _bareiss_forward([row[::-1] for row in m.rows], n)
    if len(pivots) == n:
        return IntegerMatrix([()] * n)
    k = _back_substitute(pivots, u, d, n)
    # Column j of T is t[j]; the other columns of K are D times unit vectors.
    t = _triangular_basis_mod([[v[p] for v in k] for p in pivots], abs(d), len(k))
    s: list[list[int]] = []
    for i, v in enumerate(k):
        for j in range(i):
            c = t[j][i]
            if c:
                v = [x - c * y for x, y in zip(v, s[j])]
        s.append(_divide_exactly(v, t[i][i]))
    return column_hnf(IntegerMatrix(zip(*[v[::-1] for v in reversed(s)])))


def reference_lagrange(k: IntegerMatrix) -> IntegerMatrix:
    """Lagrange reduction on the two columns themselves, as before the
    reduction ran on their Gram matrix.

    Every pass recomputes the dot product and the new norm over the full
    columns; the rounding, the swaps, the sign normalization and the
    column order are those of ``gale._lagrange_reduced_columns``.
    """
    v = list(column(k, 0))
    w = list(column(k, 1))

    def norm2(x):
        return sum(t * t for t in x)

    nv, nw = norm2(v), norm2(w)
    if nv > nw:
        v, w, nv, nw = w, v, nw, nv
    while True:
        t = sum(a * b for a, b in zip(v, w))
        q = (2 * t + nv) // (2 * nv)
        if q != 0:
            w = [a - q * b for a, b in zip(w, v)]
            nw = norm2(w)
        if nw < nv:
            v, w, nv, nw = w, v, nw, nv
        else:
            break

    def sign_fix(x):
        lead = next((t for t in x if t != 0), 0)
        return [-t for t in x] if lead < 0 else x

    v, w = sign_fix(v), sign_fix(w)
    if tuple(w) < tuple(v):
        v, w = w, v
    return IntegerMatrix([[a, b] for a, b in zip(v, w)])


def reference_is_positively_graded(b: GaleConfiguration) -> bool:
    """Grading by an angle sort, as before the one-pass test.

    Deduplicates the primitive directions, sorts them by exact angle and
    requires every counterclockwise gap between neighbours to be below
    pi.
    """
    dirs = sorted(
        {primitive(row) for row in b.rows}, key=functools.cmp_to_key(reference_angle_cmp)
    )
    if len(dirs) < 2:
        return False
    for i, d in enumerate(dirs):
        nxt = dirs[(i + 1) % len(dirs)]
        if cross(d, nxt) <= 0:
            return False
    return True


def reference_bouquets(b) -> list[Bouquet]:
    """Bouquets by dot-product signs and a final sort, as before the one pass."""
    groups: dict = {}
    for i, row in enumerate(b.rows):
        d = sign_canonical(primitive(row))
        groups.setdefault(d, []).append(i)
    out = []
    for d, members in groups.items():
        rows = [b.rows[i] for i in members]
        signs = {1 if x * d[0] + y * d[1] > 0 else -1 for x, y in rows}
        out.append(Bouquet(members=frozenset(members), direction=d, mixed=len(signs) == 2))
    out.sort(key=lambda bq: min(bq.members))
    return out


def reference_binomial(z) -> Binomial:
    """The canonical binomial of one int vector, built and checked alone.

    The per-vector construction the package used before it built whole
    batches coordinate-wise: the positive and negative parts of z, the
    lex-greater one as ``plus``, validated by the public constructor.
    ValueError with the package's text if z is zero.
    """
    plus = tuple([x if x > 0 else 0 for x in z])
    minus = tuple([-x if x < 0 else 0 for x in z])
    if plus <= minus:
        # Disjoint supports: the parts are equal only when both are zero.
        if plus == minus:
            raise ValueError("zero vector yields no binomial")
        plus, minus = minus, plus
    return Binomial(plus=plus, minus=minus)


def binomial_from_vector(z) -> Binomial:
    """Canonical binomial of a nonzero integer vector, by the package's
    unchecked batch builder on a batch of one."""
    coords = [[index(x)] for x in z]
    if not coords:
        raise ValueError("zero vector yields no binomial")
    return _trusted_binomials(coords)[0]


def binomial_from_gale(b, u) -> Binomial:
    """Binomial of the kernel vector B u, in canonical sign."""
    x, y = index(u[0]), index(u[1])
    if x == 0 and y == 0:
        raise ValueError("u must be nonzero")
    return _gale_binomials(b, [(x, y)])[0]


def lawrence_lifting(a: IntegerMatrix) -> IntegerMatrix:
    """Block matrix [[A, 0], [I, I]] whose kernel pairs u with -u."""
    n = a.ncols
    rows = [list(r) + [0] * n for r in a.rows]
    for i in range(n):
        ident = [0] * (2 * n)
        ident[i] = 1
        ident[n + i] = 1
        rows.append(ident)
    return IntegerMatrix(rows)


def reference_binomials(b, vectors) -> frozenset[Binomial]:
    """One checked Binomial per fan vector, u and -u each built apart."""
    return frozenset(reference_binomial(kernel_vector(b, u)) for u in vectors)


def reference_box_scan(rows, radius: int) -> list[tuple[int, int]]:
    """The oracle's box scan with tuple parts, as before they were packed.

    Primitive u in [-radius, radius]^2, sorted by (|B u|_1, u1, u2), are
    kept when no kept vector's (z+, z-) is componentwise below theirs;
    unbounded ints make it exact for entries of any size.
    """
    cands = []
    for u1 in range(-radius, radius + 1):
        for u2 in range(-radius, radius + 1):
            if u1 == 0 and u2 == 0:
                continue
            if gcd(abs(u1), abs(u2)) != 1:
                continue  # B(u/g) dominates B(u)
            norm = 0
            for (bx, by) in rows:
                norm += abs(bx * u1 + by * u2)
            cands.append((norm, u1, u2))
    cands.sort()
    accepted_vals: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    accepted_u: list[tuple[int, int]] = []
    for _, u1, u2 in cands:
        z = [bx * u1 + by * u2 for (bx, by) in rows]
        zp = tuple(x if x > 0 else 0 for x in z)
        zm = tuple(-x if x < 0 else 0 for x in z)
        dominated = False
        for gp, gm in accepted_vals:
            if all(a <= b for a, b in zip(gp, zp)) and all(
                a <= b for a, b in zip(gm, zm)
            ):
                dominated = True
                break
        if not dominated:
            accepted_vals.append((zp, zm))
            accepted_u.append((u1, u2))
    return accepted_u


class FiberEnumeration(_Value):
    """All nonnegative vectors sharing the image A target."""

    __slots__ = ()
    _fields = ("target", "points")


def enumerate_fiber(b, v) -> FiberEnumeration:
    """Fiber of a nonnegative vector v, by the oracle's column walk.

    Every fiber element is v - B alpha for a unique integer alpha with
    B alpha <= v componentwise: a lattice point of that polygon.  Raises
    GradingError for ungraded configurations.
    """
    vt = tuple(map(index, v))
    return FiberEnumeration(target=vt, points=frozenset(_fiber_walk(_fiber_rows(b), vt)))


def reference_enumerate_fiber(b, v) -> frozenset[tuple[int, ...]]:
    """Fiber points by polygon vertices and a bounding box, as before the walk.

    Intersects every pair of rows of {alpha : B alpha <= v} in exact
    fractions, keeps the intersections that satisfy every row, and tests
    each integer point of the vertices' bounding box against every row.
    The caller checks the grading; a bounded polygon containing alpha = 0
    has vertices.
    """
    rows = b.rows
    verts = []
    for i, j in itertools.combinations(range(len(rows)), 2):
        d = cross(rows[i], rows[j])
        if d == 0:
            continue
        x = Fraction(v[i] * rows[j][1] - v[j] * rows[i][1], d)
        y = Fraction(rows[i][0] * v[j] - rows[j][0] * v[i], d)
        if all(p * x + q * y <= t for (p, q), t in zip(rows, v)):
            verts.append((x, y))
    xs = [x for x, _ in verts]
    ys = [y for _, y in verts]
    points = set()
    for a1 in range(math.ceil(min(xs)), math.floor(max(xs)) + 1):
        for a2 in range(math.ceil(min(ys)), math.floor(max(ys)) + 1):
            if all(p * a1 + q * a2 <= t for (p, q), t in zip(rows, v)):
                points.add(tuple(t - p * a1 - q * a2 for (p, q), t in zip(rows, v)))
    return frozenset(points)


def _reference_cones(dirs) -> list[Cone2D]:
    """Checked cones between consecutive directions, with the fan's errors."""
    if len(dirs) < 3:
        raise GradingError(
            f"only {len(dirs)} distinct directions; the fan cannot cover the plane"
        )
    cones = []
    for i, d in enumerate(dirs):
        nxt = dirs[(i + 1) % len(dirs)]
        if cross(d, nxt) <= 0:
            raise GradingError(
                f"consecutive directions {d} and {nxt} span an angle >= pi; "
                "the configuration is not positively graded"
            )
        cones.append(Cone2D(d, nxt))
    return cones


def reference_fan_union(dirs) -> HilbertBasisSet:
    """Fan union assembled by sorting, as before unions kept walk order.

    One Hilbert basis per consecutive cone, a provenance dict filled cone
    by cone, then an exact angle sort of the distinct vectors.  Raises
    the same GradingError texts as the fan code.
    """
    cones = _reference_cones(dirs)
    prov: dict = {}
    for idx, cone in enumerate(cones):
        for v in hilbert_basis(cone):
            prov.setdefault(v, []).append(idx)
    vectors = tuple(sorted(prov, key=functools.cmp_to_key(reference_angle_cmp)))
    return HilbertBasisSet(
        vectors=vectors,
        provenance=tuple((v, tuple(prov[v])) for v in vectors),
        cones=tuple(cones),
    )


def reference_symmetric_directions(config) -> tuple[tuple[int, int], ...]:
    """The distinct directions of {±rows}, by an exact angle sort."""
    doubled = set(config.rows) | {(-x, -y) for x, y in config.rows}
    return tuple(sorted(doubled, key=functools.cmp_to_key(reference_angle_cmp)))


def reference_half_turn(config) -> list[tuple[int, int]]:
    """The symmetrized fan's half-turn, walked cone by cone on that fan.

    The package's construction before the half-turn was read off the
    plain union: sort {±rows} by angle into d0..d(k-1) in [0, pi) and
    their negations, build and check all 2k cones, and walk cones
    0..k-1, whose chains without their first vectors run from just after
    d0 to -d0.
    """
    cones = _reference_cones(reference_symmetric_directions(config))
    half: list[tuple[int, int]] = []
    for cone in cones[: len(cones) // 2]:
        half.extend(hilbert_basis(cone)[1:])
    return half


def full_turn(half) -> list[tuple[int, int]]:
    """A half-turn of a centrally symmetric fan union, then its negations."""
    return list(half) + [(-x, -y) for x, y in half]


def assert_half_turn_of(half, union: HilbertBasisSet) -> None:
    """``half`` is one half-turn of the centrally symmetric ``union``.

    With d0 = -half[-1], every other vector lies strictly counterclockwise
    of d0 and each step turns counterclockwise, so ``half`` runs in
    increasing angle over the half-open half-turn after d0, where no
    vector meets its negation.  With its negations it is the union's
    vector set.
    """
    assert isinstance(half, list) and half
    d0 = (-half[-1][0], -half[-1][1])
    assert all(cross(d0, v) > 0 for v in half[:-1])
    assert all(cross(u, v) > 0 for u, v in zip(half, half[1:]))
    assert set(full_turn(half)) == set(union.vectors)


def segment_lattice_points(u, w):
    """All lattice points on the closed segment [u, w], endpoints included."""
    dx, dy = w[0] - u[0], w[1] - u[1]
    if dx == 0 and dy == 0:
        return [u]
    g = gcd(abs(dx), abs(dy))
    sx, sy = dx // g, dy // g
    return [(u[0] + k * sx, u[1] + k * sy) for k in range(g + 1)]


def _ccw_in_cone(vectors):
    # Inside one pointed cone the angular span is < pi, so the plain cross
    # product is a strict total order.
    return sorted(
        vectors,
        key=functools.cmp_to_key(lambda p, q: -1 if cross(p, q) > 0 else 1),
    )


def _cone_parallelepiped_points(cone):
    """Nonzero lattice points of the cone inside conv{0, a, b, a+b}.

    Row-wise interval scan: for each x the two cross-product constraints
    are linear in y, so the admissible y form an interval computed with
    exact ceil/floor divisions.
    """
    ax, ay = cone.a
    bx, by = cone.b
    det = cross(cone.a, cone.b)
    xs = (0, ax, bx, ax + bx)
    ys = (0, ay, by, ay + by)
    pts = []
    for x in range(min(xs), max(xs) + 1):
        # 0 <= ax*y - ay*x <= det  and  0 <= x*by - y*bx <= det, i.e. two
        # constraints of the form coef*y in [base, base + det].
        bounds_lo = []
        bounds_hi = []
        feasible = True
        for coef, base in ((ax, ay * x), (-bx, -x * by)):
            if coef > 0:
                bounds_lo.append(-(-base // coef))          # ceil(base/coef)
                bounds_hi.append((base + det) // coef)      # floor
            elif coef < 0:
                bounds_lo.append(-(-(base + det) // coef))
                bounds_hi.append(base // coef)
            elif not (base <= 0 <= base + det):
                feasible = False
        if not feasible:
            continue
        lo = max(bounds_lo) if bounds_lo else min(ys)
        hi = min(bounds_hi) if bounds_hi else max(ys)
        for y in range(lo, hi + 1):
            if x == 0 and y == 0:
                continue
            c1 = ax * y - ay * x
            c2 = x * by - y * bx
            if 0 <= c1 <= det and 0 <= c2 <= det:
                pts.append((x, y))
    return pts


def hilbert_basis_visible(cone):
    """Hilbert basis via the hull boundary visible from the origin.

    A reference independent of the Hirzebruch–Jung walk in
    ``hilbert_basis``: take the convex hull of the nonzero cone lattice
    points in the bounding parallelepiped, keep the hull edges whose
    supporting line strictly separates the polygon from the origin, and
    collect all lattice points on those edges.  It scans the whole
    parallelepiped, so it suits small cones only.
    """
    pts = _cone_parallelepiped_points(cone)
    hull = reference_convex_hull(pts)
    out = set()
    k = len(hull)
    for i in range(k):
        u = hull[i]
        w = hull[(i + 1) % k]
        # CCW hull: interior is to the left of u->w; the origin must lie
        # strictly to the right for the edge to face it.
        if cross((w[0] - u[0], w[1] - u[1]), (-u[0], -u[1])) < 0:
            out.update(segment_lattice_points(u, w))
    return tuple(_ccw_in_cone(out))


def reference_compact_json(value, indent: int = 0) -> str:
    """The CLI's document writer as it was with every scalar by json.dumps:
    indented like json.dumps, with lists of ints on one line."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{k}": {reference_compact_json(v, indent + 1)}' for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if all(isinstance(x, int) and not isinstance(x, bool) for x in value):
            return "[" + ", ".join(str(x) for x in value) + "]"
        items = [f"{pad}  {reference_compact_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return json.dumps(value)
