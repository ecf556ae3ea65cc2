"""Exact integer linear algebra: rank, Hermite normal form, kernel lattices.

Rank, determinant and kernels come from one forward fraction-free
(Bareiss) elimination: it updates only the rows below each pivot, and
every division in it is exact by Sylvester's identity, so its entries
are minors of the input and never swell beyond the Hadamard bound.
Back substitution in the echelon form, with exact division, gives a
kernel basis of full rank that may miss lattice points; one triangular
solve against a basis of its column lattice, found modulo the last
pivot, saturates it.  In `kernel_lattice_basis` (any corank), run
from the last column to the first, this leaves that basis in echelon
form, so its canonical Hermite form costs only the reduction above the
pivots.  The Gale path takes `_planar_kernel` instead: it checks the
rank right after the elimination, before any back substitution, and
saturates the two kernel vectors with one Hermite basis of a lattice in
Z^2, leaving canonical form to the caller.  `column_hnf` is the one
Hermite normal form here; it carries no unimodular transform.

All arithmetic uses unbounded Python integers, so results are exact for
inputs of any magnitude; overflow cannot occur.  Matrices are immutable
value objects and safe to share between threads.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, Sequence

from ._value import _Value
from .errors import ConsistencyError, RankError

IntVec = tuple[int, ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class IntegerMatrix(_Value):
    """Immutable dense matrix over the integers, a value keyed by its rows.

    Entries are validated to be plain Python ints (bools are rejected) so
    every operation stays exact.  Matrices must have at least one row;
    zero-column matrices are permitted because kernels of full-rank maps
    are legitimately trivial.  ``IntegerMatrix._trusted`` wraps rows the
    library computed itself, a nonempty tuple of int tuples, and skips
    these checks.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        packed = []
        width = None
        for row in rows:
            t = tuple(row)
            for x in t:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"matrix entries must be ints, got {x!r}")
            if width is None:
                width = len(t)
            elif len(t) != width:
                raise ValueError("ragged rows in matrix")
            packed.append(t)
        if not packed:
            raise ValueError("matrix needs at least one row")
        super().__init__(tuple(packed))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def row(self, i: int) -> IntVec:
        return self.rows[i]

    def column(self, j: int) -> IntVec:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "IntegerMatrix":
        if not self.ncols:
            raise ValueError("matrix needs at least one row")
        return IntegerMatrix._trusted(tuple(zip(*self.rows)))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: ({self.nrows}x{self.ncols}) @ ({other.nrows}x{other.ncols})"
            )
        cols = tuple(zip(*other.rows))
        return IntegerMatrix._trusted(
            tuple(tuple([sum(map(mul, r, c)) for c in cols]) for r in self.rows)
        )

    def apply(self, vec: Sequence[int]) -> IntVec:
        """Matrix-vector product M @ v as a tuple."""
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(r[k] * vec[k] for k in range(self.ncols)) for r in self.rows)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"IntegerMatrix([{body}])"


def _bareiss_forward(
    a: list[Sequence[int]], ncols: int
) -> tuple[list[int], list[Sequence[int]], int]:
    """Forward fraction-free (Bareiss) elimination of the rows a.

    Returns (pivots, U, D): the pivot column of each nonzero row, the
    nonzero rows U of the echelon form, and the last pivot D.  U[i] is
    zero before pivots[i], and U[i][pivots[i]] is a leading minor of the
    row-permuted input, so D is the common denominator of the reduced row
    echelon form; D is 1 when the input is zero.  Each row swap also
    negates a row, so for a square input of full rank D is its
    determinant.  The list a is reordered and updated in place; no row
    in it is modified.
    """
    nr = len(a)
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        # Row r itself is the usual pivot row; search below it only if not.
        if a[r][col] == 0:
            sel = next((i for i in range(r + 1, nr) if a[i][col] != 0), None)
            if sel is None:
                continue
            a[r], a[sel] = a[sel], [-x for x in a[r]]
        prow = a[r]
        p = prow[col]
        tail = prow[col + 1 :]
        # The rows below the pivot are zero before col.
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


def rank(m: IntegerMatrix) -> int:
    """Rank over the rationals, computed exactly."""
    return len(_bareiss_forward(list(m.rows), m.ncols)[0])


def column_hnf(m: IntegerMatrix) -> IntegerMatrix:
    """Canonical basis of the column lattice of M, as matrix columns.

    The nonzero rows of the row Hermite normal form of M^T, transposed:
    pivots positive, entries above each pivot reduced into [0, pivot).
    Each column is cleared below its pivot by unimodular 2x2 steps on
    row pairs; no transform is carried.  Two matrices have equal column
    lattices iff their column_hnf forms are identical, which makes this
    a convenient lattice equality test.
    """
    h = [list(c) for c in zip(*m.rows)]
    nr = len(h)
    piv = 0
    for col in range(m.nrows):
        if piv >= nr:
            break
        sel = next((r for r in range(piv, nr) if h[r][col] != 0), None)
        if sel is None:
            continue
        if sel != piv:
            h[piv], h[sel] = h[sel], h[piv]
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
        if h[piv][col] < 0:
            h[piv] = [-x for x in h[piv]]
        pv = h[piv][col]
        for r in range(piv):
            q = h[r][col] // pv
            if q != 0:
                h[r] = [x - q * y for x, y in zip(h[r], h[piv])]
        piv += 1
    if not piv:
        # The column lattice is trivial; encode as a single zero column.
        return IntegerMatrix._trusted(((0,),) * m.nrows)
    # Rows from piv on are zero: every column either has a pivot or is
    # zero in all of them.
    return IntegerMatrix._trusted(tuple(zip(*h[:piv])))


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


def _inexact(d: int) -> ConsistencyError:
    return ConsistencyError(
        f"division by {d} left a remainder; the lattice basis behind it is wrong"
    )


def _divide_exactly(v: list[int], d: int) -> list[int]:
    """v / d entrywise; the lattice argument of the caller says it is exact."""
    q, rem = zip(*map(divmod, v, [d] * len(v)))
    if any(rem):
        raise _inexact(d)
    return list(q)


def _back_substitute(
    pivots: list[int], u: list[Sequence[int]], d: int, n: int
) -> list[list[int]]:
    """Kernel vectors K_f of the echelon form (pivots, U, D), one per free column f.

    K_f has D at f and 0 at the other free columns.  From the last pivot
    up, at pivot p of row i, K_f[p] = -(sum over j > p of U[i][j] K_f[j])
    / U[i][p]: one dot product and one divmod per pivot row and vector.
    K_f is D times a rational kernel vector, so by Cramer's rule it is
    integral and every division is exact (a remainder raises
    ConsistencyError); in column order it has no entry past f.
    """
    pivot_set = set(pivots)
    k = []
    for f in range(n):
        if f not in pivot_set:
            v = [0] * n
            v[f] = d
            k.append(v)
    for row, p in zip(reversed(u), reversed(pivots)):
        rest = row[p + 1 :]
        lead = row[p]
        for v in k:
            x, rem = divmod(-sum(map(mul, rest, v[p + 1 :])), lead)
            if rem:
                raise _inexact(lead)
            v[p] = x
    return k


def kernel_lattice_basis(m: IntegerMatrix) -> IntegerMatrix:
    """Basis of the saturated integer kernel {v : M v = 0}, as columns.

    M is eliminated forward from its last column to its first, to an
    echelon form U with last pivot D, and back substitution gives one
    kernel vector K_f per free column f (``_back_substitute``).
    These rows K span the rational kernel but may miss lattice points.
    With T a lower-triangular basis of the column lattice of K (K = T V
    for an integer V), the rows of S = T^-1 K span the whole kernel
    lattice: the maximal minors of S have gcd 1.  That lattice contains
    |D|*Z^r, so T is found mod |D|, with an xgcd step only where a pivot
    does not divide the entry below it.  S is found by forward substitution
    with exact division, so row i of S still ends at the i-th free column.
    Back in the original column order the rows of S, last to first, are
    in echelon form, and column_hnf only has to reduce above the pivots.
    Equal kernels thus always produce identical matrices.  A full-rank
    input yields a matrix with zero columns.
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
    return column_hnf(IntegerMatrix._trusted(tuple(zip(*[v[::-1] for v in reversed(s)]))))


def _planar_kernel(m: IntegerMatrix) -> tuple[list[int], list[int]]:
    """Two columns, as lists, that span the saturated integer kernel of M.

    Raises RankError, right after the forward elimination, unless M has
    rank ncols - 2.  Back substitution gives the two kernel vectors
    k0, k1; the pairs (k0[j], k1[j]) span a lattice L in Z^2 that holds
    |D|*Z^2, so its Hermite basis (a, b), (0, c), the columns of T,
    starts from a = c = |D| and takes an xgcd step only where a does not
    divide the next first entry; b stays reduced mod c.  The rows of
    T^-1 (k0, k1), found by exact division, span the whole kernel
    lattice, as in kernel_lattice_basis, but the basis is not canonical.
    """
    n = m.ncols
    pivots, u, d = _bareiss_forward(list(m.rows), n)
    if len(pivots) != n - 2:
        raise RankError(f"rank {len(pivots)} != ncols - 2 = {n - 2}; kernel is not planar")
    k0, k1 = _back_substitute(pivots, u, d, n)
    a = c = abs(d)
    b = 0
    for x, y in zip(k0, k1):
        if x % a:
            g, s, t = _xgcd(a, x)
            # Unimodular step on the pair (a, b), (x, y); it leaves (g, b'), (0, y').
            a, b, y = g, (s * b + t * y) % c, (a // g) * y - (x // g) * b
        else:
            y -= x // a * b
        c = gcd(c, y)
    b %= c
    s0 = _divide_exactly(k0, a)
    s1 = _divide_exactly([y - b * x for x, y in zip(s0, k1)], c)
    return s0, s1
