"""Exact integer linear algebra: rank, Hermite normal form, kernel lattices.

Rank, determinant and kernels come from one fraction-free Gauss-Jordan
(Bareiss) elimination: every division in it is exact by Sylvester's
identity, so its entries are minors of the input and never swell beyond
the Hadamard bound.  The elimination gives a kernel basis of full rank
that may miss lattice points; one triangular solve against a basis of
its column lattice, found modulo the common pivot, saturates it.  Run
from the last column to the first, it leaves that basis in echelon
form, so its canonical Hermite form costs only the reduction above the
pivots.  `hermite_normal_form`, which carries a unimodular transform,
serves callers that need the transform.

All arithmetic uses unbounded Python integers, so results are exact for
inputs of any magnitude; overflow cannot occur.  Matrices are immutable
value objects and safe to share between threads.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ConsistencyError

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


class IntegerMatrix:
    """Immutable dense matrix over the integers.

    Entries are validated to be plain Python ints (bools are rejected) so
    every operation stays exact.  Matrices must have at least one row;
    zero-column matrices are permitted because kernels of full-rank maps
    are legitimately trivial.
    """

    __slots__ = ("_rows",)

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
        self._rows = tuple(packed)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> tuple[IntVec, ...]:
        return self._rows

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    def row(self, i: int) -> IntVec:
        return self._rows[i]

    def column(self, j: int) -> IntVec:
        return tuple(r[j] for r in self._rows)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            [[self._rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: ({self.nrows}x{self.ncols}) @ ({other.nrows}x{other.ncols})"
            )
        ocols = other.ncols
        return IntegerMatrix(
            [
                [
                    sum(self._rows[i][k] * other._rows[k][j] for k in range(self.ncols))
                    for j in range(ocols)
                ]
                for i in range(self.nrows)
            ]
        )

    def apply(self, vec: Sequence[int]) -> IntVec:
        """Matrix-vector product M @ v as a tuple."""
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(r[k] * vec[k] for k in range(self.ncols)) for r in self._rows)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._rows for x in row)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntegerMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"IntegerMatrix([{body}])"


def hermite_normal_form(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U @ M = H, pivots positive, entries
    above each pivot reduced into [0, pivot), and zero rows last.  The
    form H is the canonical representative of the row lattice of M.
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


def _bareiss_rref(m: IntegerMatrix) -> tuple[list[int], list[list[int]], int]:
    """Fraction-free Gauss-Jordan elimination of M.

    Returns (pivots, R, D): the pivot column of each nonzero row, the
    nonzero rows R of the reduced form, and the common pivot D.  Row i of
    R has D in column pivots[i] and 0 in every other pivot column, so R/D
    is the reduced row echelon form of M.  D is 1 when M is zero.  Each
    row swap also negates a row, so for a square M of full rank D is the
    determinant of M.
    """
    a = [list(r) for r in m.rows]
    nr = len(a)
    pivots: list[int] = []
    prev = 1
    for col in range(m.ncols):
        r = len(pivots)
        if r == nr:
            break
        sel = next((i for i in range(r, nr) if a[i][col] != 0), None)
        if sel is None:
            continue
        if sel != r:
            a[r], a[sel] = a[sel], [-x for x in a[r]]
        prow = a[r]
        p = prow[col]
        tail = prow[col:]
        for i in range(nr):
            if i != r:
                row, f = a[i], a[i][col]
                # prow is zero before col, and so are the rows below it.
                head = [p * x // prev for x in row[:col]] if i < r else row[:col]
                a[i] = head + [(p * x - f * y) // prev for x, y in zip(row[col:], tail)]
        pivots.append(col)
        prev = p
    return pivots, a[: len(pivots)], prev


def rank(m: IntegerMatrix) -> int:
    """Rank over the rationals, computed exactly."""
    return len(_bareiss_rref(m)[0])


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant: the common pivot of the fraction-free elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant requires a square matrix")
    pivots, _, d = _bareiss_rref(m)
    return d if len(pivots) == m.nrows else 0


def column_hnf(m: IntegerMatrix) -> IntegerMatrix:
    """Canonical basis of the column lattice of M, as matrix columns.

    Computed as the transpose of the row HNF of the transpose, with zero
    rows dropped.  Two matrices have equal column lattices iff their
    column_hnf forms are identical, which makes this a convenient lattice
    equality test.
    """
    h = hermite_normal_form(m.transpose())[0].rows if m.ncols else ()
    nonzero = [row for row in h if any(x != 0 for x in row)]
    if not nonzero:
        # The column lattice is trivial; encode as a single zero column.
        return IntegerMatrix([[0] for _ in range(m.nrows)])
    return IntegerMatrix(nonzero).transpose()


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
            if g[j]:
                # The new pivot gcd(piv[j], g[j]) <= g[j] < d survives mod d.
                h, s, t = _xgcd(piv[j], g[j])
                p, q = piv[j] // h, g[j] // h
                piv, g = (
                    [(s * x + t * y) % d for x, y in zip(piv, g)],
                    [(p * y - q * x) % d for x, y in zip(piv, g)],
                )
            if any(g[j + 1 :]):
                left.append(g)
        basis.append(piv)
        rest = left
    return basis


def _divide_exactly(v: list[int], d: int) -> list[int]:
    """v / d entrywise; the lattice argument of the caller says it is exact."""
    q = [divmod(x, d) for x in v]
    if any(rem for _, rem in q):
        raise ConsistencyError(
            f"division by {d} left a remainder; the lattice basis behind it is wrong"
        )
    return [x for x, _ in q]


def kernel_lattice_basis(m: IntegerMatrix) -> IntegerMatrix:
    """Basis of the saturated integer kernel {v : M v = 0}, as columns.

    M is eliminated from its last column to its first.  In that order the
    elimination gives one kernel vector per free column f: D at f, minus
    column f of R at the pivots, and 0 elsewhere; it has no entry past f.
    These rows K span the rational kernel but may miss lattice points.
    With T a lower-triangular basis of the column lattice of K (K = T V
    for an integer V), the rows of S = T^-1 K span the whole kernel
    lattice: the maximal minors of S have gcd 1.  That lattice contains
    |D|*Z^r, so T is found mod |D|.  S is found by forward substitution
    with exact division, so row i of S still ends at the i-th free column.
    Back in the original column order the rows of S, last to first, are
    in echelon form, and column_hnf only has to reduce above the pivots.
    Equal kernels thus always produce identical matrices.  A full-rank
    input yields a matrix with zero columns.
    """
    n = m.ncols
    pivots, rr, d = _bareiss_rref(IntegerMatrix([row[::-1] for row in m.rows]))
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    if not free:
        return IntegerMatrix([()] * n)
    k = []
    for f in free:
        v = [0] * n
        v[f] = d
        for row, p in zip(rr, pivots):
            v[p] = -row[f]
        k.append(v)
    # Column j of T is t[j]; the pivot columns of K are -R restricted to free.
    t = _triangular_basis_mod([[row[f] for f in free] for row in rr], abs(d), len(free))
    s: list[list[int]] = []
    for i, v in enumerate(k):
        for j in range(i):
            c = t[j][i]
            if c:
                v = [x - c * y for x, y in zip(v, s[j])]
        s.append(_divide_exactly(v, t[i][i]))
    return column_hnf(IntegerMatrix([v[::-1] for v in reversed(s)]).transpose())
