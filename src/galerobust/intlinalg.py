"""Exact integer linear algebra for corank 2: rank and the planar kernel.

Rank and kernel come from one forward fraction-free elimination in
Bareiss's two-step form (E. H. Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22,
1968): each pass takes two pivots and updates the rows below them once,
so it makes half the passes and divisions of the one-step form.  The
second pivot comes from the next column that has one; where no column
has, the rows below are zero after one step and the elimination stops.
Every division in it is exact by Sylvester's identity, so its entries
are minors of the input and never swell beyond the Hadamard bound, and
its result is the one-step form's, entry for entry.
`_planar_kernel` eliminates the columns from last to first and checks
the rank right after the elimination, before any back substitution.
Back substitution in the echelon form, with exact division, gives two
kernel vectors in echelon form that span the rational kernel but may
miss lattice points; one Hermite basis of a lattice in Z^2, found
modulo the last pivot, saturates them, and the result is the Hermite
normal form of the kernel lattice, a function of the kernel alone.

All arithmetic uses unbounded Python integers, so results are exact for
inputs of any magnitude; overflow cannot occur.  Matrices are immutable
value objects and safe to share between threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import gcd
from operator import mul

from ._value import _Value
from .errors import ConsistencyError, RankError


class IntegerMatrix(_Value):
    """Immutable dense matrix over the integers, a value keyed by its rows.

    Entries are validated to be plain Python ints (bools are rejected) so
    every operation stays exact.  Matrices must have at least one row,
    so that ``ncols`` is defined; the rows may be empty.
    """

    __slots__ = ()
    _fields = ("rows",)

    def __new__(cls, rows: Iterable[Sequence[int]]):
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
        return super().__new__(cls, tuple(packed))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"IntegerMatrix([{body}])"


def _bareiss_forward(
    a: list[Sequence[int]], ncols: int
) -> tuple[list[int], list[Sequence[int]], int]:
    """Forward fraction-free (Bareiss) elimination of the rows a, two pivots a pass.

    Returns (pivots, U, D): the pivot column of each nonzero row, the
    nonzero rows U of the echelon form, and the last pivot D.  U[i] is
    zero before pivots[i], and U[i][pivots[i]] is a leading minor of the
    row-permuted input, so D is the common denominator of the reduced row
    echelon form; D is 1 when the input is zero.  Each row swap also
    negates a row, so for a square input of full rank D is its
    determinant.  The list a is reordered and updated in place; no row
    in it is modified.

    A pass starts at pivot row r, pivot p at column c, with prev the
    pivot before p (1 at the start).  The one-step entry of row i in
    column c' > c is e_i = (p a[i][c'] - a[i][c] a[r][c']) / prev.  The
    second pivot q is the first nonzero e_i, searched column by column
    from c+1 and, within a column, row by row below r; its row is
    swapped up to r+1, negating the row it displaces.  Row r+1 takes its
    one-step update, and with b the row r+1 before it, each row i > r+1
    takes its two-step value in one step:

        a[i][j] = (q a[i][j] + g_i a[r][j] - e_i b[j]) / prev,
        g_i = (a[i][c'] b[c] - b[c'] a[i][c]) / prev.

    By Sylvester's identity e_i, g_i and the new entries are minors of
    the row-permuted input, so every division is exact, and (pivots, U,
    D) is what the one-step form returns, entry for entry (both are zero
    in columns c+1 .. c'-1).  Where no column holds a second pivot, every
    row below r is zero after one step, and the elimination stops.
    """
    nr = len(a)
    pivots: list[int] = []
    prev = 1
    col = 0
    while col < ncols:
        r = len(pivots)
        if r == nr:
            break
        # Row r itself is the usual pivot row; search below it only if not.
        if a[r][col] == 0:
            sel = next((i for i in range(r + 1, nr) if a[i][col] != 0), None)
            if sel is None:
                col += 1
                continue
            a[r], a[sel] = a[sel], [-x for x in a[r]]
        prow = a[r]
        p = prow[col]
        # The rows below the pivot are zero before col; the second pivot q
        # is the first nonzero one-step entry e_s, column by column from col + 1.
        q = 0
        for c1 in range(col + 1, ncols):
            y0 = prow[c1]
            for s in range(r + 1, nr):
                row = a[s]
                q = (p * row[c1] - row[col] * y0) // prev
                if q:
                    break
            if q:
                break
        if not q:
            # Every row below r is zero after one step.
            pivots.append(col)
            return pivots, a[: r + 1], p
        if s > r + 1:
            a[r + 1], a[s] = a[s], [-x for x in a[r + 1]]
        # Row r+1 takes its one-step update, with pivot q at c1; each row
        # below goes straight to its two-step value, read off rows r and
        # r+1 as they were before this pass.
        b = a[r + 1]
        f, h = b[col], b[c1]
        tail = prow[c1 + 1 :]
        btail = b[c1 + 1 :]
        lead = [0] * (c1 + 1)
        a[r + 1] = lead[:c1] + [q] + [(p * x - f * y) // prev for x, y in zip(btail, tail)]
        a[r + 2 :] = [
            lead
            + [(q * x + g * y - e * z) // prev for x, y, z in zip(row[c1 + 1 :], tail, btail)]
            for row in a[r + 2 :]
            for e in [(p * row[c1] - row[col] * y0) // prev]
            for g in [(row[c1] * f - h * row[col]) // prev]
        ]
        pivots += (col, c1)
        prev = q
        col = c1 + 1
    return pivots, a[: len(pivots)], prev


def rank(m: IntegerMatrix) -> int:
    """Rank over the rationals, computed exactly."""
    return len(_bareiss_forward(list(m.rows), m.ncols)[0])


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
    ConsistencyError); in column order it has no entry past f, so the
    vectors, in reversed column order, are in echelon form.
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


def _planar_kernel(m: IntegerMatrix) -> tuple[list[int], list[int]]:
    """Hermite normal form (h0, h1) of the saturated integer kernel of M.

    h0 leads at the first position where the kernel is nonzero, with the
    least positive entry any kernel vector has there; h1 is zero up to
    its own positive lead, and h0 is reduced there into [0, that lead).
    Raises RankError, right after the forward elimination, unless M has
    rank ncols - 2.  M is eliminated from its last column to its first,
    so the back-substituted k0, k1, reversed, are in echelon form: k1
    leads with D and is zero where k0 leads with D.  The pairs
    (k0[j], k1[j]) span a lattice L in Z^2 that holds |D|*Z^2, so its
    Hermite basis (a, b), (0, c), the columns of T, starts from
    a = c = |D|.  Where a does not divide the next first entry x, it
    takes a unimodular step by the Bezout pair of g = gcd(a, x) with
    t = pow(x/g, -1, a/g); any other pair moves b by a multiple of the
    new y, which the new c divides.  The rows of T^-1 (k0, k1), found by
    exact division, span the whole kernel lattice: their 2x2 minors
    have gcd 1.  With a and c given the sign of D and b reduced so that
    -b/c lies in [0, 1), they are h1 and h0, reversed.
    """
    n = m.ncols
    pivots, u, d = _bareiss_forward([row[::-1] for row in m.rows], n)
    if len(pivots) != n - 2:
        raise RankError(f"rank {len(pivots)} != ncols - 2 = {n - 2}; kernel is not planar")
    k0, k1 = _back_substitute(pivots, u, d, n)
    a = c = abs(d)
    b = 0
    for x, y in zip(k0, k1):
        if x % a:
            # Bezout s*a + t*x = g; the step on (a, b), (x, y) leaves (g, b'), (0, y').
            g = gcd(a, x)
            t = pow(x // g, -1, a // g)
            s = (g - t * x) // a
            a, b, y = g, (s * b + t * y) % c, (a // g) * y - (x // g) * b
        else:
            y -= x // a * b
        c = gcd(c, y)
    if d < 0:
        a, b, c = -a, -b, -c
    b = -(-b % c)
    s0 = _divide_exactly(k0, a)
    s1 = _divide_exactly([y - b * x for x, y in zip(s0, k1)], c)
    return s1[::-1], s0[::-1]
