"""Pure-Python reference implementation of the oracle's box scan.

This is the semantics of record: the compiled variant in ``_native``
must return exactly the same set.  Unbounded Python integers make this
path correct for inputs of any magnitude.
"""

from __future__ import annotations

from math import gcd


def graver_box_scan(
    rows: list[tuple[int, int]], radius: int
) -> list[tuple[int, int]]:
    """u in [-radius, radius]^2 whose kernel vector B u divides no smaller one.

    A vector z = B u is kept iff no other nonzero u' in the box yields z'
    with z'+ <= z+ and z'- <= z- componentwise.  Candidates are processed
    by increasing 1-norm of z; a vector then only needs to be tested
    against the already-accepted minimal ones, because any dominator is
    itself dominated by an accepted element of strictly smaller norm.
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
