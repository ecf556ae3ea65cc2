"""Exact primitives for integer vectors in the plane.

Everything here works on plain ``(int, int)`` tuples with unbounded
Python integers; no floating point is used anywhere, so angular
comparisons and hull constructions are exact.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import index

Vec2 = tuple[int, int]


def cross(u: Sequence[int], v: Sequence[int]) -> int:
    """2D cross product u1*v2 - u2*v1."""
    return u[0] * v[1] - u[1] * v[0]


def _half(v: Sequence[int]) -> int:
    # 0 for angles in [0, pi), 1 for [pi, 2*pi).
    x, y = v
    if y > 0 or (y == 0 and x > 0):
        return 0
    return 1


def angle_cmp(u: Sequence[int], v: Sequence[int]) -> int:
    """Compare two nonzero vectors by angle in [0, 2*pi), exactly."""
    ux, uy = u
    vx, vy = v
    # _half(u) and _half(v): 0 for angles in [0, pi), 1 for [pi, 2*pi).
    hu = 0 if uy > 0 or (uy == 0 and ux > 0) else 1
    hv = 0 if vy > 0 or (vy == 0 and vx > 0) else 1
    if hu != hv:
        return -1 if hu < hv else 1
    # cross(u, v).
    c = ux * vy - uy * vx
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def convex_hull(points: Iterable[Sequence[int]]) -> list[Vec2]:
    """Vertices of the convex hull in counterclockwise order.

    Uses the monotone chain with exact integer arithmetic.  Collinear
    boundary points are dropped, so the result is the vertex set.
    Degenerate inputs return fewer than 3 points (a point or a segment).
    """
    pts = sorted({(index(p[0]), index(p[1])) for p in points})
    if len(pts) <= 2:
        return pts

    def half_chain(seq: list[Vec2]) -> list[Vec2]:
        chain: list[Vec2] = []
        for p in seq:
            px, py = p
            while len(chain) >= 2:
                (ax, ay), (bx, by) = chain[-2], chain[-1]
                # cross(b - a, p - b) > 0: a left turn at b keeps b.
                if (bx - ax) * (py - by) - (by - ay) * (px - bx) > 0:
                    break
                chain.pop()
            chain.append(p)
        return chain

    lower = half_chain(pts)
    upper = half_chain(pts[::-1])
    # On collinear points each chain is just the two end points.
    return lower[:-1] + upper[:-1]

