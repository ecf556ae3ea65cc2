"""Deterministic SVG rendering of a reduced Gale diagram.

Emits plain text with integer coordinates only: arrows for the reduced
rows, filled dots for the symmetric-core vectors, and the convex hull
outline.  No rendering library is involved, so output is byte-stable.
"""

from __future__ import annotations

from . import planar
from .planar import Vec2

_VIEW = 800
_MARGIN = 60


def render_svg(rows: tuple[Vec2, ...], core: tuple[Vec2, ...]) -> str:
    """SVG of the reduced ``rows`` as arrows, ``core`` as dots and the hull of ``rows``."""
    hull = planar.convex_hull(rows)
    extent = 1
    for (x, y) in list(rows) + list(core) + list(hull):
        extent = max(extent, abs(x), abs(y))
    unit = max(1, (_VIEW // 2 - _MARGIN) // extent)
    # At one pixel per unit the view widens to keep every point inside.
    side = 2 * max(_VIEW // 2, extent + _MARGIN)
    c = side // 2

    def px(p: Vec2) -> tuple[int, int]:
        return (c + unit * p[0], c - unit * p[1])

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW}" height="{_VIEW}" '
        f'viewBox="0 0 {side} {side}">'
    )
    out.append(
        '<defs><marker id="tip" markerWidth="10" markerHeight="8" refX="8" refY="4" '
        'orient="auto"><path d="M0,0 L8,4 L0,8 z" fill="#1a469c"/></marker></defs>'
    )
    out.append(f'<rect width="{side}" height="{side}" fill="white"/>')
    out.append(
        f'<line class="axis" x1="0" y1="{c}" x2="{side}" y2="{c}" '
        'stroke="#cccccc" stroke-width="1"/>'
    )
    out.append(
        f'<line class="axis" x1="{c}" y1="0" x2="{c}" y2="{side}" '
        'stroke="#cccccc" stroke-width="1"/>'
    )
    if hull:
        pts = " ".join(f"{px(p)[0]},{px(p)[1]}" for p in hull)
        out.append(
            f'<polygon class="hull" points="{pts}" fill="none" '
            'stroke="#999999" stroke-width="1" stroke-dasharray="6,4"/>'
        )
    for p in rows:
        x2, y2 = px(p)
        out.append(
            f'<line class="gale-arrow" x1="{c}" y1="{c}" x2="{x2}" y2="{y2}" '
            'stroke="#1a469c" stroke-width="2" marker-end="url(#tip)"/>'
        )
    for p in core:
        x2, y2 = px(p)
        out.append(f'<circle class="ha-dot" cx="{x2}" cy="{y2}" r="5" fill="#b22222"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
