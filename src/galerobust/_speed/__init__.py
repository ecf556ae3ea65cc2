"""Backend selection for the oracle's box scan.

A compiled extension (``_native``, built from Cython) speeds up only
``graver_box_scan``, the brute-force oracle's inner loop.  It is used when
it is importable and the per-call operands are small enough that every
intermediate provably fits in a signed 64-bit integer.  Anything larger
is routed to the pure-Python kernel, which uses unbounded integers, so
no input can ever overflow silently.  Set the environment variable
``GALEROBUST_PURE=1`` to force the pure path.
"""

from __future__ import annotations

import os

from . import _pure

if os.environ.get("GALEROBUST_PURE", "") not in ("", "0"):
    _native = None
else:
    try:
        from . import _native  # type: ignore[attr-defined]
    except ImportError:
        _native = None

_BOX_VALUE_LIMIT = 1 << 60
_BOX_POINT_LIMIT = 1 << 22


def backend_name() -> str:
    return "native" if _native is not None else "pure"


def graver_box_scan(rows, radius: int) -> list[tuple[int, int]]:
    if _native is not None:
        maxb = max(max(abs(x), abs(y)) for x, y in rows)
        points = (2 * radius + 1) ** 2
        # Largest entry of B u is 2*maxb*radius; the 1-norm sums n of them.
        if (
            2 * maxb * radius * len(rows) < _BOX_VALUE_LIMIT
            and points <= _BOX_POINT_LIMIT
        ):
            return _native.graver_box_scan(list(rows), radius)
    return _pure.graver_box_scan(list(rows), radius)
