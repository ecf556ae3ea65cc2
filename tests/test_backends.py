import os
import random
import subprocess
import sys

import pytest

from galerobust import _speed
from galerobust._speed import _pure

native = pytest.importorskip(
    "galerobust._speed._native", reason="compiled kernels not built"
)


def test_box_scan_parity():
    rng = random.Random(103)
    for _ in range(25):
        n = rng.randint(3, 6)
        rows = []
        while len(rows) < n:
            v = (rng.randint(-5, 5), rng.randint(-5, 5))
            if v != (0, 0):
                rows.append(v)
        radius = rng.randint(2, 8)
        got = sorted(native.graver_box_scan(rows, radius))
        want = sorted(_pure.graver_box_scan(rows, radius))
        assert got == want


def test_dispatch_routes_oversized_box_scan_to_pure():
    # Entries far beyond the int64 eligibility bound must still be exact:
    # the dispatcher has to fall back to the unbounded-integer kernel.
    big = 10**19
    rows = [(big, 1), (-big, 1), (1, -1), (-1, -1)]
    out = _speed.graver_box_scan(rows, 2)
    assert sorted(out) == sorted(_pure.graver_box_scan(rows, 2))
    norms = [abs(r[0] * u[0] + r[1] * u[1]) for u in out for r in rows]
    assert max(norms) > 2**63  # genuinely beyond int64


def test_env_var_forces_pure_backend():
    env = dict(os.environ, GALEROBUST_PURE="1")
    code = (
        "from galerobust import _speed; print(_speed.backend_name())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "pure"


def test_default_backend_is_native_when_built():
    if os.environ.get("GALEROBUST_PURE", "") not in ("", "0"):
        pytest.skip("pure backend forced via environment")
    assert _speed.backend_name() == "native"
