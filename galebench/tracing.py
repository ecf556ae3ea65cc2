"""Layer spans traced from outside the program.

The tracer wraps the public boundary functions of each galerobust module
by rebinding the name in the module where the caller looks it up (for
example ``toric.gale_transform``, which is what ``is_strongly_robust``
calls), and puts every original back when it is closed.  Nothing in the
package is edited.

Each wrapped call records a span: name, layer, start, end, parent span
and op id.  Spans stay in memory until the run ends.  A span's self time
is its duration minus the time its child spans cover; the few hundred
nanoseconds the wrapper itself spends around a call are kept apart as
tracer bookkeeping, so that layer self times, bookkeeping and the op's
own glue add up to the op wall time exactly.

Work counts are computed from the arguments and results of the wrapped
calls, never from clocks, so two traced runs over the same inputs give
identical counts.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns

MARK = "__galebench_wrapper__"

# (module where the caller looks the name up, name, layer, metric group).
# The group is the per-layer time bucket the span's self time lands in.
TARGETS = (
    ("galerobust.gale", "rank", "intlinalg", "intlinalg.busy"),
    ("galerobust.gale", "kernel_lattice_basis", "intlinalg", "intlinalg.busy"),
    ("galerobust.toric", "gale_transform", "gale", "gale.self"),
    ("galerobust.toric", "reduce_configuration", "gale", "gale.reduce"),
    ("galerobust.toric", "bouquets", "gale", "gale.self"),
    ("galerobust.cli", "gale_transform", "gale", "gale.self"),
    ("galerobust.cli", "reduce_configuration", "gale", "gale.reduce"),
    ("galerobust.cli", "is_positively_graded", "gale", "gale.self"),
    ("galerobust.cli", "bouquets", "gale", "gale.self"),
    ("galerobust.oracle", "is_positively_graded", "gale", "gale.self"),
    ("galerobust.toric", "fan_hilbert_union", "hilbert", "hilbert.busy"),
    ("galerobust.toric", "symmetrized_fan_hilbert_union", "hilbert", "hilbert.busy"),
    ("galerobust.toric", "symmetric_core", "hilbert", "hilbert.busy"),
    ("galerobust.hilbert", "hilbert_basis", "hilbert", "hilbert.busy"),
    ("galerobust.cli", "fan_radius_bound", "hilbert", "hilbert.busy"),
    ("galerobust.toric", "binomial_from_gale", "toric", "toric.binomial"),
    ("galerobust.cli", "is_strongly_robust", "toric", "toric.self"),
    ("galerobust.oracle", "enumerate_fiber", "oracle", "oracle.fiber"),
    ("galerobust.cli", "graver_bruteforce", "oracle", "oracle.box"),
    ("galerobust.cli", "is_indispensable_oracle", "oracle", "oracle.fiber"),
    ("galerobust.cli", "load_matrix", "matrixio", "matrixio.parse"),
    ("galerobust.cli", "main", "cli", "cli.self"),
)

# Entry points the benchmark itself calls.  They are wrapped on the module
# that defines them, and the benchmark looks them up there at call time.
ENTRY_TARGETS = (
    ("galerobust.toric", "is_strongly_robust", "toric", "toric.self"),
    ("galerobust.gale", "gale_transform", "gale", "gale.self"),
    ("galerobust.gale", "reduce_configuration", "gale", "gale.reduce"),
    ("galerobust.gale", "is_positively_graded", "gale", "gale.self"),
    ("galerobust.gale", "bouquets", "gale", "gale.self"),
)

GROUPS = (
    "intlinalg.busy",
    "gale.self",
    "gale.reduce",
    "hilbert.busy",
    "toric.binomial",
    "toric.self",
    "oracle.box",
    "oracle.fiber",
    "matrixio.parse",
    "cli.self",
)


def _bbox_area(a, b) -> int:
    xs = (0, a[0], b[0], a[0] + b[0])
    ys = (0, a[1], b[1], a[1] + b[1])
    return (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)


def _solve_u(rows, z):
    """Integer u with B u = z, read off two independent Gale rows."""
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            d = rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
            if d:
                u1 = (z[i] * rows[j][1] - z[j] * rows[i][1]) // d
                u2 = (rows[i][0] * z[j] - rows[j][0] * z[i]) // d
                return u1, u2
    raise ValueError("Gale rows span no plane")


class Tracer:
    """Spans and work counts for one traced run; install() ... close()."""

    def __init__(self, shell_width: int = 2):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = {}
        self.shell_width = shell_width
        self._cones_this_op: set = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self, modules: dict) -> None:
        """Rebind every target that exists; a renamed one is skipped."""
        wrapped: dict[tuple[int, str], object] = {}
        for modname, name, layer, group in TARGETS + ENTRY_TARGETS:
            mod = modules.get(modname)
            fn = getattr(mod, name, None) if mod is not None else None
            if fn is None or getattr(fn, MARK, False):
                continue
            key = (id(fn), group)
            if key not in wrapped:
                wrapped[key] = self._wrap(fn, name, layer, group)
            self._saved.append((mod, name, fn))
            setattr(mod, name, wrapped[key])

    def close(self) -> None:
        while self._saved:
            mod, name, fn = self._saved.pop()
            setattr(mod, name, fn)

    def _wrap(self, fn, name, layer, group):
        count = getattr(self, "_count_" + name, None)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer0 = perf_counter_ns()
            idx = len(spans)
            span = [name, layer, group, 0, 0, outer0, 0,
                    stack[-1] if stack else None, self.op_id]
            spans.append(span)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                span[3], span[4], span[6] = t0, t1, t1
            if count is not None:
                count(args, kwargs, result)
                span[6] = perf_counter_ns()
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- op boundaries ------------------------------------------------
    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        self._cones_this_op = set()
        idx = len(self.spans)
        now = perf_counter_ns()
        self.spans.append(["op", "op", "trace.glue", now, 0, now, 0, None, op_id])
        self.stack.append(idx)
        return idx

    def end_op(self, idx: int) -> None:
        self.stack.pop()
        now = perf_counter_ns()
        self.spans[idx][4] = now
        self.spans[idx][6] = now

    # -- work counts --------------------------------------------------
    def _add(self, key: str, value: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _count_rank(self, args, kwargs, result):
        self._add("intlinalg.calls")

    _count_kernel_lattice_basis = _count_rank

    def _count_gale_transform(self, args, kwargs, result):
        self._add("gale.transforms")
        bits = max(max(abs(x), abs(y)).bit_length() for x, y in result.rows)
        self._max("gale.coord_bits_max", bits)

    def _count_fan_hilbert_union(self, args, kwargs, result):
        self._add("hilbert.fan_unions")

    _count_symmetrized_fan_hilbert_union = _count_fan_hilbert_union

    def _count_hilbert_basis(self, args, kwargs, result):
        cone = args[0] if args else kwargs["cone"]
        a, b = tuple(cone.a), tuple(cone.b)
        det = a[0] * b[1] - a[1] * b[0]
        self._add("hilbert.cones")
        if (a, b) in self._cones_this_op:
            self._add("hilbert.cone_repeats")
        self._cones_this_op.add((a, b))
        self._add("hilbert.det_sum", det)
        self._max("hilbert.det_max", det)
        self._add("hilbert.basis_vectors", len(result))
        self._add("hilbert.scan_points", _bbox_area(a, b))

    def _count_binomial_from_gale(self, args, kwargs, result):
        self._add("toric.binomials")

    def _count_graver_bruteforce(self, args, kwargs, result):
        b = args[0] if args else kwargs["b"]
        radius = args[1] if len(args) > 1 else kwargs["radius"]
        self._add("oracle.box_candidates", (2 * radius + 1) ** 2 - 1)
        self._add("oracle.box_accepted", len(result))
        for binom in result:
            z = [p - m for p, m in zip(binom.plus, binom.minus)]
            u = _solve_u(b.rows, z)
            if max(abs(u[0]), abs(u[1])) > radius - self.shell_width:
                self._add("oracle.shell_hits")

    def _count_enumerate_fiber(self, args, kwargs, result):
        self._add("oracle.fibers")
        self._add("oracle.fiber_points", len(result.points))


def installed(modules: dict) -> list[str]:
    """Names among the trace targets that are currently bound to a wrapper."""
    out = []
    for modname, name, _, _ in TARGETS + ENTRY_TARGETS:
        fn = getattr(modules.get(modname), name, None)
        if getattr(fn, MARK, False):
            out.append(f"{modname}.{name}")
    return out


def self_times(spans) -> dict[str, int]:
    """Self time in ns per metric group, plus the tracer's bookkeeping.

    Children of one span never overlap (one thread), so the time they
    cover is the sum of their outer intervals.
    """
    covered = [0] * len(spans)
    for name, layer, group, t0, t1, o0, o1, parent, op in spans:
        if parent is not None:
            covered[parent] += o1 - o0
    out: dict[str, int] = {"trace.bookkeeping": 0}
    for i, (name, layer, group, t0, t1, o0, o1, parent, op) in enumerate(spans):
        out[group] = out.get(group, 0) + (t1 - t0) - covered[i]
        out["trace.bookkeeping"] += (o1 - o0) - (t1 - t0)
    return out
