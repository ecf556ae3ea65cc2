"""Closed-loop benchmark of galerobust: one client, one process.

Usage, from the root of a checkout:

    python3 galebench/run.py --workload decide --seed 1 --seconds 25 --trace 0

The workloads (decide, gale-wide, cli) are described in README.md next
to this file.  A run sets up (import, inputs, warm-up; repeated
SETUP_REPEATS times, median reported), then runs passes over its inputs
until ``--seconds`` have passed and at least MIN_PASSES passes are done,
and checks every op's output.  The last line of stdout is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced pass.  Lines before it, starting
with '#', give the environment and the sample counts.

The package is imported from ``src/`` of the checkout; without it the
run exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import probe as speed
import tracing
import workloads

ROOT = workloads.ROOT
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"
MODULES = (
    "galerobust",
    "galerobust.errors",
    "galerobust.intlinalg",
    "galerobust.gale",
    "galerobust.hilbert",
    "galerobust.toric",
    "galerobust.oracle",
    "galerobust.matrixio",
    "galerobust.cli",
)
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_INPUTS = 100
DEFAULT_SEED = 1


def import_package() -> dict:
    """Import the package afresh from src/, so each set-up pays for it."""
    if not (SRC / "galerobust" / "__init__.py").is_file():
        raise SystemExit(f"galebench: no galerobust package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "galerobust" or m.startswith("galerobust.")]:
        del sys.modules[name]
    gr = {name: importlib.import_module(name) for name in MODULES}
    if Path(gr["galerobust"].__file__).resolve().parent != SRC / "galerobust":
        raise SystemExit(f"galebench: galerobust imported from {gr['galerobust'].__file__}")
    return gr


def environment(gr, args) -> dict:
    try:
        backend = importlib.import_module("galerobust._speed").backend_name()
    except (ImportError, AttributeError):
        backend = "absent"
    src = hashlib.sha256()
    for path in sorted((SRC / "galerobust").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": backend,
        "GALEROBUST_PURE": os.environ.get("GALEROBUST_PURE"),
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def set_up(workload, seed, probe=None):
    """Import, build inputs and warm up SETUP_REPEATS times; keep the last.

    With a probe, each set-up time is scaled by the probes just before and after it.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        if probe:
            for _ in range(9):
                probe.run()
        t0 = perf_counter()
        gr = import_package()
        inputs = workload.prepare(gr, seed)
        workload.warm(gr, inputs)
        times.append((perf_counter() - t0) * (probe.scale(t0) if probe else 1.0))
    return statistics.median(times), gr, inputs


class Tally:
    """Latencies and start times per input across passes, and the ops that failed."""

    def __init__(self, n_inputs: int):
        self.lat = [[] for _ in range(n_inputs)]
        self.when = [[] for _ in range(n_inputs)]
        self.attempted = 0
        self.failed = 0

    def run_pass(self, gr, inputs, op, check, before=None, after=None, probe=None) -> int:
        """One pass over the inputs; returns the ns spent inside ops."""
        busy = 0
        for i, inp in enumerate(inputs):
            if probe:
                probe.maybe()
            token = before(i) if before else None
            self.when[i].append(perf_counter())
            t0 = perf_counter_ns()
            try:
                out = op(gr, inp)
                err = None
            except Exception as exc:  # an op that raises is a failed op
                err = exc
            dt = perf_counter_ns() - t0
            if after:
                after(token)
            busy += dt
            self.lat[i].append(dt)
            self.attempted += 1
            if err is None:
                try:
                    ok = check(gr, inp, out)
                except Exception as exc:  # malformed output fails its check
                    ok, err = False, exc
            else:
                ok = False
            if not ok:
                if not self.failed:
                    print(f"# first failure on input {i}:", file=sys.stderr)
                    if err is not None:
                        traceback.print_exception(err, file=sys.stderr)
                self.failed += 1
        return busy

    def scaled(self, probe) -> list[list[float]]:
        """Latencies scaled to the probe's nominal machine speed."""
        return [[ns * probe.scale(t) for ns, t in zip(v, w)] for v, w in zip(self.lat, self.when)]


def latency_metrics(lat) -> dict:
    """Throughput and latency of a typical pass: each input at its median latency.

    A burst of load from elsewhere on the machine slows some ops of one
    pass; the per-input median over passes leaves it out.  With at least
    MIN_INPUTS inputs, p90 has ten inputs beyond it.
    """
    typical = [statistics.median(v) for v in lat]
    return {
        "ops_per_s": (len(typical) / (sum(typical) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(typical) / 1e6, "ms"),
        "op_p90_ms": (statistics.quantiles(typical, n=10)[8] / 1e6, "ms"),
    }


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def untraced_run(workload, gr, inputs, seconds, probe=None):
    if tracing.installed(gr):
        raise RuntimeError("a trace wrapper is installed in an untraced run")
    tally = Tally(len(inputs))
    start = perf_counter()
    while True:
        tally.run_pass(gr, inputs, workload.op, workload.check, probe=probe)
        if perf_counter() - start >= seconds and tally.attempted >= MIN_PASSES * len(inputs):
            break
    return tally


def end_to_end(workload, args):
    """Times are scaled to the probe's nominal speed; the raw ones go on a '#' line."""
    probe = speed.Probe()
    setup_s, gr, inputs = set_up(workload, args.seed, probe)
    if len(inputs) < MIN_INPUTS:
        raise RuntimeError(f"{len(inputs)} inputs; p90 needs {MIN_INPUTS}")
    tally = untraced_run(workload, gr, inputs, args.seconds, probe)
    metrics = {
        "setup_s": (setup_s, "s"),
        **latency_metrics(tally.scaled(probe)),
        "peak_rss_mib": (peak_rss_mib(workload.name == "cli"), "MiB"),
    }
    raw = {k: round(v, 4) for k, (v, _) in latency_metrics(tally.lat).items()}
    print(f"# {workload.name}: {tally.attempted} ops, {tally.attempted // len(inputs)} passes "
          f"over {len(inputs)} inputs; p50/p90 over the {len(inputs)} per-input medians; "
          f"failed {tally.failed}")
    print(f"# unscaled {json.dumps(raw)}; {len(probe.ns)} probes, median "
          f"{statistics.median(probe.ns) / 1e3:.1f} us against {speed.PROBE_NS / 1e3:.0f} us nominal")
    return gr, tally.attempted, tally.failed, True, metrics


def cli_floor_s() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of importing galerobust.cli on top."""

    def median_wall(args):
        times = []
        for _ in range(5):
            t0 = perf_counter()
            proc = workloads.run_child(args)
            times.append(perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"{args} exited with {proc.returncode}: {proc.stderr}")
        return statistics.median(times)

    interp = median_wall(["-c", "pass"])
    return interp, median_wall(["-c", "import galerobust.cli"]) - interp


def traced_run(workload, args):
    """Pairs of untraced and traced passes over the same inputs.

    Counts come from the first traced pass and must repeat exactly in
    every later one; shares are over all traced passes.
    """
    _, gr, inputs = set_up(workload, args.seed)
    op = getattr(workload, "op_in_process", workload.op)
    plain, traced = Tally(len(inputs)), Tally(len(inputs))
    shell = gr["galerobust.oracle"].SHELL_WIDTH
    plain_ns = traced_ns = 0
    first = None
    consistent = True
    spans: list = []
    total: dict[str, int] = {}
    start = perf_counter()
    while True:
        plain_ns += plain.run_pass(gr, inputs, op, workload.check)
        tracer = tracing.Tracer(shell)
        tracer.install(gr)
        try:
            traced_ns += traced.run_pass(gr, inputs, op, workload.check,
                                         before=tracer.begin_op, after=tracer.end_op)
        finally:
            tracer.close()
        if first is None:
            first, spans = dict(tracer.counts), tracer.spans
        else:
            consistent = consistent and tracer.counts == first
        for group, ns in tracing.self_times(tracer.spans).items():
            total[group] = total.get(group, 0) + ns
        if perf_counter() - start >= args.seconds:
            break
    interp_s, import_s = cli_floor_s()
    metrics = layer_metrics(first, total, len(inputs), traced.attempted,
                            traced_ns, plain_ns, interp_s, import_s)
    write_trace(args, gr, metrics, spans)
    print(f"# {workload.name}: traced {traced.attempted} ops, counts repeat: {consistent}")
    attempted = plain.attempted + traced.attempted
    return gr, attempted, plain.failed + traced.failed, consistent, metrics


def layer_metrics(counts, total_ns, n_inputs, traced_ops, traced_ns, plain_ns,
                  interp_s, import_s) -> dict:
    c = {k: counts.get(k, 0) for k in (
        "intlinalg.calls", "gale.transforms", "gale.coord_bits_max",
        "hilbert.cones", "hilbert.cone_repeats", "hilbert.fan_unions", "hilbert.det_sum",
        "hilbert.det_max", "hilbert.basis_vectors", "hilbert.scan_points",
        "toric.binomials", "oracle.box_candidates", "oracle.box_accepted",
        "oracle.fibers", "oracle.fiber_points", "oracle.shell_hits")}
    out = {k: (v, "bits" if k == "gale.coord_bits_max" else "count") for k, v in c.items()}
    out["gale.transforms_per_op"] = (c["gale.transforms"] / n_inputs, "count")
    out["hilbert.yield"] = (
        c["hilbert.basis_vectors"] / c["hilbert.scan_points"] if c["hilbert.scan_points"] else 0.0,
        "ratio")
    out["oracle.box_yield"] = (
        c["oracle.box_accepted"] / c["oracle.box_candidates"] if c["oracle.box_candidates"] else 0.0,
        "ratio")
    wall = sum(total_ns.values())
    for group in tracing.GROUPS + ("trace.glue", "trace.bookkeeping"):
        out[group + "_pct"] = (100.0 * total_ns.get(group, 0) / wall, "%")
    out["trace.op_ms"] = (wall / traced_ops / 1e6, "ms")
    out["trace.overhead_ratio"] = (traced_ns / plain_ns, "ratio")
    out["cli.interp_s"] = (interp_s, "s")
    out["cli.import_s"] = (import_s, "s")
    return out


def write_trace(args, gr, metrics, spans) -> None:
    OUT.mkdir(exist_ok=True)
    doc = {
        "env": environment(gr, args),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "span_fields": ["name", "layer", "group", "start_ns", "end_ns",
                        "outer_start_ns", "outer_end_ns", "parent", "op"],
        "spans": spans,
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default="decide")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="write decide_digest.json from the current code and exit")
    args = parser.parse_args(argv)
    if args.record_digest:
        workloads.record_digests(import_package())
        print(f"wrote {workloads.DIGEST_FILE}")
        return 0
    workload = workloads.WORKLOADS[args.workload]
    run = traced_run if args.trace else end_to_end
    gr, attempted, failed, consistent, metrics = run(workload, args)
    print("# env " + json.dumps(environment(gr, args)))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
