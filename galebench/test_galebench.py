"""Self-tests of the benchmark: python3 -m pytest galebench -q

They run the benchmark's own code against the package in src/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import probe
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Counts named by the benchmark's design as exactly repeatable.
REPEATABLE = (
    "hilbert.cones",
    "hilbert.det_sum",
    "hilbert.scan_points",
    "oracle.box_candidates",
    "oracle.fiber_points",
    "toric.binomials",
    "gale.transforms",
)


def traced_result(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["correct"], proc.stderr
    return doc["metrics"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = traced_result(workload, 5), traced_result(workload, 5)
    counts = {k for k, v in first.items() if v["unit"] in ("count", "bits")}
    assert set(REPEATABLE) <= counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["gale.transforms"]["value"] > 0
    if workload != "gale-wide":
        assert first["hilbert.cones"]["value"] > 0
    if workload == "cli":
        assert first["oracle.box_candidates"]["value"] > 0


def test_untraced_run_has_no_wrapper():
    gr = run.import_package()
    decide = workloads.WORKLOADS["decide"]
    inputs = decide.prepare(gr, 7)[:5]
    seen = []

    class Spy:
        check = staticmethod(decide.check)

        @staticmethod
        def op(gr, inp):
            seen.append(tracing.installed(gr))
            return decide.op(gr, inp)

    tally = run.untraced_run(Spy, gr, inputs, seconds=0)
    assert tally.failed == 0 and len(seen) == tally.attempted >= run.MIN_PASSES * len(inputs)
    assert not any(seen)

    tracer = tracing.Tracer()
    tracer.install(gr)
    try:
        assert "galerobust.toric.is_strongly_robust" in tracing.installed(gr)
        with pytest.raises(RuntimeError):
            run.untraced_run(Spy, gr, inputs, seconds=0)
    finally:
        tracer.close()
    assert tracing.installed(gr) == []


def test_self_times_add_up_to_op_time():
    gr = run.import_package()
    decide = workloads.WORKLOADS["decide"]
    inputs = decide.prepare(gr, 7)[:10]
    tracer = tracing.Tracer()
    tracer.install(gr)
    try:
        for i, inp in enumerate(inputs):
            idx = tracer.begin_op(i)
            decide.op(gr, inp)
            tracer.end_op(idx)
    finally:
        tracer.close()
    ops = [s for s in tracer.spans if s[1] == "op"]
    wall = sum(s[4] - s[3] for s in ops)
    assert sum(tracing.self_times(tracer.spans).values()) == wall


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_probe_scale_uses_the_bracketing_probes():
    p = probe.Probe()
    p.at = [0.0, 1.0, 2.0]
    p.ns = [probe.PROBE_NS, 2 * probe.PROBE_NS, 2 * probe.PROBE_NS]
    assert p.scale(0.5) == pytest.approx(1 / 1.5)
    assert p.scale(1.5) == pytest.approx(0.5)
    assert p.scale(9.0) == pytest.approx(0.5)
