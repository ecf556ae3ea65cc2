"""Standing mutant gate: each fault listed here must fail tier-1.

Usage: python benchmarks/mutants.py

Each entry in MUTANTS is a fault that the tests are known to catch: a
file under src/galerobust/, a text that occurs exactly once in it, and
the text that replaces it.  For each entry the script copies src/,
tests/, benchmarks/ and pyproject.toml to a temporary directory,
applies the change there, and runs tier-1 on the copy with -x -q; the
checkout itself is never written.  A mutant is
killed when the run fails or times out.  The table gives the seconds to
the end of each run and the first test that failed.

An unmutated copy runs first and must pass, so that a copy that cannot
pass cannot count as a kill either.  The timeout per mutant is three
times that first run; a mutant that runs into it counts as killed.

Exit status: 0 if every mutant is killed; 1 if one survives; 2 if an
entry's old text is not found exactly once in its file (the code it
targets has moved: update the entry or retire it) or the unmutated copy
fails.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "benchmarks", "pyproject.toml")
TIER1 = ("-m", "pytest", "-x", "-q", "--continue-on-collection-errors")

# (name, file under src/galerobust/, old text, new text)
MUTANTS = [
    ("bezout-sign-flip", "hilbert.py",
     "t = (1 - s * a0) // a1", "t = (s * a0 - 1) // a1"),
    ("pow-not-inverse", "intlinalg.py",
     "t = pow(x // g, -1, a // g)", "t = pow(x // g, 1, a // g)"),
    ("one-column-pivot-search", "intlinalg.py",
     "for c1 in range(col + 1, ncols):", "for c1 in range(col + 1, min(col + 2, ncols)):"),
    ("tuple-order-on-values", "_value.py",
     "__lt__ = _order(tuple.__lt__)", "__lt__ = tuple.__lt__"),
    ("indispensable-count-off", "toric.py",
     "if 2 * len(indisp) != len(core):", "if False:"),
    ("digit-limit-except-narrowed", "cli.py",
     "except ValueError as exc:  # an integer past the digit limit",
     "except TypeError as exc:  # an integer past the digit limit"),
    ("divide-exactly-no-raise", "intlinalg.py",
     "    if any(rem):\n        raise _inexact(d)\n", ""),
    ("back-substitute-no-raise", "intlinalg.py",
     "            if rem:\n                raise _inexact(lead)\n", ""),
    ("typing-imported", "gale.py",
     "from collections.abc import Sequence", "from typing import Sequence"),
    ("directions-in-row-order", "gale.py",
     "return tuple(sorted(set(self.rows), key=_ANGLE_KEY))",
     "return tuple(dict.fromkeys(self.rows))"),
]


def tier1(tree: Path, timeout: float | None):
    """(passed, seconds, first failing test or None) of tier-1 on tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, *TIER1], cwd=tree, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, start_new_session=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return False, time.perf_counter() - start, "timeout"
    seconds = time.perf_counter() - start
    first = next(
        (line.split()[1] for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))),
        None,
    )
    return proc.returncode == 0, seconds, first


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def main() -> int:
    stale = []
    for name, file, old, _ in MUTANTS:
        found = (ROOT / "src" / "galerobust" / file).read_text().count(old)
        if found != 1:
            stale.append(f"{name}: old text found {found} times in {file}")
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        passed, seconds, first = tier1(clean, None)
        print(f"{'unmutated':28} {'passed' if passed else 'FAILED':8} {seconds:7.1f} s", flush=True)
        if not passed:
            print(f"the unmutated copy fails tier-1 at {first}", file=sys.stderr)
            return 2
        timeout = 3 * seconds

        survivors = []
        for name, file, old, new in MUTANTS:
            tree = Path(tmp) / name
            copy_tree(tree)
            path = tree / "src" / "galerobust" / file
            path.write_text(path.read_text().replace(old, new))
            passed, seconds, first = tier1(tree, timeout)
            if passed:
                survivors.append(name)
            verdict = "SURVIVED" if passed else "killed"
            print(f"{name:28} {verdict:8} {seconds:7.1f} s  {first or ''}", flush=True)
            shutil.rmtree(tree)
    if survivors:
        print(f"survived: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
