"""Import graph: a subcommand loads only the modules it runs.

This session has already imported the whole package, so every check
runs in a fresh interpreter, with the package found where this session
found it.  Only the oracle paths load ``oracle``, a run on a text
matrix file loads no ``json``, and no run loads ``typing``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import galerobust

from conftest import DATA

PACKAGE = Path(galerobust.__file__).resolve().parent
SRC = str(PACKAGE.parent)
EXAMPLE_FILE = str(DATA / "example_4x6.mat")

FAN = {"galerobust.toric", "galerobust.hilbert"}
PLOT = {"galerobust.svgplot"}
ORACLE = {"galerobust.oracle"}
# The package is flat: one module per source file, no subpackage (the
# oracle's box scan is plain Python in ``oracle``, with no backend).
OWN = {"galerobust"} | {f"galerobust.{p.stem}" for p in PACKAGE.glob("*.py")}


def fresh_python(code: str, *args: str, flags: tuple = ()) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after(argv) -> set:
    """sys.modules of a fresh interpreter after cli.main(argv)."""
    code = (
        "import json, sys\n"
        "from galerobust.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(json.dumps([rc, sorted(sys.modules)]))\n"
    )
    rc, names = json.loads(fresh_python(code, *argv).splitlines()[-1])
    assert rc in (0, 1)
    return set(names)


# Stdlib modules no run needs: fractions (the oracle's fiber walk is
# integer-only), string (which compiles a regex at import), dataclasses
# and inspect.
HEAVY_STDLIB = {"fractions", "string", "dataclasses", "inspect"}


@pytest.fixture(scope="module")
def bare_modules() -> set:
    code = "import json, sys; print(json.dumps(sorted(sys.modules)))"
    return set(json.loads(fresh_python(code)))


@pytest.mark.parametrize(
    "cmd, absent",
    [
        ("gale", FAN | PLOT | ORACLE),
        ("bouquets", FAN | PLOT | ORACLE),
        ("check", PLOT | ORACLE),
        ("graver", PLOT | ORACLE),
        ("markov", PLOT | ORACLE),
        ("plot", {"galerobust.toric"} | ORACLE),
    ],
)
def test_subcommand_loads_only_what_it_runs(tmp_path, bare_modules, cmd, absent):
    loaded = modules_after([cmd, EXAMPLE_FILE, "--out", str(tmp_path / "out.json")])
    assert "galerobust.cli" in loaded and "galerobust.gale" in loaded
    assert not {m for m in loaded for a in absent if m == a or m.startswith(a + ".")}
    assert {m for m in loaded if m.startswith("galerobust.")} <= OWN
    assert not (HEAVY_STDLIB - bare_modules) & loaded


def test_oracle_loads_toric_not_fractions(tmp_path, bare_modules):
    loaded = modules_after(["oracle", EXAMPLE_FILE, "--out", str(tmp_path / "out.json")])
    assert "galerobust.toric" in loaded and "fractions" not in loaded
    assert "galerobust.oracle" in loaded
    assert {m for m in loaded if m.startswith("galerobust.")} <= OWN
    assert not [p for p in PACKAGE.iterdir() if p.is_dir() and p.name != "__pycache__"]
    assert not (HEAVY_STDLIB - bare_modules) & loaded


def test_oracle_flag_loads_oracle(tmp_path):
    loaded = modules_after(
        ["graver", EXAMPLE_FILE, "--oracle", "--out", str(tmp_path / "out.json")]
    )
    assert "galerobust.oracle" in loaded


@pytest.mark.parametrize("argv", [["check"], ["bouquets"], ["markov", "--letters"]])
def test_text_input_run_loads_neither_json_nor_oracle(argv):
    # The harness itself imports no json: the document goes to stdout, and
    # the module names follow on one last line.
    code = (
        "import sys\n"
        "from galerobust.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, *sorted(m for m in sys.modules if m in ('json', 'galerobust.oracle')))\n"
    )
    stdout = fresh_python(code, argv[0], EXAMPLE_FILE, *argv[1:])
    document, last = stdout.rsplit("\n", 2)[:2]
    assert json.loads(document)["version"] == galerobust.__version__
    rc, *loaded = last.split()
    assert rc in ("0", "1") and loaded == []


@pytest.mark.parametrize("cmd", ["gale", "bouquets", "check", "markov", "oracle", "plot"])
def test_subcommand_loads_no_typing(tmp_path, cmd):
    # -S keeps site out: an interpreter's site can load typing before the
    # package does, and then this check would see nothing.
    code = (
        "import sys\n"
        "from galerobust.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, 'typing' in sys.modules)\n"
    )
    out = fresh_python(code, cmd, EXAMPLE_FILE, "--out", str(tmp_path / "out"), flags=("-S",))
    assert out.splitlines()[-1] in ("0 False", "1 False")


def test_public_names_resolve_lazily():
    code = (
        "import importlib, json, sys\n"
        "import galerobust\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('galerobust.'))\n"
        "listed = set(dir(galerobust))\n"
        "wrong = [name for name in galerobust.__all__ if getattr(galerobust, name) is not\n"
        "         getattr(importlib.import_module('galerobust.' + galerobust._HOME[name]), name)]\n"
        "try:\n"
        "    galerobust.no_such_name\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({'loaded': loaded, 'wrong': wrong, 'missing': missing,\n"
        "                  'unlisted': sorted(set(galerobust.__all__) - listed)}))\n"
    )
    doc = json.loads(fresh_python(code))
    assert doc["loaded"] == []
    assert doc["wrong"] == []
    assert doc["unlisted"] == []
    assert doc["missing"] is not None and "no_such_name" in doc["missing"]


def test_dir_is_sorted_and_lists_every_public_name():
    # Unlike the fresh interpreter above, this session has resolved public
    # names and loaded submodules, so dir() merges those globals too.
    listed = dir(galerobust)
    assert listed == sorted(listed)
    assert set(galerobust.__all__) <= set(listed)


def test_star_and_submodule_imports_still_work():
    code = (
        "import json\n"
        "import galerobust\n"
        "ns = {}\n"
        "exec('from galerobust import *', ns)\n"
        "from galerobust import hilbert, oracle\n"
        "from galerobust import Cone2D, is_strongly_robust\n"
        "print(json.dumps({'star': sorted(k for k in ns if k != '__builtins__'),\n"
        "                  'oracle': oracle.__name__, 'cone': Cone2D is hilbert.Cone2D,\n"
        "                  'fn': is_strongly_robust.__module__}))\n"
    )
    doc = json.loads(fresh_python(code))
    assert doc["star"] == sorted(galerobust.__all__)
    assert doc["oracle"] == "galerobust.oracle"
    assert doc["cone"] is True
    assert doc["fn"] == "galerobust.toric"


def test_benchmark_script_imports(monkeypatch, capsys):
    """benchmarks/bench_kernels.py imports every name it reads from the package.

    Its ``main`` runs only under ``__main__``, so loading the script runs
    no benchmark.  A name that leaves the package fails here; an
    attribute the script reads at run time (say ``b.source`` on a value)
    is not checked by an import.  The forward-elimination sweep runs
    once, on its smallest cell and one matrix.
    """
    import importlib.util

    path = PACKAGE.parent.parent / "benchmarks" / "bench_kernels.py"
    # The script puts src/ and tests/ in front of sys.path; undo that after.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
    module.bench_forward_sweep(1, sizes=module.FORWARD_SIZES[:1],
                               bounds=module.FORWARD_BOUNDS[:1], count=1)
    n, entries, *_ = capsys.readouterr().out.splitlines()[-1].split()
    assert (n, entries) == ("12", "+-9")
