import contextlib
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galerobust import IntegerMatrix, MatrixFormatError, is_strongly_robust, render_binomial
from galerobust.cli import _compact_json, main
from galerobust.matrixio import (
    format_matrix,
    parse_matrix_json,
    parse_matrix_text,
)
from galerobust.svgplot import render_svg

from conftest import (
    DATA,
    EXAMPLE_A,
    binomial_from_vector,
    random_valid_instances,
    reference_compact_json,
)

EXAMPLE_FILE = str(DATA / "example_4x6.mat")
CUBIC_FILE = str(DATA / "twisted_cubic.mat")


# ---------------------------------------------------------------- matrix io


def test_parse_example_file():
    m = parse_matrix_text(Path(EXAMPLE_FILE).read_text())
    assert m.rows == EXAMPLE_A


def test_parse_round_trip():
    m = IntegerMatrix(EXAMPLE_A)
    assert parse_matrix_text(format_matrix(m)) == m


def test_parse_comments_and_spacing():
    text = "# heading\n2 2  # trailing\n1 2\n# middle\n 3   4 \n"
    assert parse_matrix_text(text).rows == ((1, 2), (3, 4))


def test_parse_huge_integers():
    big = 10**50
    m = parse_matrix_text(f"1 2\n{big} -{big}\n")
    assert m.rows == ((big, -big),)


def test_parse_errors():
    with pytest.raises(MatrixFormatError):
        parse_matrix_text("")
    with pytest.raises(MatrixFormatError):
        parse_matrix_text("4 6\n" + " ".join(["1"] * 20))  # 20 of 24 tokens
    with pytest.raises(MatrixFormatError):
        parse_matrix_text("2 2\n1 2 3 4 5")
    with pytest.raises(MatrixFormatError):
        parse_matrix_text("2 2\n1 2 3 x")
    with pytest.raises(MatrixFormatError):
        parse_matrix_text("0 2\n")
    # Only ASCII [+-]?[0-9]+ tokens: int() alone takes "1_0" and "\uff13".
    for text, token in (
        ("1 2\n1_0 1\n", "1_0"),
        ("1 2\n\uff13 1\n", "\uff13"),
        ("1_0 1\n" + "1 " * 10, "1_0"),
        ("1 \uff12\n1 1\n", "\uff12"),
        ("1 2\n+ 1\n", "+"),
        ("1 2\n--1 1\n", "--1"),
        ("1 2\n1 0x1\n", "0x1"),
    ):
        with pytest.raises(MatrixFormatError, match=re.escape(repr(token))):
            parse_matrix_text(text)
    assert parse_matrix_text("1 2\n+7 -0\n").rows == ((7, 0),)


def test_parse_json_forms():
    assert parse_matrix_json('[[1, 2], [3, 4]]').rows == ((1, 2), (3, 4))
    assert parse_matrix_json('{"matrix": [[1, 2]]}').rows == ((1, 2),)
    with pytest.raises(MatrixFormatError):
        parse_matrix_json('{"rows": 2}')
    with pytest.raises(MatrixFormatError):
        parse_matrix_json('[[1, 2.5]]')
    with pytest.raises(MatrixFormatError):
        parse_matrix_json("not json")


# ---------------------------------------------------------------------- cli


def run_cli(capsys, *argv) -> tuple[int, str]:
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_check_example_exit_zero(capsys):
    rc, out = run_cli(capsys, "check", EXAMPLE_FILE)
    assert rc == 0
    doc = json.loads(out)
    assert doc["strongly_robust"] is True
    assert doc["mixed_count"] == 2
    assert doc["centrally_symmetric"] is True
    assert len(doc["graver"]) == 6
    assert doc["witness"] is None
    assert list(doc) == [
        "version",
        "input",
        "gale",
        "reduced_gale",
        "positively_graded",
        "fan_cones",
        "hilbert_union",
        "h_core",
        "indispensable",
        "graver",
        "markov",
        "complete_intersection",
        "bouquets",
        "mixed_count",
        "centrally_symmetric",
        "strongly_robust",
        "witness",
    ]


def test_check_input_echo_round_trips(capsys):
    rc, out = run_cli(capsys, "check", EXAMPLE_FILE)
    doc = json.loads(out)
    echoed = IntegerMatrix(doc["input"]["entries"])
    assert echoed.rows == EXAMPLE_A


def test_check_twisted_cubic_exit_one(capsys):
    rc, out = run_cli(capsys, "check", CUBIC_FILE)
    assert rc == 1
    doc = json.loads(out)
    assert doc["strongly_robust"] is False
    assert doc["witness"] is not None
    assert doc["centrally_symmetric"] is False


def test_check_malformed_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("4 6\n" + " ".join(["1"] * 20))
    rc, _ = run_cli(capsys, "check", str(bad))
    assert rc == 2


@pytest.mark.parametrize("argv", [["check"], ["gale", "--json"]])
def test_non_utf8_file_exit_two(tmp_path, capsys, argv):
    bad = tmp_path / "latin1.mat"
    bad.write_bytes("# caf\u00e9\n1 3\n1 1 1\n".encode("latin-1"))
    rc = main([*argv, str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: MatrixFormatError: ")
    assert "UTF-8" in captured.err


@pytest.mark.parametrize(
    "argv, text",
    [(["gale"], "1 3\n1 1 2\n"), (["gale", "--json"], "[[1, 1, 2]]")],
    ids=["text", "json"],
)
def test_utf8_file_with_a_byte_order_mark(tmp_path, capsys, argv, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert main([*argv, str(plain)]) == 0
    expected = capsys.readouterr()
    assert main([*argv, str(marked)]) == 0
    assert capsys.readouterr() == expected


def _json_error_line(text: str) -> str:
    """The one stderr line of a --json run on text that json.loads rejects."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return f"error: MatrixFormatError: invalid JSON: {exc}\n"
    raise AssertionError("json.loads accepted the text")


def test_json_syntax_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[[1, 2")
    rc = main(["gale", "--json", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == _json_error_line("[[1, 2")


def test_json_integer_past_digit_limit_exit_two(tmp_path, capsys):
    # json.loads raises a plain ValueError past the interpreter's
    # 4300-digit limit for int conversion.
    big = tmp_path / "big.json"
    big.write_text("[[" + "7" * 5000 + ", 1, 1]]")
    rc = main(["gale", "--json", str(big)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == _json_error_line(big.read_text())


def test_text_entry_past_digit_limit_exit_two(tmp_path, capsys):
    # int() raises a plain ValueError past the interpreter's 4300-digit
    # limit for int conversion; the entry passes the digit check first.
    big = tmp_path / "big.mat"
    entry = "7" * 5000
    big.write_text(f"1 3\n{entry} 1 1\n")
    with pytest.raises(ValueError) as exc:
        int(entry)
    rc = main(["check", str(big)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: MatrixFormatError: bad entry: {exc.value}\n"


def _write_text_matrix(path, rows):
    body = "\n".join(" ".join(map(str, r)) for r in rows)
    path.write_text(f"{len(rows)} {len(rows[0])}\n{body}\n")


def _digit_limit_line():
    with pytest.raises(ValueError) as exc:
        str(10**5000)
    return f"error: GaleRobustError: output integer: {exc.value}\n"


@pytest.mark.parametrize("command", ["gale", "bouquets"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_gale_rows_past_digit_limit_exit_two(tmp_path, capsys, command, to_file):
    # Every entry parses (2001 digits at most), but the Gale rows are 5x5
    # minors of about 10 000 digits, which str() refuses to write.
    rng = random.Random(7)
    big = tmp_path / "big.mat"
    _write_text_matrix(big, [[rng.randint(10**2000, 10**2001) for _ in range(7)] for _ in range(5)])
    out = tmp_path / "out.json"
    rc = main([command, str(big), *(["--out", str(out)] if to_file else [])])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == _digit_limit_line()
    assert not out.exists()


_M = 10**2500 + 1
# Kernel vectors (1, 0, -1, m, -m^2) and (0, 1, -1, m, -m^2): the fan is
# small, but the Graver binomials carry m^2, about 5000 digits.  The one
# indispensable binomial, x1 - x2, does not.
_BIG_GRAVER = [[1, 1, 1, 0, 0], [0, 0, _M, 1, 0], [0, 0, 0, _M, 1]]
# Kernel vectors (1, 0, -m, m^2, 0) and (0, 1, 0, 0, -1): strongly robust,
# so both Graver binomials are indispensable, and x1*x4^(m^2) - x3^m
# carries m^2.
_BIG_ROBUST = [[_M, 0, 1, 0, 0], [0, 0, _M, 1, 0], [0, 1, 0, 0, 1]]


@pytest.mark.parametrize("command", ["check", "graver", "indispensable", "markov"])
def test_exponents_past_digit_limit_exit_two(tmp_path, capsys, command):
    # Each command exits 2 on every input whose printed binomials carry m^2.
    inputs = [_BIG_ROBUST]
    if command in ("check", "graver"):
        inputs.append(_BIG_GRAVER)
    for rows in inputs:
        big = tmp_path / "big.mat"
        _write_text_matrix(big, rows)
        rc = main([command, str(big)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == _digit_limit_line()


@pytest.mark.parametrize("command", ["indispensable", "markov"])
def test_a_list_not_printed_cannot_fail_the_output(tmp_path, capsys, command):
    # The Graver list is not built for these commands, so its m^2 exponents
    # cannot stop them from printing the indispensable set.
    big = tmp_path / "big.mat"
    _write_text_matrix(big, _BIG_GRAVER)
    rc = main([command, str(big)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc[command] == [{"plus": [1, 0, 0, 0, 0], "minus": [0, 1, 0, 0, 0], "pretty": "x1 - x2"}]


def test_json_nesting_past_recursion_limit_exit_two(tmp_path, capsys):
    # json.loads raises RecursionError, not a ValueError, on deep nesting.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    rc = main(["gale", "--json", str(deep)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == _json_error_line(deep.read_text())


def test_check_missing_file_exit_two(capsys):
    rc, _ = run_cli(capsys, "check", "no_such_file.mat")
    assert rc == 2


def test_check_rank_error_exit_two(tmp_path, capsys):
    f = tmp_path / "id3.mat"
    f.write_text("3 3\n1 0 0\n0 1 0\n0 0 1\n")
    rc, _ = run_cli(capsys, "check", str(f))
    assert rc == 2


def test_check_grading_error_exit_two(tmp_path, capsys):
    f = tmp_path / "ungraded.mat"
    f.write_text("2 4\n1 0 -1 0\n0 1 0 -1\n")
    rc, _ = run_cli(capsys, "check", str(f))
    assert rc == 2


def test_json_input_mode(tmp_path, capsys):
    f = tmp_path / "matrix.json"
    f.write_text(json.dumps({"matrix": [list(r) for r in EXAMPLE_A]}))
    rc, out = run_cli(capsys, "check", str(f), "--json")
    assert rc == 0
    assert json.loads(out)["strongly_robust"] is True


def test_graver_letters(capsys):
    rc, out = run_cli(capsys, "graver", EXAMPLE_FILE, "--letters")
    assert rc == 0
    assert "a^3*e*f^2 - b*c^3*d" in out


def test_graver_oracle_flag(capsys):
    rc, out = run_cli(capsys, "graver", EXAMPLE_FILE, "--oracle")
    assert rc == 0
    doc = json.loads(out)
    assert doc["oracle"]["graver_match"] is True
    assert doc["oracle"]["indispensable_match"] is True


def test_oracle_mismatch_exit_three(monkeypatch, capsys):
    import galerobust.oracle

    real = galerobust.oracle.graver_bruteforce

    def short_by_one(b, radius):
        # The true set less its least element.
        return frozenset(sorted(real(b, radius))[1:])

    monkeypatch.setattr(galerobust.oracle, "graver_bruteforce", short_by_one)
    rc, out = run_cli(capsys, "graver", EXAMPLE_FILE, "--oracle")
    assert rc == 3
    assert json.loads(out)["oracle"]["graver_match"] is False


def test_indispensable_and_markov_commands(capsys):
    rc, out = run_cli(capsys, "indispensable", EXAMPLE_FILE)
    assert rc == 0
    assert len(json.loads(out)["indispensable"]) == 6
    rc, out = run_cli(capsys, "markov", EXAMPLE_FILE)
    assert rc == 0
    doc = json.loads(out)
    assert doc["complete_intersection"] is False
    assert len(doc["markov"]) == 6


@pytest.mark.xfail(
    strict=True,
    reason="markov prints the indispensable set, which falls short of a minimal "
    "generating set on complete intersections: [] and one binomial here",
)
def test_markov_prints_at_least_two_generators_of_a_height_two_ideal(tmp_path, capsys):
    # By Krull's height theorem an ideal of height 2 needs two generators;
    # the second matrix is instance 7 of the acceptance suite.
    for rows in ([[1, 1, 1]], [[-2, 2, 0, 4], [-2, -3, -2, -1]]):
        path = tmp_path / "m.mat"
        path.write_text(format_matrix(IntegerMatrix(rows)))
        rc, out = run_cli(capsys, "markov", str(path))
        assert rc == 0
        assert len(json.loads(out)["markov"]) >= 2


def test_bouquets_command(capsys):
    rc, out = run_cli(capsys, "bouquets", EXAMPLE_FILE)
    assert rc == 0
    doc = json.loads(out)
    assert doc["mixed_count"] == 2
    assert len(doc["bouquets"]) == 4


def test_gale_command(capsys):
    rc, out = run_cli(capsys, "gale", EXAMPLE_FILE)
    assert rc == 0
    doc = json.loads(out)
    assert doc["positively_graded"] is True
    assert doc["reduced_gale"]["rows"] == [
        [-2, 1], [-1, -2], [2, -1], [1, 0], [1, 2], [0, 1]
    ]


def test_oracle_command(capsys):
    rc, out = run_cli(capsys, "oracle", EXAMPLE_FILE)
    assert rc == 0
    doc = json.loads(out)
    assert doc["oracle"]["graver_match"] is True


def test_oracle_radius_override(capsys):
    rc, out = run_cli(capsys, "oracle", EXAMPLE_FILE, "--radius", "9")
    assert rc == 0
    assert json.loads(out)["oracle"]["radius"] == 9


@pytest.mark.parametrize(
    "argv",
    [("oracle", EXAMPLE_FILE, "--radius", "0"), ("graver", EXAMPLE_FILE, "--oracle", "--radius", "-1")],
)
def test_radius_below_one_is_an_input_error(capsys, argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "--radius" in lines[0]


def test_shell_warning_is_one_stderr_line(capsys):
    filters = list(warnings.filters)
    rc = main(["oracle", CUBIC_FILE, "--radius", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert json.loads(captured.out)["oracle"]["radius"] == 2
    assert captured.err.splitlines() == [
        "warning: ShellWarning: a primitive element touches the outer shell of the "
        "radius-2 box; rerun with a larger radius"
    ]
    assert warnings.filters == filters


def test_radius_is_unused_without_the_oracle(capsys):
    rc, out = run_cli(capsys, "graver", EXAMPLE_FILE, "--radius", "0")
    assert rc == 0
    assert "oracle" not in json.loads(out)


def test_out_flag_writes_identical_bytes(tmp_path, capsys):
    rc, out = run_cli(capsys, "check", EXAMPLE_FILE)
    target = tmp_path / "report.json"
    rc2 = main(["check", EXAMPLE_FILE, "--out", str(target)])
    capsys.readouterr()
    assert rc == rc2 == 0
    assert target.read_text() == out


def test_report_determinism_across_processes():
    cmd = [sys.executable, "-m", "galerobust", "check", EXAMPLE_FILE]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_report_matches_golden_bytes(capsys):
    # Frozen with: python -m galerobust check tests/data/example_4x6.mat
    rc, out = run_cli(capsys, "check", EXAMPLE_FILE)
    assert rc == 0
    assert out == (DATA / "example_4x6.report.json").read_text()


def test_svg_matches_golden_bytes(tmp_path, capsys):
    # Frozen with: python -m galerobust plot ... --out tests/data/example_4x6.svg
    target = tmp_path / "example.svg"
    rc = main(["plot", EXAMPLE_FILE, "--out", str(target)])
    capsys.readouterr()
    assert rc == 0
    assert target.read_text() == (DATA / "example_4x6.svg").read_text()


def test_plot_example(tmp_path, capsys):
    target = tmp_path / "diagram.svg"
    rc = main(["plot", EXAMPLE_FILE, "--out", str(target)])
    capsys.readouterr()
    assert rc == 0
    svg = target.read_text()
    assert svg.count('class="gale-arrow"') == 6
    assert svg.count('class="ha-dot"') == 12
    assert svg.count('class="hull"') == 1


def test_plot_stays_inside_its_view_box(tmp_path, capsys):
    # Reduced rows (-600, 1), (301, 1), (-300, -1): past 340 a unit is one
    # pixel, and the view must widen to hold them.
    f = tmp_path / "wide.mat"
    f.write_text("1 3\n1 900 901\n")
    target = tmp_path / "wide.svg"
    assert main(["plot", str(f), "--out", str(target)]) == 0
    capsys.readouterr()
    svg = target.read_text()
    side = int(re.search(r'viewBox="0 0 (\d+) \1"', svg).group(1))
    coords = re.findall(r' (?:x|y|cx|cy)\d?="(-?\d+)"', svg)
    for points in re.findall(r'points="([^"]*)"', svg):
        coords += re.findall(r"-?\d+", points)
    assert len(coords) > 20
    assert all(0 <= int(v) <= side for v in coords)


def test_plot_rejects_bad_input_without_writing(tmp_path, capsys):
    bad = tmp_path / "ungraded.mat"
    bad.write_text("2 4\n1 0 -1 0\n0 1 0 -1\n")
    target = tmp_path / "never.svg"
    rc = main(["plot", str(bad), "--out", str(target)])
    capsys.readouterr()
    assert rc == 2
    assert not target.exists()


def test_plot_draws_the_reports_core(tmp_path, capsys, acceptance_suite):
    # plot runs the fan stages up to the core itself; it must draw the
    # reduced rows and the core that is_strongly_robust reports.
    paths = [EXAMPLE_FILE, CUBIC_FILE]
    for i, m in enumerate(acceptance_suite[:10]):
        path = tmp_path / f"suite_{i}.mat"
        path.write_text(format_matrix(m))
        paths.append(str(path))
    target = tmp_path / "drawn.svg"
    for path in paths:
        assert main(["plot", path, "--out", str(target)]) == 0
        report = is_strongly_robust(parse_matrix_text(Path(path).read_text()))
        assert target.read_text() == render_svg(report.reduced.rows, report.h_core), path
    capsys.readouterr()


# Every non-``plot`` form, pinned by one sha256 per form over all inputs.
# Frozen before the subcommands were folded into one report document;
# the three forms that print ``complete_intersection`` were refrozen when
# that flag became "at most two indispensables", which flips it to true
# on 12 of the 30 random inputs and changes no other byte.
# Each input contributes its exit code and stdout; an input error also
# contributes stderr (``check`` prints a timing there otherwise).
CLI_DIGESTS = {
    "check --letters": "5de4aeb1215fb8cc1db1708b0610a855390de5d2c2ea0c5010638cdef57a3866",
    "graver": "83686a0308fe8494a2b11e40979e02d4b204e06fccbda0f3687cb850a99ba7b2",
    "indispensable": "033ae534e9c26e0dc4deab485a8b3adf00c5bc77de40366b1f4ef88613e4c03d",
    "markov": "8d7d480a71daec65087e35b66cc3f66b46afcf5e52e124662cdde4c32cd31c2c",
    "bouquets": "91afcbb17489a8a3303882a1a646795381f8593cc65271143f151d30db325fff",
    "gale": "a0a0275c595a22455ed4bbf115e7ae522d86c5d5a231e5912d383cb60518f33a",
    "oracle": "ada8bcf12fdd18588406e4a8f2937f91d4dc429033c68e3e04b9be1fda7ba3ec",
    "graver --oracle": "c6a29717cf5dfb7a35e85034072078fd41374bb84db0816bdaca5189140401d2",
    "markov --oracle --letters": "58f2cd31eb84126d6a4669dcba99fc39f0786705cf0266255871b0469425391e",
}
# Wrong rank, a zero Gale row (x1 is in no kernel vector), not graded.
INVALID_INPUTS = (
    "3 3\n1 0 0\n0 1 0\n0 0 1\n",
    "2 4\n1 0 0 0\n0 1 1 1\n",
    "2 4\n1 0 -1 0\n0 1 0 -1\n",
)
# The brute-force forms take about 0.1 s per 7-column input, so they run
# on the first ORACLE_INPUTS files only.
ORACLE_INPUTS = 14


@pytest.fixture(scope="module")
def digest_inputs(tmp_path_factory) -> list[str]:
    """The bundled files, 30 seeded suite-style matrices, three bad files."""
    root = tmp_path_factory.mktemp("digest")
    texts = [format_matrix(m) for m in random_valid_instances(30, seed=1111)]
    paths = [EXAMPLE_FILE, CUBIC_FILE]
    for i, text in enumerate(texts + list(INVALID_INPUTS)):
        path = root / f"m{i:02d}.mat"
        path.write_text(text)
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("form", sorted(CLI_DIGESTS))
def test_subcommand_output_digest(digest_inputs, form):
    argv = form.split()
    paths = digest_inputs
    if "oracle" in form:
        paths = paths[:ORACLE_INPUTS] + paths[-len(INVALID_INPUTS):]
    h = hashlib.sha256()
    for path in paths:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([argv[0], path, *argv[1:]])
        h.update(f"{rc}\n{out.getvalue()}\0".encode())
        if rc == 2:
            h.update(f"{err.getvalue()}\0".encode())
    assert h.hexdigest() == CLI_DIGESTS[form]


# ------------------------------------------------------- document writer


@st.composite
def _rendered_binomials(draw):
    z = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=30).filter(any))
    return render_binomial(binomial_from_vector(z), draw(st.booleans()))


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1]),
    st.integers(-(2**70), 2**70),
    _rendered_binomials(),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E)),
    # Quotes, backslashes, control characters, DEL, non-ASCII and
    # non-BMP characters take json.dumps's escapes.
    st.text(),
    st.sampled_from(['a"b', "a\\b", "line\nbreak", "\x7f", "caf\u00e9", "\U0001d53e"]),
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(st.one_of(st.integers(-(2**70), 2**70), st.booleans()), max_size=6),
        st.dictionaries(st.text("abcdefghij_", min_size=1, max_size=8), kids, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=500, deadline=None)
@given(_DOCUMENTS)
def test_document_writer_matches_json_dumps_reference(doc):
    assert _compact_json(doc) == reference_compact_json(doc)
