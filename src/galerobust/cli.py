"""Command-line interface.

Every subcommand reads one matrix file, runs the requested computation
and prints a deterministic JSON document to stdout (or --out).  Exit
codes: 0 success / strongly robust, 1 computed but not strongly robust,
2 invalid input or violated precondition, 3 oracle mismatch.

``check`` prints the whole report document, and ``plot`` writes an SVG
to --out.  The other subcommands print ``version`` and ``input``
followed by their own keys of the report document:

    gale           gale, reduced_gale, positively_graded
    bouquets       bouquets, mixed_count
    graver         graver
    indispensable  indispensable
    markov         markov, complete_intersection
    oracle         none; it adds the brute-force ``oracle`` section, as
                   ``--oracle`` does for graver, indispensable and markov

A subcommand imports only the modules it runs: the fan pipeline
(``toric``, ``hilbert``) and ``svgplot`` are imported inside the commands
that use them, so ``gale`` and ``bouquets`` never load them and ``plot``
loads no ``toric``, and ``oracle`` is imported only on the oracle paths
(the ``oracle`` subcommand and ``--oracle``).  ``json`` is imported only
to read ``--json`` input or to quote a string that is not plain
printable ASCII.  No module of the package imports ``typing``:
annotations are never evaluated, and their names come from
``collections.abc``.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings

from . import __version__
from .errors import GaleRobustError
from .gale import bouquets, gale_transform, is_positively_graded, reduce_configuration
from .intlinalg import IntegerMatrix
from .matrixio import load_matrix


def _too_many_digits(exc: ValueError) -> GaleRobustError:
    # The digit limit of str(int) holds for the whole interpreter, so it is
    # left as it is: main() also runs inside other programs.
    return GaleRobustError(f"output integer: {exc}")


def _binomial_list(bins, letters: bool) -> list[dict]:
    from .toric import render_binomial

    try:
        return [
            {
                "plus": list(b.plus),
                "minus": list(b.minus),
                "pretty": render_binomial(b, letters),
            }
            for b in sorted(bins)
        ]
    except ValueError as exc:  # an exponent past the digit limit
        raise _too_many_digits(exc) from None


def _head(m: IntegerMatrix) -> dict:
    """The keys every document starts with: version and the input echo."""
    return {
        "version": __version__,
        "input": {"rows": m.nrows, "cols": m.ncols, "entries": [list(r) for r in m.rows]},
    }


def _gale_section(b, reduced) -> dict:
    return {
        "gale": [list(r) for r in b.rows],
        "reduced_gale": {
            "rows": [list(r) for r in reduced.rows],
            "index_map": list(range(len(reduced.rows))),
            "angular_order": list(reduced.angular_order),
        },
        "positively_graded": is_positively_graded(b),
    }


def _bouquet_section(qs) -> dict:
    return {
        "bouquets": [
            {"members": sorted(q.members), "direction": list(q.direction), "mixed": q.mixed}
            for q in qs
        ],
        "mixed_count": sum(1 for q in qs if q.mixed),
    }


def _report_document(m: IntegerMatrix, report: RobustnessReport, letters: bool) -> dict:
    # The Markov list is the indispensable set; the docstring of
    # RobustnessReport.complete_intersection says when it falls short of
    # generating the ideal.
    indispensable = _binomial_list(report.indispensable, letters)
    return {
        **_head(m),
        **_gale_section(report.gale, report.reduced),
        "fan_cones": [[list(c.a), list(c.b)] for c in report.h_union.cones],
        "hilbert_union": [
            {"vector": list(v), "cones": list(idx)}
            for v, idx in report.h_union.provenance
        ],
        "h_core": [list(v) for v in report.h_core],
        "indispensable": indispensable,
        "graver": _binomial_list(report.graver, letters),
        "markov": indispensable,
        "complete_intersection": report.complete_intersection,
        **_bouquet_section(report.bouquets),
        "centrally_symmetric": report.centrally_symmetric,
        "strongly_robust": report.strongly_robust,
        "witness": list(report.witness) if report.witness is not None else None,
    }


# The report document's keys that graver, indispensable and markov print,
# each built only when asked for.  The Markov list is the indispensable set.
_SECTIONS = {
    "graver": lambda report, letters: _binomial_list(report.graver, letters),
    "indispensable": lambda report, letters: _binomial_list(report.indispensable, letters),
    "markov": lambda report, letters: _binomial_list(report.indispensable, letters),
    "complete_intersection": lambda report, letters: report.complete_intersection,
}


def _compact_json(value, indent: int = 0) -> str:
    """The text of json.dumps with indent, except lists of ints stay on one line.

    Scalars are written here: true, false, null, ints, and strings of
    printable ASCII without a quote or a backslash, which need no escape.
    Any other value goes to json.dumps, imported only then.
    """
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{k}": {_compact_json(v, indent + 1)}' for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if all(isinstance(x, int) and not isinstance(x, bool) for x in value):
            return "[" + ", ".join(str(x) for x in value) + "]"
        items = [f"{pad}  {_compact_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):  # before int: True is an int
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if (
        isinstance(value, str)
        and value.isascii()
        and value.isprintable()
        and '"' not in value
        and "\\" not in value
    ):
        return f'"{value}"'
    import json

    return json.dumps(value)


def _emit(doc, out_path: str | None) -> None:
    try:
        text = _compact_json(doc) + "\n"
    except ValueError as exc:  # an integer past the digit limit
        raise _too_many_digits(exc) from None
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_oracle_comparison(
    report: RobustnessReport, radius: int | None, letters: bool
) -> dict:
    from .hilbert import fan_radius_bound
    from .oracle import SHELL_WIDTH, _indispensable_among, graver_bruteforce

    b = report.gale
    if radius is None:
        radius = fan_radius_bound(report.reduced) + SHELL_WIDTH
    # A warning is one stderr line, like the errors; the filters in force
    # are kept and restored.
    with warnings.catch_warnings(record=True) as caught:
        brute = graver_bruteforce(b, radius)
    for w in caught:
        print(f"warning: {w.category.__name__}: {w.message}", file=sys.stderr)
    indisp_oracle = _indispensable_among(b, brute)
    return {
        "radius": radius,
        "bruteforce_graver": _binomial_list(brute, letters),
        "graver_match": brute == report.graver,
        "indispensable_match": indisp_oracle == report.indispensable,
    }


def cmd_check(args) -> int:
    from .toric import is_strongly_robust

    m = load_matrix(args.path, args.json)
    t0 = time.monotonic()
    doc = _report_document(m, is_strongly_robust(m), args.letters)
    elapsed = time.monotonic() - t0
    _emit(doc, args.out)
    print(f"elapsed_ms={elapsed * 1000:.1f}", file=sys.stderr)
    return 0 if doc["strongly_robust"] else 1


def cmd_report_keys(args) -> int:
    """The head and ``args.keys`` of the report, plus the oracle if asked.

    Only those keys are built, with the values ``check`` gives them.
    """
    from .toric import is_strongly_robust

    m = load_matrix(args.path, args.json)
    report = is_strongly_robust(m)
    doc = _head(m)
    for k in args.keys:
        doc[k] = _SECTIONS[k](report, args.letters)
    rc = 0
    if args.oracle:
        oracle_doc = doc["oracle"] = _run_oracle_comparison(report, args.radius, args.letters)
        if not (oracle_doc["graver_match"] and oracle_doc["indispensable_match"]):
            rc = 3
    _emit(doc, args.out)
    return rc


def cmd_gale(args) -> int:
    m = load_matrix(args.path, args.json)
    b = gale_transform(m)
    _emit({**_head(m), **_gale_section(b, reduce_configuration(b))}, args.out)
    return 0


def cmd_bouquets(args) -> int:
    m = load_matrix(args.path, args.json)
    _emit({**_head(m), **_bouquet_section(bouquets(gale_transform(m)))}, args.out)
    return 0


def cmd_plot(args) -> int:
    # The drawing needs only the reduced rows and the symmetric core: the
    # stages of is_strongly_robust up to the core, which fail as it does.
    from .hilbert import fan_hilbert_union, half_turn_and_core
    from .svgplot import render_svg

    m = load_matrix(args.path, args.json)
    reduced = reduce_configuration(gale_transform(m))
    svg = render_svg(reduced.rows, half_turn_and_core(fan_hilbert_union(reduced))[1])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galerobust",
        description=(
            "Decide strong robustness of a codimension-2 toric ideal from its "
            "Gale diagram and print the certificates as JSON."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, oracle_flag=False):
        p.add_argument("path", help="matrix file ('d n' header + entries, '#' comments)")
        p.add_argument("--json", action="store_true", help="input file is JSON")
        p.add_argument("--letters", action="store_true", help="render variables a..z when possible")
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        if oracle_flag:
            p.add_argument(
                "--oracle",
                action="store_true",
                help="also run the brute-force oracle; exit 3 on mismatch",
            )
            p.add_argument("--radius", type=int, help="override the oracle box radius")

    p = sub.add_parser("check", help="full robustness report (exit 0 robust, 1 not)")
    add_common(p)
    p.set_defaults(func=cmd_check)

    for name, keys, help_text in (
        ("graver", ("graver",), "Graver basis"),
        ("indispensable", ("indispensable",), "indispensable binomials"),
        ("markov", ("markov", "complete_intersection"), "minimal generating set (Markov basis)"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p, oracle_flag=True)
        p.set_defaults(func=cmd_report_keys, keys=keys)

    p = sub.add_parser("bouquets", help="bouquet decomposition")
    add_common(p)
    p.set_defaults(func=cmd_bouquets)

    p = sub.add_parser("gale", help="Gale and reduced Gale configurations")
    add_common(p)
    p.set_defaults(func=cmd_gale)

    p = sub.add_parser("oracle", help="brute-force cross-check of the fan results")
    add_common(p)
    p.add_argument("--radius", type=int, help="override the oracle box radius")
    p.set_defaults(func=cmd_report_keys, keys=(), oracle=True)

    p = sub.add_parser("plot", help="SVG drawing of the reduced diagram")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="input file is JSON")
    p.add_argument("--out", metavar="PATH", required=True, help="output SVG path")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # --radius sizes the oracle's box scan: checked only where the oracle
    # runs (args.oracle, which the oracle subcommand sets), before any work.
    radius = getattr(args, "radius", None)
    if radius is not None and radius < 1 and args.oracle:
        print(f"error: --radius must be at least 1, got {radius}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (GaleRobustError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
