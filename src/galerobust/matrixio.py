"""Reading and writing matrices in the plain 'd n + entries' text format.

The format: an optional run of '#' comment lines, a header with the two
counts d and n, then d*n whitespace-separated integers (arbitrary
magnitude, parsed exactly).  Every count and entry is an ASCII
``[+-]?[0-9]+`` token; underscores and non-ASCII digits are rejected.
A JSON form is also accepted: either a bare list of rows or an object
with a "matrix" key.
"""

from __future__ import annotations

from .errors import MatrixFormatError
from .intlinalg import IntegerMatrix


def _int_token(token: str, what: str) -> int:
    # int() alone would also take "1_0" and non-ASCII digits (U+FF13).
    digits = token[1:] if token[0] in "+-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise MatrixFormatError(f"bad {what}: {token!r} is not an integer")
    try:
        return int(token)
    except ValueError as exc:  # past the interpreter's digit limit
        raise MatrixFormatError(f"bad {what}: {exc}") from None


def parse_matrix_text(text: str) -> IntegerMatrix:
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if len(tokens) < 2:
        raise MatrixFormatError("missing 'd n' header")
    d, n = _int_token(tokens[0], "header"), _int_token(tokens[1], "header")
    if d < 1 or n < 1:
        raise MatrixFormatError(f"header counts must be positive, got {d} {n}")
    body = tokens[2:]
    if len(body) != d * n:
        raise MatrixFormatError(
            f"expected {d * n} entries for a {d}x{n} matrix, found {len(body)}"
        )
    values = [_int_token(t, "entry") for t in body]
    return IntegerMatrix([values[i * n : (i + 1) * n] for i in range(d)])


def parse_matrix_json(text: str) -> IntegerMatrix:
    # Imported here, so that reading the text format never loads json.
    import json

    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, digit limit, deep nesting
        raise MatrixFormatError(f"invalid JSON: {exc}") from None
    rows = doc.get("matrix") if isinstance(doc, dict) else doc
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise MatrixFormatError("JSON input must be a list of rows or {'matrix': rows}")
    try:
        return IntegerMatrix(rows)
    except (TypeError, ValueError) as exc:  # a non-int entry, ragged rows
        raise MatrixFormatError(str(exc)) from None


def load_matrix(path: str, json_mode: bool = False) -> IntegerMatrix:
    try:
        # utf-8-sig also drops a leading byte-order mark.
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_matrix_json(text) if json_mode else parse_matrix_text(text)


def format_matrix(m: IntegerMatrix) -> str:
    lines = [f"{m.nrows} {m.ncols}"]
    lines.extend(" ".join(str(x) for x in row) for row in m.rows)
    return "\n".join(lines) + "\n"
