"""Text formats for codes, words, and decode results.

Code file: a header line ``p k n`` followed by k lines of n integers in
[0, p), whitespace-separated. An integer is written in ASCII decimal
digits with an optional sign; anything else, such as ``1_1`` or
non-ASCII digits, is a FormatError. Lines starting with ``#`` are comments;
blank lines are ignored. Word file: one line of n integers in [0, p).

Decode results serialize to a single JSON object with a fixed key order:
status, p, n, k, d, d_w, colon_power, error, nearest, message,
neighbor_count, point, elapsed_ms; keys whose value is undefined for the
status are omitted. `elapsed_ms` (and the simulator's per-trial `micros`
column) are the only non-deterministic fields.
"""

from __future__ import annotations

import json
import re

from .code import LinearCode
from .decoder import DecodeResult
from .field import PrimeField

__all__ = [
    "FormatError",
    "parse_code_text",
    "load_code",
    "parse_word_text",
    "load_word",
    "result_to_json",
]


class FormatError(ValueError):
    """Malformed code or word file content."""


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    return lines


_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def _int_tokens(line: str, what: str) -> list[int]:
    out = []
    for tok in line.split():
        # int() alone would also take "1_1" and non-ASCII digits.
        if not _INT_TOKEN.fullmatch(tok):
            raise FormatError(f"{what}: {tok!r} is not an integer")
        out.append(int(tok))
    return out


def parse_code_text(text: str) -> LinearCode:
    """Parse the text of a code file; FormatError when it is malformed."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError("code file is empty")
    header = _int_tokens(lines[0], "code file header")
    if len(header) != 3:
        raise FormatError(f"code file header must be 'p k n', got {lines[0]!r}")
    p, k, n = header
    try:
        field = PrimeField(p)
    except ValueError as exc:
        raise FormatError(f"code file header: {exc}") from None
    if k < 1 or n < 1:
        raise FormatError(f"code file header needs k >= 1 and n >= 1, got k={k} n={n}")
    if len(lines) - 1 != k:
        raise FormatError(f"expected {k} generator rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:]):
        row = _int_tokens(line, f"generator row {i + 1}")
        if len(row) != n:
            raise FormatError(f"generator row {i + 1} has {len(row)} entries, expected {n}")
        for x in row:
            if not 0 <= x < p:
                raise FormatError(f"generator row {i + 1}: entry {x} outside [0, {p})")
        rows.append(row)
    try:
        return LinearCode(field, rows)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def load_code(path: str) -> LinearCode:
    """Read and parse a UTF-8 code file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code_text(fh.read())


def parse_word_text(text: str, C: LinearCode):
    """Parse a word file's text as a word of C; FormatError when malformed."""
    lines = _content_lines(text)
    if len(lines) != 1:
        raise FormatError(f"word file must hold exactly one data line, found {len(lines)}")
    entries = _int_tokens(lines[0], "word")
    if len(entries) != C.n:
        raise FormatError(f"word has {len(entries)} entries, expected {C.n}")
    p = C.field.p
    for x in entries:
        if not 0 <= x < p:
            raise FormatError(f"word entry {x} outside [0, {p})")
    return C.field.reduce(entries)


def load_word(path: str, C: LinearCode):
    """Read and parse a UTF-8 word file for the code C."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_word_text(fh.read(), C)


def _int_list(arr) -> list[int]:
    return [int(x) for x in arr]


def result_to_json(
    C: LinearCode,
    result: DecodeResult,
    elapsed_ms: float,
    oracle_agrees: bool | None = None,
) -> str:
    """One line of decode JSON for `result`, in the key order above.

    `oracle_agrees`, when given, is appended as a last key.
    """
    out: dict = {"status": result.status.value, "p": C.field.p, "n": C.n, "k": C.k}
    out["d"] = result.d
    if result.d_w is not None:
        out["d_w"] = result.d_w
    if result.colon_power is not None:
        out["colon_power"] = result.colon_power
    if result.error is not None:
        out["error"] = _int_list(result.error)
    if result.nearest is not None:
        out["nearest"] = _int_list(result.nearest.v)
    if result.message is not None:
        out["message"] = _int_list(result.message)
    if result.neighbor_count is not None:
        out["neighbor_count"] = result.neighbor_count
    if result.point is not None:
        out["point"] = _int_list(result.point.coords)
    out["elapsed_ms"] = round(float(elapsed_ms), 3)
    if oracle_agrees is not None:
        out["oracle_agrees"] = bool(oracle_agrees)
    return json.dumps(out)
