"""The command line's exit-code contract on small fuzzed files.

Every in-process `cli.main` run on a small code and word file, valid or
mangled, exits 0, 2, 3 or 4; 2 and 3 come only from `decode`. Nothing is
raised out of `main`, and an exit 4 prints one line on stderr that starts
with `error: `. Exit 1 (a failed cross-check) and exit 5 (an internal
failure) would each be a fault at these sizes.

About half the cases carry one fault: a bad modulus or header, a wrong
row count or width, an out-of-range entry or a token that is not an
ASCII decimal integer, a mangled word, or an argument out of range. The
rest are valid, so every subcommand also runs to its end.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from coldec.cli import main

MODULI = [2, 3, 5, 7, 65521]
BAD_MODULI = [0, 1, 4]
BAD_TOKENS = ["1_1", "x", "１", "1.5", "0x1", "+-1"]
COMMANDS = ["mindist", "decode", "count-min", "count-diff", "check-reg", "simulate"]
WITH_ORACLE = ["mindist", "decode", "count-min"]
FAULTS = ["modulus", "header", "rows", "width", "entry", "word", "argument"]


def text(rows):
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


@st.composite
def mangled(draw, rows, p, what):
    """`rows` with one fault of kind `what` in it."""
    rows = [list(row) for row in rows]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    if what == "rows":
        rows = rows[:-1] if draw(st.booleans()) else rows + rows[:1]
    elif what == "width":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [0]
    elif what == "entry":
        rows[i][j] = draw(st.sampled_from([-1, p, 2**70] + BAD_TOKENS))
    return rows


@st.composite
def invocations(draw):
    """(code text, word text, argv with CODE and WORD placeholders)."""
    fault = draw(st.sampled_from([None] * len(FAULTS) + FAULTS))
    p = draw(st.sampled_from(BAD_MODULI if fault == "modulus" else MODULI))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 8))
    entries = st.integers(0, max(p, 2) - 1)
    G = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    if draw(st.integers(0, 3)):  # mostly full rank: an identity in k columns
        cols = draw(st.permutations(range(n)))[:k]
        for i, row in enumerate(G):
            for r, c in enumerate(cols):
                row[c] = int(r == i)
    # A codeword plus an error of weight at most 2.
    msg = draw(st.lists(entries, min_size=k, max_size=k))
    word = [sum(m * row[c] for m, row in zip(msg, G)) for c in range(n)]
    for c in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        word[c] += draw(entries)
    word = [x % max(p, 2) for x in word]

    header = f"{p} {k} {n}"
    if fault == "header":
        bad_headers = [f"{p} {k}", f"{p} {k} {n} 1", f"{p} {k} x", f"{p} {k + 1} {n}"]
        header = draw(st.sampled_from(bad_headers))
    if fault in ("rows", "width", "entry"):
        G = draw(mangled(G, p, fault))
    words = [word]
    if fault == "word":
        words = draw(mangled(words, p, draw(st.sampled_from(["rows", "width", "entry"]))))

    command = draw(st.sampled_from(COMMANDS))
    bad = fault == "argument"
    argv = ["--oracle-threshold", "3"] if bad and draw(st.booleans()) else []
    argv.append(command)
    if command == "decode" and draw(st.booleans()):
        argv += ["--colon-power", str(draw(st.sampled_from([-1] if bad else [0, 1, 2, 40])))]
    if command == "count-diff":
        rows = [-1, 0, k + 1] if bad else list(range(1, k + 1))
        argv += ["--row", str(draw(st.sampled_from(rows)))]
    if command == "simulate":
        argv += ["--trials", str(draw(st.sampled_from([-1, 0] if bad else [1, 2])))]
        errors = [-1, n + 1] if bad else list(range(n + 1))
        argv += ["--errors", str(draw(st.sampled_from(errors))), "--seed", "7"]
    if (command in WITH_ORACLE or bad) and draw(st.booleans()):
        argv.append("--oracle")
    argv.append("CODE")
    if command in ("decode", "check-reg"):
        argv.append("WORD")
    return header + "\n" + text(G), text(words), argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz_cli")
    return base / "c.code", base / "c.word"


@given(case=invocations())
@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_run_exits_with_a_documented_code(files, case):
    code_text, word_text, argv = case
    code, word = files
    code.write_text(code_text, encoding="utf-8")
    word.write_text(word_text, encoding="utf-8")
    argv = [{"CODE": str(code), "WORD": str(word)}.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    err = err.getvalue()
    event(f"{next(a for a in argv if a in COMMANDS)} exit {rc}")
    assert rc in (0, 2, 3, 4), (argv, rc, err)
    assert rc not in (2, 3) or "decode" in argv, (argv, rc)
    if rc == 4:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)
