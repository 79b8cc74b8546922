"""Text formats: code files, word files, and the decode-result JSON."""

import json

import numpy as np
import pytest

from coldec import DecodeStatus, decode
from coldec.fileio import (
    FormatError,
    parse_code_text,
    parse_word_text,
    result_to_json,
)

DEMO_TEXT = """\
# demo code
2 3 6
1 0 0 1 1 0
0 1 0 1 0 1

0 0 1 0 1 1
"""


def test_parse_code_skips_comments_and_blanks():
    C = parse_code_text(DEMO_TEXT)
    assert (C.field.p, C.k, C.n) == (2, 3, 6)
    assert C.G.a.tolist()[0] == [1, 0, 0, 1, 1, 0]


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "4 2 3\n1 0 1\n0 1 1\n",  # modulus not prime
        "2 2\n1 0\n0 1\n",  # truncated header
        "2 2 3\n1 0 1\n",  # missing a row
        "2 2 3\n1 0 1\n0 1 1\n1 1 1\n",  # extra row
        "2 2 3\n1 0\n0 1 1\n",  # short row
        "2 2 3\n1 0 2\n0 1 1\n",  # entry out of range
        "2 2 3\n1 0 1\n2 0 2\n",  # rank-deficient after reduction
        "2 2 3\na b c\n0 1 1\n",  # non-integer tokens
        "2 2 3\n1_1 0 1\n0 1 1\n",  # digit separator, read by int() as 11
        "2 2 3\n1 0 1\n0 \u0661 1\n",  # Arabic-Indic digit one
        "2 2 3\n1 0 1\n0 \uff11 1\n",  # fullwidth digit one
        "2 2 3\n1 0 1.0\n0 1 1\n",  # decimal point
    ],
)
def test_parse_code_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_code_text(text)


def test_parse_word(demo_code):
    w = parse_word_text("# received\n0 1 1 1 0 0\n", demo_code)
    assert w.tolist() == [0, 1, 1, 1, 0, 0]
    signed = parse_word_text("+0 1 1 1 -0 00\n", demo_code)
    assert signed.tolist() == [0, 1, 1, 1, 0, 0]


@pytest.mark.parametrize(
    "text",
    [
        "",  # no data line
        "0 1 1\n",  # wrong length
        "0 1 1 1 0 0\n1 0 0 0 0 0\n",  # two data lines
        "0 1 1 1 0 2\n",  # out of range
        "0 1 x 1 0 0\n",  # non-integer
        "0 1 1 1 0 0_0\n",  # digit separator, read by int() as 0
        "0 1 1 1 0 \u0660\n",  # Arabic-Indic digit zero
        "0 1 1 1 0 \uff10\n",  # fullwidth digit zero
    ],
)
def test_parse_word_rejects_malformed(text, demo_code):
    with pytest.raises(FormatError):
        parse_word_text(text, demo_code)


def test_result_json_key_order(demo_code, demo_word):
    res = decode(demo_code, demo_word)
    blob = result_to_json(demo_code, res, elapsed_ms=1.23456)
    data = json.loads(blob)
    assert list(data) == [
        "status",
        "p",
        "n",
        "k",
        "d",
        "d_w",
        "colon_power",
        "error",
        "nearest",
        "message",
        "point",
        "elapsed_ms",
    ]
    assert data["status"] == "corrected"
    assert data["elapsed_ms"] == 1.235
    assert data["error"] == [0, 0, 0, 0, 1, 0]
    assert data["point"] == [0, 1, 1, 1]


def test_result_json_oracle_flag_is_last(demo_code, demo_word):
    res = decode(demo_code, demo_word)
    data = json.loads(result_to_json(demo_code, res, elapsed_ms=0.5, oracle_agrees=True))
    assert list(data)[-1] == "oracle_agrees"
    assert data["oracle_agrees"] is True


def test_ambiguous_json_shape(demo_code):
    res = decode(demo_code, [1, 1, 1, 1, 1, 1])
    assert res.status is DecodeStatus.AMBIGUOUS
    data = json.loads(result_to_json(demo_code, res, elapsed_ms=0.1))
    assert data["neighbor_count"] == 3
    assert list(data) == ["status", "p", "n", "k", "d", "d_w", "neighbor_count", "elapsed_ms"]


def test_uncorrectable_json_shape():
    from coldec import LinearCode, PrimeField

    C = LinearCode(PrimeField(2), [[1, 1, 0], [0, 0, 1]])
    res = decode(C, [1, 0, 0])
    data = json.loads(result_to_json(C, res, elapsed_ms=0.2))
    assert data["status"] == "uncorrectable"
    assert list(data) == ["status", "p", "n", "k", "d", "elapsed_ms"]
