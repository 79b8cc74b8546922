"""Command-line surface: outputs, exit codes, determinism."""

import dataclasses
import json
import re

import pytest

from coldec import cli, decoder
from coldec.cli import main
from coldec.ideals import ProjectivePoint
from coldec.polybasis import BinomialOverflowError
from conftest import DEMO_G, DEMO_W

DEMO_CODE_TEXT = "2 3 6\n" + "\n".join(" ".join(map(str, row)) for row in DEMO_G) + "\n"
DEMO_WORD_TEXT = " ".join(map(str, DEMO_W)) + "\n"


@pytest.fixture()
def demo_files(tmp_path):
    code = tmp_path / "demo.code"
    word = tmp_path / "demo.word"
    code.write_text(DEMO_CODE_TEXT)
    word.write_text(DEMO_WORD_TEXT)
    return str(code), str(word)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_mindist(demo_files, capsys):
    code, _ = demo_files
    rc, out, _ = run(capsys, "mindist", code)
    assert rc == 0
    assert out.strip() == "n=6 k=3 d=3"


def test_mindist_oracle(demo_files, capsys):
    code, _ = demo_files
    rc, out, _ = run(capsys, "mindist", "--oracle", code)
    assert rc == 0
    assert out.strip() == "n=6 k=3 d=3 oracle_d=3 agree=true"


@pytest.mark.parametrize(
    "command,oracle_name,line,what",
    [
        (
            "mindist",
            "enumerate_min_distance",
            "n=6 k=3 d=3 oracle_d=7 agree=false",
            "rank criterion",
        ),
        (
            "count-min",
            "projective_min_weight_count",
            "d=3 count=4 oracle_count=7 agree=false",
            "ideal degree",
        ),
    ],
)
def test_oracle_disagreement_exits_1(
    demo_files, capsys, monkeypatch, command, oracle_name, line, what
):
    # an oracle that counts 7 where the rank computations find 3 and 4
    monkeypatch.setattr(cli.oracle, oracle_name, lambda C, threshold: 7)
    code, _ = demo_files
    rc, out, err = run(capsys, command, "--oracle", code)
    assert rc == 1
    assert out == line + "\n"
    assert err == f"cross-check failed: {what} disagrees with enumeration\n"


def test_decode_json(demo_files, capsys):
    code, word = demo_files
    rc, out, _ = run(capsys, "decode", code, word)
    assert rc == 0
    data = json.loads(out)
    assert data["status"] == "corrected"
    assert data["d"] == 3 and data["d_w"] == 1
    assert data["error"] == [0, 0, 0, 0, 1, 0]
    assert data["nearest"] == [0, 1, 1, 1, 1, 0]
    assert data["message"] == [0, 1, 1]
    assert data["point"] == [0, 1, 1, 1]
    assert data["colon_power"] == 1
    assert "elapsed_ms" in data


def test_decode_oracle_cross_check(demo_files, capsys):
    code, word = demo_files
    rc, out, _ = run(capsys, "decode", "--oracle", code, word)
    assert rc == 0
    data = json.loads(out)
    assert data["oracle_agrees"] is True
    assert list(data)[-1] == "oracle_agrees"


def test_decode_explicit_colon_power(demo_files, capsys):
    code, word = demo_files
    rc, out, _ = run(capsys, "decode", "--colon-power", "1", code, word)
    assert rc == 0
    assert json.loads(out)["colon_power"] == 1


def test_decode_in_code_word(demo_files, capsys, tmp_path):
    code, _ = demo_files
    word = tmp_path / "in.word"
    word.write_text("0 1 0 1 0 1\n")
    rc, out, _ = run(capsys, "decode", code, str(word))
    assert rc == 0
    data = json.loads(out)
    assert data["status"] == "in_code"
    assert data["message"] == [0, 1, 0]


def test_decode_ambiguous_exit_2(tmp_path, capsys):
    code = tmp_path / "rep.code"
    code.write_text("2 1 4\n1 1 1 1\n")
    word = tmp_path / "w.word"
    word.write_text("1 1 0 0\n")
    rc, out, _ = run(capsys, "decode", str(code), str(word))
    assert rc == 2
    data = json.loads(out)
    assert data["status"] == "ambiguous"
    assert data["neighbor_count"] == 2


def test_decode_uncorrectable_exit_3(tmp_path, capsys):
    code = tmp_path / "c.code"
    code.write_text("2 2 3\n1 1 0\n0 0 1\n")
    word = tmp_path / "w.word"
    word.write_text("1 0 0\n")
    rc, out, _ = run(capsys, "decode", str(code), str(word))
    assert rc == 3
    assert json.loads(out)["status"] == "uncorrectable"


def test_zero_coordinate_carries_no_weight(tmp_path, capsys):
    # every codeword is zero in the last coordinate, so d = 2 and 0001 has
    # the unique nearest codeword 0000 at distance 1
    code = tmp_path / "z.code"
    code.write_text("2 2 4\n1 0 1 0\n0 1 1 0\n")
    word = tmp_path / "w.word"
    word.write_text("0 0 0 1\n")
    rc, out, _ = run(capsys, "decode", "--oracle", str(code), str(word))
    assert rc == 0
    data = json.loads(out)
    assert data["status"] == "corrected" and data["d"] == 2
    assert data["nearest"] == [0, 0, 0, 0]
    assert data["oracle_agrees"] is True
    rc, out, _ = run(capsys, "mindist", "--oracle", str(code))
    assert rc == 0
    assert out.strip() == "n=4 k=2 d=2 oracle_d=2 agree=true"


@pytest.mark.parametrize(
    "code_text,word_text,wrong_d",
    [
        (DEMO_CODE_TEXT, DEMO_WORD_TEXT, 2),
        ("2 2 3\n1 1 0\n0 0 1\n", "1 0 0\n", 0),
    ],
    ids=["corrected", "uncorrectable"],
)
def test_decode_oracle_checks_the_distance(
    tmp_path, capsys, monkeypatch, code_text, word_text, wrong_d
):
    # an answer that is right apart from its minimum distance must fail
    real = cli.decode

    def wrong_distance(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), d=wrong_d)

    monkeypatch.setattr(cli, "decode", wrong_distance)
    code = tmp_path / "c.code"
    code.write_text(code_text)
    word = tmp_path / "w.word"
    word.write_text(word_text)
    rc, out, err = run(capsys, "decode", "--oracle", str(code), str(word))
    assert rc == 1
    assert json.loads(out)["oracle_agrees"] is False
    assert "cross-check failed" in err


def test_malformed_inputs_exit_4(demo_files, tmp_path, capsys):
    code, word = demo_files
    short = tmp_path / "short.word"
    short.write_text("1 0\n")
    rc, _, err = run(capsys, "decode", code, str(short))
    assert rc == 4 and "error:" in err

    missing = str(tmp_path / "nope.code")
    rc, _, err = run(capsys, "mindist", missing)
    assert rc == 4 and err

    rc, _, err = run(capsys, "frobnicate", code)
    assert rc == 4 and err

    bad = tmp_path / "bad.code"
    bad.write_text("4 2 3\n1 0 1\n0 1 1\n")
    rc, _, err = run(capsys, "mindist", str(bad))
    assert rc == 4 and "error:" in err

    separated = tmp_path / "separated.word"
    separated.write_text("0 1 1 1 0 0_0\n")
    rc, out, err = run(capsys, "decode", code, str(separated))
    assert rc == 4 and not out and "is not an integer" in err


def test_count_min(demo_files, capsys):
    code, _ = demo_files
    rc, out, _ = run(capsys, "count-min", "--oracle", code)
    assert rc == 0
    assert out.strip() == "d=3 count=4 oracle_count=4 agree=true"


@pytest.mark.parametrize(
    "text,expect",
    [
        ("2 1 4\n1 1 1 1\n", "d=4 count=1 oracle_count=1 agree=true"),
        ("3 1 3\n1 2 1\n", "d=3 count=1 oracle_count=1 agree=true"),
        ("5 1 3\n1 2 3\n", "d=3 count=1 oracle_count=1 agree=true"),
    ],
)
def test_count_min_repetition_code(tmp_path, capsys, text, expect):
    # d = n leaves no (d+1)-fold product; the one projective codeword counts 1
    code = tmp_path / "rep.code"
    code.write_text(text)
    rc, out, _ = run(capsys, "count-min", "--oracle", str(code))
    assert rc == 0
    assert out.strip() == expect


def test_count_diff_worked_instance(demo_files, capsys):
    code, _ = demo_files
    rc, out, _ = run(capsys, "count-diff", "--row", "1", code)
    assert rc == 0
    assert out.strip() == "alpha_d=4 alpha_d_removed=2 colon_degree=2 oracle_nn=2 identity=ok"


def test_count_diff_rejects_bad_row(demo_files, capsys):
    code, _ = demo_files
    rc, _, err = run(capsys, "count-diff", "--row", "4", code)
    assert rc == 4 and err
    rc, _, err = run(capsys, "count-diff", "--row", "0", code)
    assert rc == 4 and err


def test_count_diff_refuses_an_over_threshold_code_before_any_ideal(
    demo_files, capsys, monkeypatch
):
    # 2**2 codewords of the row-removed code exceed a threshold of 3
    calls = []

    def record(name):
        def stub(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran before the oracle refused")

        return stub

    monkeypatch.setattr(cli, "build_ideal", record("build_ideal"))
    monkeypatch.setattr(cli, "colon_degree", record("colon_degree"))
    code, _ = demo_files
    rc, out, err = run(capsys, "--oracle-threshold", "3", "count-diff", "--row", "1", code)
    assert rc == 4
    assert out == ""
    assert err == "error: enumerating 4 codewords exceeds the oracle threshold 3\n"
    assert calls == []


def test_check_reg(demo_files, capsys):
    code, word = demo_files
    rc, out, _ = run(capsys, "check-reg", code, word)
    assert rc == 0
    assert out.strip() == (
        "hypotheses=met d=3 d_w=1 saturation_identity=true power_containment=true"
    )


def test_check_reg_hypotheses_not_met(demo_files, tmp_path, capsys):
    code, _ = demo_files
    word = tmp_path / "far.word"
    word.write_text("1 1 0 1 0 0\n")  # coset weight 2 > radius 1
    rc, out, _ = run(capsys, "check-reg", code, str(word))
    assert rc == 0
    assert "hypotheses=not_met" in out


@pytest.mark.parametrize(
    "code_text,word_text,line",
    [
        (DEMO_CODE_TEXT, "1 1 1 0 0 0\n", "hypotheses=not_met d=3 d_w=0"),  # a codeword
        ("2 2 4\n1 1 0 0\n0 0 1 1\n", "1 0 1 0\n", "hypotheses=not_met d=2 d_w>=2"),
    ],
    ids=["in_code", "uncorrectable"],
)
def test_check_reg_outside_the_decoding_range(tmp_path, capsys, code_text, word_text, line):
    code, word = tmp_path / "c.code", tmp_path / "c.word"
    code.write_text(code_text)
    word.write_text(word_text)
    rc, out, _ = run(capsys, "check-reg", str(code), str(word))
    assert rc == 0
    assert out == line + "\n"


def test_internal_failure_exits_5_without_traceback(demo_files, capsys, monkeypatch):
    # a point off the appended row breaks a decoder invariant
    monkeypatch.setattr(
        decoder, "point_from_forms", lambda space: ProjectivePoint(space.field, [1, 0, 0, 0])
    )
    code, word = demo_files
    rc, out, err = run(capsys, "decode", code, word)
    assert rc == 5
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_large_colon_power_costs_what_the_smallest_does(demo_files, capsys):
    # the colon has saturated at d_w = 1, so U = 1200 gives the U = 1 answer
    code, word = demo_files
    rc, out, _ = run(capsys, "decode", "--colon-power", "1200", code, word)
    assert rc == 0
    data = json.loads(out)
    assert data.pop("colon_power") == 1200
    assert data.pop("elapsed_ms") < 1000
    rc, out, _ = run(capsys, "decode", "--colon-power", "1", code, word)
    expect = json.loads(out)
    del expect["colon_power"], expect["elapsed_ms"]
    assert rc == 0 and data == expect


def test_colon_power_below_d_w_exits_4(demo_files, capsys):
    code, word = demo_files
    rc, out, err = run(capsys, "decode", "--colon-power", "0", code, word)
    assert rc == 4
    assert out == ""
    assert err.startswith("error: degree mismatch")


@pytest.mark.parametrize(
    "code_text,word_text,status_rc",
    [
        ("2 1 4\n1 1 1 1\n", "1 1 1 1\n", 0),
        ("2 1 4\n1 1 1 1\n", "1 1 0 0\n", 2),
        ("2 2 3\n1 1 0\n0 0 1\n", "1 0 0\n", 3),
    ],
    ids=["in_code", "ambiguous", "uncorrectable"],
)
def test_negative_colon_power_exits_4_for_every_word(tmp_path, capsys, code_text, word_text,
                                                     status_rc):
    code = tmp_path / "c.code"
    code.write_text(code_text)
    word = tmp_path / "w.word"
    word.write_text(word_text)
    rc, _, _ = run(capsys, "decode", str(code), str(word))
    assert rc == status_rc
    rc, out, err = run(capsys, "decode", "--colon-power", "-1", str(code), str(word))
    assert rc == 4
    assert out == ""
    assert err.startswith("error: the colon power must be 0 or more")
    if status_rc == 0:
        rc, out, _ = run(capsys, "decode", "--colon-power", "0", str(code), str(word))
        assert rc == 0 and json.loads(out)["status"] == "in_code"


@pytest.mark.parametrize(
    "exc",
    [
        MemoryError("Unable to allocate 45.0 GiB for an array"),
        MemoryError(),
        BinomialOverflowError("C(100,50) exceeds 64-bit indexing"),
    ],
    ids=["memory", "memory_no_message", "binomial_overflow"],
)
def test_memory_and_overflow_exit_5_without_traceback(demo_files, capsys, monkeypatch, exc):
    # a piece too large to build, raised without allocating anything
    def too_large(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "decode", too_large)
    code, word = demo_files
    rc, out, err = run(capsys, "decode", code, word)
    assert rc == 5
    assert out == ""
    assert err.startswith("error: ") and err.strip() != "error:"
    assert "Traceback" not in err


def test_oracle_threshold_flag(demo_files, capsys):
    code, _ = demo_files
    rc, _, err = run(capsys, "--oracle-threshold", "4", "mindist", "--oracle", code)
    assert rc == 4 and err  # 2**3 messages exceed the tiny threshold


def simulate_lines(capsys, tmp_path):
    code = tmp_path / "demo.code"
    code.write_text(DEMO_CODE_TEXT)
    rc = main(["simulate", "--trials", "40", "--errors", "1", "--seed", "7", str(code)])
    out = capsys.readouterr().out
    return rc, out.splitlines()


def test_simulate_summary_and_csv(capsys, tmp_path):
    rc, lines = simulate_lines(capsys, tmp_path)
    assert rc == 0
    assert lines[0].startswith("trials=40 successes=40 ambiguous=0 uncorrectable=0")
    assert lines[1] == "trial,d_w,status,correct,micros"
    assert len(lines) == 2 + 40
    for row in lines[2:]:
        trial, d_w, status, correct, micros = row.split(",")
        assert d_w == "1" and status == "corrected" and correct == "true"
        assert int(micros) >= 0


def test_simulate_deterministic_modulo_timing(capsys, tmp_path):
    def stripped(lines):
        return [",".join(r.split(",")[:-1]) for r in lines[1:]]

    rc1, first = simulate_lines(capsys, tmp_path)
    rc2, second = simulate_lines(capsys, tmp_path)
    assert rc1 == rc2 == 0
    assert first[0].split("mean_decode_us=")[0] == second[0].split("mean_decode_us=")[0]
    assert stripped(first) == stripped(second)


def test_simulate_csv_file(capsys, tmp_path):
    code = tmp_path / "demo.code"
    code.write_text(DEMO_CODE_TEXT)
    out_csv = tmp_path / "rows.csv"
    rc = main(
        [
            "simulate",
            "--trials",
            "10",
            "--errors",
            "1",
            "--seed",
            "3",
            "--csv",
            str(out_csv),
            str(code),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("trials=10")
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "trial,d_w,status,correct,micros"
    assert len(lines) == 11


def test_simulate_refuses_an_unwritable_csv_before_any_trial(tmp_path, capsys, monkeypatch):
    # a directory cannot be opened for writing; no trial may run first
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before the CSV path was checked")

    monkeypatch.setattr(cli, "decode", no_trial)
    code = tmp_path / "demo.code"
    code.write_text(DEMO_CODE_TEXT)
    argv = ["simulate", "--trials", "3", "--errors", "1", "--seed", "1", "--csv", str(tmp_path)]
    rc, out, err = run(capsys, *argv, str(code))
    assert rc == 4
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


# The decode JSON and the simulate output are byte-stable: for the worked
# example and a fixed [7,3,3] GF(3) code they must equal these texts once
# the timing fields (elapsed_ms, mean_decode_us, micros) are blanked.
GOLDEN_DECODE = (
    '{"status": "corrected", "p": 2, "n": 6, "k": 3, "d": 3, "d_w": 1, '
    '"colon_power": 1, "error": [0, 0, 0, 0, 1, 0], "nearest": [0, 1, 1, 1, 1, 0], '
    '"message": [0, 1, 1], "point": [0, 1, 1, 1], "elapsed_ms": _}\n'
)
GOLDEN_DECODE_ORACLE = GOLDEN_DECODE.replace("_}", '_, "oracle_agrees": true}')

GF3_CODE_TEXT = "3 3 7\n2 2 1 2 0 1 2\n0 0 0 1 2 0 1\n1 2 0 1 0 0 2\n"
GOLDEN_SIMULATE = """\
trials=12 successes=0 ambiguous=2 uncorrectable=2 mean_decode_us=_
trial,d_w,status,correct,micros
0,,uncorrectable,false,_
1,1,corrected,false,_
2,2,corrected,false,_
3,2,corrected,false,_
4,2,ambiguous,false,_
5,1,corrected,false,_
6,2,corrected,false,_
7,2,corrected,false,_
8,2,corrected,false,_
9,,uncorrectable,false,_
10,2,corrected,false,_
11,2,ambiguous,false,_
"""


def without_timing(text):
    text = re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": _', text)
    text = re.sub(r"mean_decode_us=[0-9.]+", "mean_decode_us=_", text)
    return re.sub(r"(?m)^([0-9]+,[0-9]*,[a-z_]+,(?:true|false)),[0-9]+$", r"\1,_", text)


def test_decode_json_is_byte_stable(demo_files, capsys):
    code, word = demo_files
    rc, out, _ = run(capsys, "decode", code, word)
    assert rc == 0 and without_timing(out) == GOLDEN_DECODE
    rc, out, _ = run(capsys, "decode", "--oracle", code, word)
    assert rc == 0 and without_timing(out) == GOLDEN_DECODE_ORACLE


def test_simulate_output_is_byte_stable(tmp_path, capsys):
    code = tmp_path / "gf3.code"
    code.write_text(GF3_CODE_TEXT)
    argv = ["simulate", "--trials", "12", "--errors", "3", "--seed", "5", str(code)]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and without_timing(out) == GOLDEN_SIMULATE
