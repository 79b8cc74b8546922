"""Command-line interface.

Subcommands: mindist, decode, count-min, count-diff, check-reg, simulate.
Exit codes: 0 for success (including in_code/corrected decodes), 1 for a
failed cross-check or identity, 2 for an ambiguous decode, 3 for an
uncorrectable word, 4 for invalid input (bad files, bad arguments, oracle
threshold exceeded), 5 for an internal failure (a decoder invariant or a
computation limit, such as a graded piece too large to allocate or index).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

import numpy as np

from . import fileio, ideals, oracle
from .code import LinearCode
from .decoder import DecodeStatus, classify, decode
from .ideals import build_ideal, colon_degree, colon_linear_piece, ideal_degree, min_distance
from .oracle import OracleThresholdError
from .simrng import trial_rng

__all__ = ["main", "entry"]

_STATUS_EXIT = {
    DecodeStatus.IN_CODE: 0,
    DecodeStatus.CORRECTED: 0,
    DecodeStatus.AMBIGUOUS: 2,
    DecodeStatus.UNCORRECTABLE: 3,
}


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for ambiguous decodes
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="coldec", description="Exact decoding of linear codes over GF(p)")
    parser.add_argument(
        "--oracle-threshold",
        type=int,
        default=oracle.DEFAULT_THRESHOLD,
        help="largest q**k the exhaustive oracle will enumerate (default 2**20)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("mindist", help="minimum distance of a code")
    sp.add_argument("code", help="code file (header 'p k n', then k generator rows)")
    sp.add_argument("--oracle", action="store_true", help="cross-check exhaustively")

    sp = sub.add_parser("decode", help="decode a received word")
    sp.add_argument("code")
    sp.add_argument("word", help="word file (one line of n integers)")
    sp.add_argument(
        "--colon-power",
        type=int,
        default=None,
        help="colon exponent U to report (default d_w); every U >= d_w gives the "
        "point of U = d_w at its cost; a smaller U is invalid input on a "
        "correction, and a negative U on every word",
    )
    sp.add_argument("--oracle", action="store_true", help="cross-check the answer exhaustively")

    sp = sub.add_parser("count-min", help="count projective minimum-weight codewords")
    sp.add_argument("code")
    sp.add_argument("--oracle", action="store_true", help="cross-check exhaustively")

    sp = sub.add_parser(
        "count-diff",
        help="minimum-weight count drop when one generator row is removed",
    )
    sp.add_argument("code")
    sp.add_argument("--row", type=int, required=True, help="generator row to remove (1-based)")

    sp = sub.add_parser(
        "check-reg",
        help="verify the saturation and power-containment identities for a word",
    )
    sp.add_argument("code")
    sp.add_argument("word")

    sp = sub.add_parser("simulate", help="random-error channel simulation")
    sp.add_argument("code")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--errors", type=int, required=True, help="error weight per trial")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--csv", default=None, help="write per-trial rows here instead of stdout")

    return parser


def _cross_check(line: str, name: str, value: int, expected: int, what: str) -> int:
    # Print the line with the oracle's value and the verdict; 1 on a disagreement.
    agree = value == expected
    print(f"{line} oracle_{name}={expected} agree={'true' if agree else 'false'}")
    if not agree:
        print(f"cross-check failed: {what} disagrees with enumeration", file=sys.stderr)
        return 1
    return 0


def _cmd_mindist(args) -> int:
    C = fileio.load_code(args.code)
    d = min_distance(C)
    line = f"n={C.n} k={C.k} d={d}"
    if not args.oracle:
        print(line)
        return 0
    d_oracle = oracle.enumerate_min_distance(C, args.oracle_threshold)
    return _cross_check(line, "d", d, d_oracle, "rank criterion")


def _oracle_agrees(C: LinearCode, res, w, threshold: int) -> bool:
    if res.d != oracle.enumerate_min_distance(C, threshold):
        return False
    d_w, vectors = oracle.nearest_neighbors(C, w, threshold)
    if res.status is DecodeStatus.IN_CODE:
        return d_w == 0
    if res.status is DecodeStatus.CORRECTED:
        return (
            d_w == res.d_w
            and vectors.shape[0] == 1
            and bool(np.array_equal(vectors[0], res.nearest.v))
        )
    if res.status is DecodeStatus.AMBIGUOUS:
        return d_w == res.d_w and vectors.shape[0] == res.neighbor_count
    return d_w >= res.d


def _cmd_decode(args) -> int:
    C = fileio.load_code(args.code)
    w = fileio.load_word(args.word, C)
    t0 = time.perf_counter()
    res = decode(C, w, colon_power=args.colon_power)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    agrees = None
    if args.oracle:
        agrees = _oracle_agrees(C, res, w, args.oracle_threshold)
    print(fileio.result_to_json(C, res, elapsed_ms, oracle_agrees=agrees))
    if agrees is False:
        print("cross-check failed: oracle disagrees with the decode result", file=sys.stderr)
        return 1
    return _STATUS_EXIT[res.status]


def _cmd_count_min(args) -> int:
    C = fileio.load_code(args.code)
    d = min_distance(C)
    count = ideals.min_weight_count(C)
    line = f"d={d} count={count}"
    if not args.oracle:
        print(line)
        return 0
    count_oracle = oracle.projective_min_weight_count(C, args.oracle_threshold)
    return _cross_check(line, "count", count, count_oracle, "ideal degree")


def _cmd_count_diff(args) -> int:
    C = fileio.load_code(args.code)
    if C.k < 2:
        raise _CliError("count-diff needs a code of dimension at least 2")
    if not 1 <= args.row <= C.k:
        raise _CliError(f"--row must be between 1 and {C.k}")
    j = args.row - 1
    d = min_distance(C)
    Cj = C.remove_row(j)
    # Neighbors of the removed row at distance exactly d: its nearest
    # neighbors whenever any minimum-weight codeword uses that row. Asked
    # first, so a code over the oracle threshold builds no ideal.
    nn = oracle.count_at_distance(Cj, C.G.a[j], d, args.oracle_threshold)
    I = build_ideal(C, d + 1)
    alpha = ideal_degree(I)
    alpha_removed = ideal_degree(build_ideal(Cj, d + 1))
    colon = colon_degree(I, j)
    ok = alpha - alpha_removed == nn == colon
    print(
        f"alpha_d={alpha} alpha_d_removed={alpha_removed} colon_degree={colon} "
        f"oracle_nn={nn} identity={'ok' if ok else 'FAIL'}"
    )
    if not ok:
        print("identity failed: count drop, colon degree and enumeration disagree", file=sys.stderr)
        return 1
    return 0


def _cmd_check_reg(args) -> int:
    C = fileio.load_code(args.code)
    w = fileio.load_word(args.word, C)
    d, _, Cw, d_w = classify(C, w)
    if d_w is None:
        print(f"hypotheses=not_met d={d} d_w>={d}")
        return 0
    if not (d >= 3 and 1 <= d_w <= (d - 1) // 2):
        print(f"hypotheses=not_met d={d} d_w={d_w}")
        return 0
    I = build_ideal(Cw, d_w + 1)
    Q = colon_linear_piece(I, Cw.k - 1, d_w)
    if Q.dim != C.k:
        print(
            f"hypotheses=met d={d} d_w={d_w} colon_piece_dim={Q.dim} "
            "saturation_identity=false power_containment=false"
        )
        return 1
    sat_ok = ideals.verify_saturation_identity(I, Q)
    pow_ok = ideals.verify_power_containment(I, Q)
    print(
        f"hypotheses=met d={d} d_w={d_w} "
        f"saturation_identity={'true' if sat_ok else 'false'} "
        f"power_containment={'true' if pow_ok else 'false'}"
    )
    return 0 if sat_ok and pow_ok else 1


def _cmd_simulate(args) -> int:
    C = fileio.load_code(args.code)
    p = C.field.p
    if args.trials < 1:
        raise _CliError("--trials must be at least 1")
    if not 0 <= args.errors <= C.n:
        raise _CliError(f"--errors must be between 0 and {C.n}")
    min_distance(C)  # cache d before the trial loop

    def run_trial(trial: int):
        rng = trial_rng(args.seed, trial)
        msg = np.asarray(rng.vector(C.k, p), np.int64)
        sent = C.encode(msg)
        err = np.zeros(C.n, np.int64)
        for pos in rng.distinct_positions(C.n, args.errors):
            err[pos] = rng.nonzero_residue(p)
        w = (sent.v + err) % p
        t0 = time.perf_counter_ns()
        res = decode(C, w)
        micros = (time.perf_counter_ns() - t0) // 1000
        correct = res.message is not None and bool(np.array_equal(res.message, msg))
        return trial, res, correct, micros

    # The CSV file is opened before the first trial, so a path that
    # cannot be written exits 4 with no trial run and nothing printed.
    sink = (
        open(args.csv, "w", encoding="utf-8") if args.csv else contextlib.nullcontext(sys.stdout)
    )
    with sink as out:
        rows = [run_trial(i) for i in range(args.trials)]

        successes = sum(1 for _, res, correct, _ in rows if correct)
        ambiguous = sum(1 for _, res, _, _ in rows if res.status is DecodeStatus.AMBIGUOUS)
        uncorrectable = sum(
            1 for _, res, _, _ in rows if res.status is DecodeStatus.UNCORRECTABLE
        )
        mean_us = sum(micros for _, _, _, micros in rows) / len(rows)
        print(
            f"trials={args.trials} successes={successes} ambiguous={ambiguous} "
            f"uncorrectable={uncorrectable} mean_decode_us={mean_us:.1f}"
        )
        csv_lines = ["trial,d_w,status,correct,micros"]
        for trial, res, correct, micros in rows:
            d_w = "" if res.d_w is None else str(res.d_w)
            csv_lines.append(
                f"{trial},{d_w},{res.status.value},{'true' if correct else 'false'},{micros}"
            )
        out.write("\n".join(csv_lines) + "\n")
    return 0


_COMMANDS = {
    "mindist": _cmd_mindist,
    "decode": _cmd_decode,
    "count-min": _cmd_count_min,
    "count-diff": _cmd_count_diff,
    "check-reg": _cmd_check_reg,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    """Run one coldec command line; returns the exit code documented above.

    `argv` defaults to sys.argv[1:]. Invalid input exits 4 and internal
    failures exit 5, each with a one-line message on stderr.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_CliError, OracleThresholdError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    # After the clause above: OracleThresholdError is a RuntimeError.
    # MemoryError and OverflowError (BinomialOverflowError) are graded
    # pieces too large to build.
    except (RuntimeError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 5


def entry():
    """Console-script entry point: exit with `main`'s code."""
    sys.exit(main())


if __name__ == "__main__":
    entry()
