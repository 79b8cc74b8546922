"""Acceptance gate: eight contract criteria, one PASS/FAIL line each.

Every criterion is exact (integer equality); the only tolerances are the
two pinned runtime budgets (criterion 1: < 100 ms for the worked pipeline,
criterion 2: < 60 s for 500 oracle comparisons) and criterion 8's soft
throughput target, which is reported but never gated.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from coldec import LinearCode, PrimeField, decode, kernels, min_distance
from coldec.cli import main as cli_main
from coldec.decoder import DecodeStatus, classify
from coldec.ideals import (
    build_ideal,
    colon_degree,
    colon_linear_piece,
    ideal_degree,
    point_from_forms,
    verify_power_containment,
    verify_saturation_identity,
)
from coldec.oracle import count_at_distance, enumerate_min_distance, nearest_neighbors
from coldec.polybasis import checked_binomial
from conftest import DEMO_G, DEMO_W, random_small_code
from oracle_helpers import projective_words_of_weight

DEMO_CODE_TEXT = "2 3 6\n" + "\n".join(" ".join(map(str, row)) for row in DEMO_G) + "\n"


@pytest.fixture()
def acceptance(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    @contextmanager
    def _report(n: int):
        info: dict = {}
        ok = False
        try:
            yield info
            ok = True
        finally:
            line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
            if info.get("note"):
                line += f" ({info['note']})"
            if reporter is not None:
                reporter.ensure_newline()
                reporter.write_line(line)
            else:
                print(line)

    return _report


def test_acceptance_1_worked_example_exact_and_fast(acceptance):
    with acceptance(1) as info:
        kernels.warmup()  # one-time numpy set-up paid before the stopwatch starts
        timings = []
        for _ in range(3):
            C = LinearCode(PrimeField(2), DEMO_G)  # fresh object: nothing cached
            t0 = time.perf_counter()
            d = min_distance(C)
            Cw = C.augment(DEMO_W)
            d_w = min_distance(Cw)
            I = build_ideal(Cw, d_w + 1)
            Q = colon_linear_piece(I, C.k, d_w)
            point = point_from_forms(Q)
            res = decode(C, DEMO_W)
            timings.append(time.perf_counter() - t0)
            assert d == 3
            assert d_w == 1
            # colon piece spanned by x, y+T, z+T
            assert Q.basis.tolist() == [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
            assert point.coords.tolist() == [0, 1, 1, 1]
            assert res.status is DecodeStatus.CORRECTED
            assert res.error.tolist() == [0, 0, 0, 0, 1, 0]
        best = min(timings)
        info["note"] = f"pipeline {best * 1000:.1f} ms, budget 100 ms"
        assert best < 0.100


def test_acceptance_2_min_distance_matches_oracle_500(acceptance):
    with acceptance(2) as info:
        rng = np.random.default_rng(8102)
        t0 = time.perf_counter()
        for _ in range(500):
            C = random_small_code(rng)
            assert min_distance(C) == enumerate_min_distance(C), C.G.a.tolist()
        elapsed = time.perf_counter() - t0
        info["note"] = f"500 codes, all exact, {elapsed:.1f} s of 60 s budget"
        assert elapsed < 60.0


def test_acceptance_3_decoder_sound_within_radius_500(acceptance):
    with acceptance(3) as info:
        rng = np.random.default_rng(8203)
        done = 0
        while done < 500:
            C = random_small_code(rng)
            d = min_distance(C)
            radius = (d - 1) // 2
            if radius < 1:
                continue
            msg = rng.integers(0, C.field.p, size=C.k)
            sent = C.encode(msg).v
            t = int(rng.integers(1, radius + 1))
            pos = rng.choice(C.n, size=t, replace=False)
            err = np.zeros(C.n, dtype=np.int64)
            err[pos] = rng.integers(1, C.field.p, size=t)
            w = (sent + err) % C.field.p
            res = decode(C, w)
            assert res.status is DecodeStatus.CORRECTED, C.G.a.tolist()
            assert res.error.tolist() == err.tolist()
            assert res.message.tolist() == msg.tolist()
            done += 1
        info["note"] = "500 triples, error and message exact"


def test_acceptance_4_counting_law_200(acceptance):
    with acceptance(4) as info:
        rng = np.random.default_rng(8304)
        done = 0
        algebraic = 0
        while done < 200:
            C = random_small_code(rng)
            if C.field.p ** (C.k + 1) > 4096:
                continue
            w = rng.integers(0, C.field.p, size=C.n)
            inside, _ = C.contains(w)
            if inside:
                continue
            d_w, neighbors = nearest_neighbors(C, w)
            Cw = C.augment(w)
            classes = projective_words_of_weight(Cw, d_w)
            outside = [v for v in classes if not C.contains(v)[0]]
            assert len(outside) == neighbors.shape[0], (C.G.a.tolist(), w.tolist())
            if d_w <= min_distance(C) - 1:
                assert classify(C, w)[3] == d_w
                assert ideal_degree(build_ideal(Cw, d_w + 1)) == neighbors.shape[0]
                algebraic += 1
            done += 1
        info["note"] = f"200 instances; ideal-degree count agreed on {algebraic}"
        assert algebraic >= 50  # the algebraic route must be genuinely exercised


def test_acceptance_5_row_removal_identity_100(acceptance):
    with acceptance(5) as info:
        # worked instance: first generator row of the demo code
        C = LinearCode(PrimeField(2), DEMO_G)
        d = min_distance(C)
        I = build_ideal(C, d + 1)
        C1 = C.remove_row(0)
        drop = ideal_degree(I) - ideal_degree(build_ideal(C1, d + 1))
        colon = colon_degree(I, 0)
        nn = count_at_distance(C1, C.G.a[0], d)
        assert drop == colon == nn == 2

        rng = np.random.default_rng(8405)
        codes = 0
        rows = 0
        on_domain = 0
        while codes < 100:
            C = random_small_code(rng)
            if C.k < 2:
                continue
            d = min_distance(C)
            I = build_ideal(C, d + 1)
            alpha = ideal_degree(I)
            for j in range(C.k):
                Cj = C.remove_row(j)
                alpha_j = ideal_degree(build_ideal(Cj, d + 1))
                colon = colon_degree(I, j)
                nn = count_at_distance(Cj, C.G.a[j], d)
                assert alpha - alpha_j == colon == nn, (C.G.a.tolist(), j)
                # literal nearest-neighbor form, on its domain of validity:
                # whenever some minimum-weight codeword uses row j, the
                # distance-d words are exactly the nearest neighbors
                d_w, literal = nearest_neighbors(Cj, C.G.a[j])
                if nn > 0:
                    assert d_w == d and literal.shape[0] == nn
                    on_domain += 1
                else:
                    assert d_w > d  # removed row is farther than d from C_j
                rows += 1
            codes += 1
        info["note"] = (
            f"100 codes, {rows} rows exact; literal nearest-neighbor form "
            f"held and was verified on {on_domain}"
        )
        assert on_domain >= 50


def test_acceptance_6_saturation_identities_200(acceptance):
    with acceptance(6) as info:
        rng = np.random.default_rng(8506)
        done = 0
        while done < 200:
            C = random_small_code(rng)
            d = min_distance(C)
            if d < 3:
                continue
            radius = (d - 1) // 2
            msg = rng.integers(0, C.field.p, size=C.k)
            sent = C.encode(msg).v
            t = int(rng.integers(1, radius + 1))
            pos = rng.choice(C.n, size=t, replace=False)
            err = np.zeros(C.n, dtype=np.int64)
            err[pos] = rng.integers(1, C.field.p, size=t)
            w = (sent + err) % C.field.p
            Cw = C.augment(w)
            d_w = min_distance(Cw)
            assert 1 <= d_w <= radius and d_w == t
            I = build_ideal(Cw, d_w + 1)
            # colon power exactly d_w: k-dimensional space, affine point
            Q = colon_linear_piece(I, C.k, d_w)
            assert Q.dim == C.k, (C.G.a.tolist(), w.tolist())
            point = point_from_forms(Q)
            assert int(point.coords[C.k]) != 0
            assert verify_saturation_identity(I, Q)
            assert verify_power_containment(I, Q)
            res = decode(C, w)
            assert res.status is DecodeStatus.CORRECTED and res.colon_power == d_w
            done += 1
        info["note"] = "200 good-word instances, both identities exact"


def test_acceptance_7_full_rank_pieces_below_distance(acceptance):
    with acceptance(7) as info:
        rng = np.random.default_rng(8607)
        pieces = 0
        for _ in range(100):
            C = random_small_code(rng)
            d = min_distance(C)
            for i in range(1, d + 1):
                I = build_ideal(C, i)
                assert I.gens.shape[0] == checked_binomial(C.n, i, "acceptance")
                expect = checked_binomial(C.k + i - 1, i, "acceptance")
                assert len(I.piece(i)) == expect, (C.G.a.tolist(), i)
                pieces += 1
        info["note"] = f"100 codes, {pieces} graded pieces exact"


def test_acceptance_8_simulation_contract(acceptance, tmp_path, capsys):
    with acceptance(8) as info:
        code_file = tmp_path / "demo.code"
        code_file.write_text(DEMO_CODE_TEXT)
        summaries = []
        rows = []
        for i in range(2):
            csv_file = tmp_path / f"run{i}.csv"
            rc = cli_main(
                [
                    "simulate",
                    "--trials",
                    "1000",
                    "--errors",
                    "1",
                    "--seed",
                    "20260817",
                    "--csv",
                    str(csv_file),
                    str(code_file),
                ]
            )
            assert rc == 0
            summaries.append(capsys.readouterr().out.splitlines()[0])
            rows.append(csv_file.read_text().splitlines())
        assert summaries[0].startswith(
            "trials=1000 successes=1000 ambiguous=0 uncorrectable=0"
        )
        # reproducible modulo the timing column
        prefix = lambda line: line.rsplit(",", 1)[0]  # noqa: E731
        assert [prefix(r) for r in rows[0]] == [prefix(r) for r in rows[1]]
        assert len(rows[0]) == 1001
        mean_us = float(summaries[0].split("mean_decode_us=")[1])
        rate = 1e6 / mean_us if mean_us > 0 else float("inf")
        info["note"] = (
            f"success rate 1.0, CSV reproducible; ~{rate:.0f} words/s "
            "(soft target 1000, reported not gated)"
        )
