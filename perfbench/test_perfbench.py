"""Checks of the benchmark itself: boundaries, counters, the result contract.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from coldec import code, decoder, ideals, kernels, polybasis  # noqa: E402
from coldec.field import PrimeField  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Exact work per op of the first 12 small-stream words at seed 0. A change
# to any of these is a change in the work the decode pipeline does.
PINNED_SMALL_STREAM = {
    "decoder.decode.calls": 1.0,
    "code.contains.calls": 3.0,
    "code.augment.calls": 1.0,
    "ideals.min_distance.calls": 2.0,
    "ideals.build_ideal.calls": 1.0,
    "ideals.IdealPiece.piece.calls": 1.0,
    "ideals.colon_linear_piece.calls": 1.0,
    "ideals.point_from_forms.calls": 1.0,
    "polybasis.multiply_by_form.calls": 46.0,
    "linalg.solve.calls": 3.0,
    "linalg.MatrixGF.nullspace.calls": 2.0,
    "linalg.preimage_of_colspace.calls": 1.0,
    "kernels.Echelon.insert.calls": 4.0,
    "kernels.Echelon.insert.rows_in": 40.0,
    "kernels.Echelon.insert.cells_in": 348.0,
    "kernels.Echelon.insert.rank_gained": 26.0,
    "kernels.Echelon.insert.useful_ratio": 0.65,
    "kernels.rref_array.calls": 7.0,
    "kernels.rref_array.rows_in": 37.0,
    "kernels.rref_array.cells_in": 238.0,
}


def worked_code():
    return code.LinearCode(PrimeField(2), workloads.WORKED_G)


def exercise_worked_example():
    """Calls that between them reach every boundary on the worked example."""
    C = worked_code()
    out = []
    for w in ([0, 1, 1, 1, 0, 0], [1, 0, 0, 0, 0, 1], [1, 1, 1, 0, 0, 0]):
        res = decoder.decode(C, w)
        out.append((str(res.status), res.d_w, res.neighbor_count))
    fresh = worked_code()
    d = ideals.min_distance(fresh)
    out.append(ideals.ideal_degree(ideals.build_ideal(fresh, d + 1)))
    kernels.warmup()  # the only pipeline-independent caller of Echelon.reduce
    return out


def test_every_present_boundary_fires_and_tracing_changes_no_result():
    plain = exercise_worked_example()
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.begin_op(0)
        traced = exercise_worked_example()
        tr.end_op()
    finally:
        tr.uninstall()
    assert traced == plain
    silent = [
        n for i, n in enumerate(tr.names) if n not in tr.absent and tr.counts["calls"][i] == 0
    ]
    assert not silent, f"boundaries never reached: {silent}"
    assert [r[0] for r in plain[:3]] == ["corrected", "ambiguous", "in_code"]


def test_uninstall_restores_every_patched_name():
    before = (decoder.decode, decoder.min_distance, code.solve, ideals.multiply_by_form,
              ideals.preimage_of_colspace, kernels.Echelon.insert, kernels.rref_array)
    tr = tracer.Tracer()
    tr.install()
    assert decoder.min_distance is ideals.min_distance is not before[1]
    assert code.solve is not before[2]
    tr.uninstall()
    after = (decoder.decode, decoder.min_distance, code.solve, ideals.multiply_by_form,
             ideals.preimage_of_colspace, kernels.Echelon.insert, kernels.rref_array)
    assert after == before


def test_missing_boundary_is_reported_absent(monkeypatch):
    monkeypatch.delattr(ideals, "point_from_forms")
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["ideals.point_from_forms"]


def traced_counters(seed: int) -> dict:
    wl = workloads.SmallStream()
    wl.setup()
    wl.trace_ops = 12
    detail: dict = {}
    result = run.per_layer(wl, argparse.Namespace(seed=seed, seconds=1e-3), detail)
    assert result["failed"] == 0, detail["failures"]
    return {
        k: v for k, v in detail["counters"].items()
        if k.rsplit(".", 1)[1] in tracer.COUNTERS or k.endswith("useful_ratio")
    }


def test_counters_repeat_exactly_and_match_the_pinned_values():
    first = traced_counters(0)
    assert traced_counters(0) == first
    nonzero = {k: v for k, v in first.items() if v}
    assert nonzero == PINNED_SMALL_STREAM


def test_golay_distance_is_verified_and_supplied_without_a_scan():
    wl = workloads.GolayT2()
    C, d = wl.build()
    assert (C.n, C.k, d) == (24, 12, 8)
    workloads.supply_distance(C, d)
    assert ideals.min_distance(C) == 8


def test_supplied_distance_that_does_not_take_effect_aborts():
    class Forgetful(code.LinearCode):
        __slots__ = ()

        @property
        def _dmin(self):
            return None

        @_dmin.setter
        def _dmin(self, value):
            pass

    def guarded():
        return (kernels.Echelon.insert, kernels.rank_of_rows, kernels.rref_array,
                ideals.multiply_by_form, polybasis.multiply_by_form)

    before = guarded()
    C = Forgetful(PrimeField(2), workloads.WORKED_G)
    with pytest.raises(workloads.SetupError, match="did not take effect"):
        workloads.supply_distance(C, 3)
    assert guarded() == before


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_the_contract(trace, kind, capsys):
    argv = ["--workload", "small-stream", "--seed", "3", "--seconds", "0.3", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert detail["env"]["seed"] == 3
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_calibration_scales_each_interval_by_the_reference_speed_around_it():
    sampler = calibrate.Sampler("interpreted")
    ref = sampler.reference_ns
    for k in range(200):  # a sample every 10 ms; the core runs at half speed after 1 s
        sampler.starts.append(k * 10**7)
        sampler.spent.append(1000)
        sampler.lengths.append(ref if k < 100 else 2 * ref)
    got = sampler.calibrate([10**8, 15 * 10**8], [2 * 10**8, 16 * 10**8])
    # Each interval holds ten handler calls, whose time is taken out.
    assert list(got) == [10**8 - 10**4, (10**8 - 10**4) / 2]


def test_spec_lists_workloads_the_runner_knows():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS) == tuple(run.REFERENCE_KIND)
    assert set(run.REFERENCE_KIND.values()) <= set(calibrate.REFERENCES)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=skip)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "small-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_depend_only_on_the_seed_and_fill_their_slots():
    a, b = workloads.Gf3Channel(), workloads.Gf3Channel()
    a.C = b.C = code.LinearCode(PrimeField(3), workloads.gf3_matrix())
    words = [a.make_input(9, i) for i in range(len(a.slots))]
    assert all(np.array_equal(w, b.make_input(9, i)) for i, w in enumerate(words))
    assert not np.array_equal(words[3], a.make_input(10, 3))
    for w, (weight, want) in zip(words, a.slots):
        status, _, d_w, _, _ = a.expected(w)
        assert want in (None, (status, d_w))
    statuses = {a.expected(w)[0] for w in words}
    assert statuses == {"in_code", "corrected", "ambiguous", "uncorrectable"}
