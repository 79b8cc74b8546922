"""Elimination kernels: known values, and a differential test of the numpy
kernel against the loop-style reference backend in reference_kernels
through every public surface (RREF, ranks, membership reduction, echelon
bases)."""

import numpy as np
import pytest

from coldec import kernels
from reference_kernels import _echelon_insert_loops, _reduce_rows_loops, _rref_loops


def test_rref_known_values():
    R, r, piv = kernels.rref_array(np.array([[1, 1], [1, 1]]), 2)
    assert r == 1 and piv == (0,)
    assert R.tolist() == [[1, 1], [0, 0]]

    R, r, piv = kernels.rref_array(np.array([[1, 2], [2, 4]]), 5)
    assert r == 1 and piv == (0,)
    assert R.tolist() == [[1, 2], [0, 0]]

    R, r, piv = kernels.rref_array(np.array([[2, 4, 2], [1, 2, 4], [0, 0, 3]]), 7)
    assert r == 2 and piv == (0, 2)
    assert R.tolist() == [[1, 2, 0], [0, 0, 1], [0, 0, 0]]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251])
def test_backends_agree_on_rref_rank_reduce(p):
    # RREF, ranks, pivots, and membership residues are canonical and must
    # match bit-for-bit; echelon basis rows only promise an equal span.
    # Rows go in as two blocks, so the second insert reduces against an
    # existing basis.
    rng = np.random.default_rng(2024)
    for _ in range(200):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 12))
        a = rng.integers(0, p, size=(rows, cols))
        extra = rng.integers(0, p, size=(3, cols))
        split = int(rng.integers(0, rows + 1))

        R, r, piv = kernels.rref_array(a, p)
        acc = kernels.Echelon(cols, p)
        acc.insert(a[:split])
        acc.insert(a[split:])
        reduced = acc.reduce(extra)
        basis, pivcols = acc.basis_rows()

        ref_R = a.copy()
        ref_r, ref_piv = _rref_loops(ref_R, p)
        ref_basis = np.zeros((cols, cols), np.int64)
        ref_pivrow = np.full(cols, -1, np.int64)
        ref_rank = _echelon_insert_loops(ref_basis, ref_pivrow, 0, a[:split].copy(), p, cols)
        ref_rank = _echelon_insert_loops(
            ref_basis, ref_pivrow, ref_rank, a[split:].copy(), p, cols
        )
        ref_reduced = extra.copy()
        _reduce_rows_loops(ref_basis, ref_pivrow, ref_reduced, p)

        case = (p, a.tolist(), split)
        assert R.tolist() == ref_R.tolist(), case
        assert r == ref_r == acc.rank == ref_rank, case
        assert piv == tuple(ref_piv.tolist()), case
        assert pivcols == tuple(np.nonzero(ref_pivrow >= 0)[0].tolist()), case
        assert reduced.tolist() == ref_reduced.tolist(), case
        if r:
            stacked = np.vstack([basis, ref_basis[:ref_rank]])
            assert kernels.rank_of_rows(stacked, p) == r, case


def test_echelon_incremental_matches_batch():
    rng = np.random.default_rng(7)
    p = 5
    a = rng.integers(0, p, size=(12, 6))
    acc = kernels.Echelon(6, p)
    for row in a:
        acc.insert(row.reshape(1, -1))
    _, full_rank, _ = kernels.rref_array(a, p)
    assert acc.rank == full_rank
    basis, piv = acc.basis_rows()
    # stored rows carry the same pivots and span the same row space
    R, r, piv2 = kernels.rref_array(basis, p)
    assert r == acc.rank and piv == piv2
    stacked = np.vstack([a % p, basis])
    assert kernels.rank_of_rows(stacked, p) == full_rank


def test_echelon_stop_rank_early_exit():
    p = 2
    rows = np.eye(8, dtype=np.int64)
    acc = kernels.Echelon(8, p)
    got = acc.insert(rows, stop_rank=3)
    assert got == 3
    assert acc.rank == 3  # insertion stopped once the target rank was hit


def test_reduce_membership():
    p = 3
    acc = kernels.Echelon(3, p)
    acc.insert(np.array([[1, 1, 0], [0, 1, 1]]))
    inside = kernels.rank_of_rows(np.array([[1, 2, 1]]), p)  # 1*r0 + 1*r1
    assert inside == 1
    red = acc.reduce(np.array([[1, 2, 1], [0, 0, 1]]))
    assert not red[0].any()  # member reduces to zero
    assert red[1].any()  # non-member leaves a residue


def test_rank_of_rows_matches_rref():
    rng = np.random.default_rng(11)
    for p in (2, 7):
        a = rng.integers(0, p, size=(6, 9))
        assert kernels.rank_of_rows(a, p) == kernels.rref_array(a, p)[1]


def test_zero_and_empty_matrices():
    R, r, piv = kernels.rref_array(np.zeros((3, 4), dtype=np.int64), 3)
    assert r == 0 and piv == ()
    acc = kernels.Echelon(4, 3)
    assert acc.insert(np.zeros((2, 4), dtype=np.int64)) == 0
    assert acc.rank == 0


def test_warmup_is_idempotent():
    kernels.warmup()
    kernels.warmup()
