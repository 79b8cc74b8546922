"""Elimination kernels: known values, the exactness guard, the width
checks, and a differential test of the panel-blocked kernel against the
loop-style reference in reference_kernels through every public surface
(RREF, ranks, membership reduction, echelon bases, kernels), below and
across panel sizes, for odd p on both sides of the float32 edge, and for
GF(2) at the edges of its bit-packed rows."""

import numpy as np
import pytest

from coldec import kernels
from coldec.field import PrimeField
from coldec.ideals import LinearFormSpace
from coldec.linalg import MatrixGF
from reference_kernels import _echelon_insert_loops, _reduce_rows_loops, _rref_loops


def test_rref_known_values():
    R, r, piv = kernels.rref_array(np.array([[1, 1], [1, 1]]), 2)
    assert r == 1 and piv == (0,)
    assert R.tolist() == [[1, 1]]

    R, r, piv = kernels.rref_array(np.array([[1, 2], [2, 4]]), 5)
    assert r == 1 and piv == (0,)
    assert R.tolist() == [[1, 2]]

    R, r, piv = kernels.rref_array(np.array([[2, 4, 2], [1, 2, 4], [0, 0, 3]]), 7)
    assert r == 2 and piv == (0, 2)
    assert R.tolist() == [[1, 2, 0], [0, 0, 1]]


def _check_against_reference(a, p, blocks, extra):
    # RREF, ranks, pivots, and membership residues are canonical and must
    # match the loop reference bit for bit; echelon basis rows only promise
    # an equal span. `a` goes into the accumulator as consecutive blocks of
    # the given sizes, so later blocks meet an existing basis.
    cols = a.shape[1]
    cuts = np.cumsum([0, *blocks])
    assert cuts[-1] == a.shape[0]
    R, r, piv = kernels.rref_array(a, p)
    acc = kernels.Echelon(cols, p)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        acc.insert(a[lo:hi])
    reduced = acc.reduce(extra)
    basis, pivcols = acc.basis_rows()

    ref_R = a.copy()
    ref_r, ref_piv = _rref_loops(ref_R, p)
    ref_basis = np.zeros((cols, cols), np.int64)
    ref_pivrow = np.full(cols, -1, np.int64)
    ref_rank = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        ref_rank = _echelon_insert_loops(ref_basis, ref_pivrow, ref_rank, a[lo:hi].copy(), p)
    ref_reduced = extra.copy()
    _reduce_rows_loops(ref_basis, ref_pivrow, ref_reduced, p)

    case = (p, a.tolist(), list(blocks))
    assert R.tolist() == ref_R[:ref_r].tolist(), case
    assert r == ref_r == acc.rank == ref_rank, case
    assert piv == tuple(ref_piv.tolist()), case
    assert pivcols == tuple(np.nonzero(ref_pivrow >= 0)[0].tolist()), case
    assert reduced.tolist() == ref_reduced.tolist(), case
    assert kernels.rank_of_rows(a, p) == r, case
    if r:
        stacked = np.vstack([basis, ref_basis[:ref_rank]])
        assert kernels.rank_of_rows(stacked, p) == r, case
    # The kernel is canonical too: per free column f, 1 at f and minus the
    # reduced rows' entries in column f at their pivots.
    free = np.setdiff1d(np.arange(cols), ref_piv)
    ref_ker = np.zeros((free.size, cols), np.int64)
    ref_ker[np.arange(free.size), free] = 1
    ref_ker[:, ref_piv] = -ref_R[:ref_r, free].T % p
    assert acc.kernel().tolist() == ref_ker.tolist(), case


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251])
def test_backends_agree_on_rref_rank_reduce(p):
    # Small matrices, inserted as two blocks.
    rng = np.random.default_rng(2024)
    for _ in range(200):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 12))
        a = rng.integers(0, p, size=(rows, cols))
        extra = rng.integers(0, p, size=(3, cols))
        split = int(rng.integers(0, rows + 1))
        _check_against_reference(a, p, [split, rows - split], extra)


@pytest.mark.parametrize("p", [2, 3, 251])
def test_blocked_kernel_matches_reference_across_panels(p):
    # Matrices of several panels, full-rank and rank-deficient (products of
    # thin random factors), inserted as 3-5 uneven blocks, so new pivot rows
    # are back-substituted into an existing basis many times. The extra rows
    # mix random rows with members of the row space.
    rng = np.random.default_rng(31 + p)
    shapes = [(200, 150, None), (200, 150, 12), (150, 200, None), (130, 100, 40),
              (160, 40, None), (70, 90, 65)]
    for rows, cols, thin in shapes:
        if thin is None:
            a = rng.integers(0, p, size=(rows, cols))
        else:
            a = rng.integers(0, p, size=(rows, thin)) @ rng.integers(0, p, size=(thin, cols)) % p
        nblocks = int(rng.integers(3, 6))
        cuts = np.sort(rng.choice(np.arange(1, rows), size=nblocks - 1, replace=False))
        blocks = np.diff([0, *cuts.tolist(), rows]).tolist()
        members = rng.integers(0, p, size=(4, rows)) @ a % p
        extra = np.vstack([rng.integers(0, p, size=(5, cols)), members])
        _check_against_reference(a, p, blocks, extra)
        acc = kernels.Echelon(cols, p)
        acc.insert(a)
        assert not acc.reduce(members).any()


def _echelon_panel(rng, p, rows, cols, pivots):
    # A rows x cols matrix of rank len(pivots) with exactly those pivot
    # columns: random combinations of an echelon form that is one at each
    # pivot, zero left of it and random right of it. Every column between
    # two pivots is zero below the current row once the pivots left of it
    # are taken, so the pivot loop rebuilds its candidate list at each gap.
    R = np.zeros((len(pivots), cols), np.int64)
    for i, c in enumerate(pivots):
        R[i, c] = 1
        R[i, c + 1 :] = rng.integers(0, p, size=cols - c - 1)
    while True:
        L = rng.integers(0, p, size=(rows, len(pivots)))
        if kernels.rank_of_rows(L.T, p) == len(pivots):
            return L @ R % p


def _unit_upper(rng, p, rows, cols):
    # Rows in echelon form with a 1 at column i of row i, zero left of it
    # and random right of it; rows need not exceed cols.
    a = np.triu(rng.integers(0, p, size=(rows, cols)), 1)
    a[np.arange(rows), np.arange(rows)] = 1
    return a


@pytest.mark.parametrize("p", [2, 3, 251])
def test_reduce_matches_reference_with_rows_stored_out_of_pivot_order(p):
    # Echelon rows inserted one at a time, the rightmost pivot first, are
    # stored in descending pivot order, and reduce reads them in that order.
    rng = np.random.default_rng(61 + p)
    for rows, cols in [(3, 5), (38, 40), (68, 70)]:
        a = _unit_upper(rng, p, rows, cols)[::-1].copy()
        members = rng.integers(0, p, size=(2, rows)) @ a % p
        extra = np.vstack([rng.integers(0, p, size=(4, cols)), members])
        acc = kernels.Echelon(cols, p)
        for row in a:
            acc.insert(row[None])
        assert acc._basis.pivots() == list(range(rows - 1, -1, -1))
        _check_against_reference(a, p, [1] * rows, extra)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251, 65521])
def test_pivot_loop_branches_match_reference(p):
    # Panels aimed at each branch of the residue's pivot loop, checked bit
    # for bit against the loop reference through every public surface, and
    # through the pivot loop itself on float32 and float64 panels.
    rng = np.random.default_rng(97 + p)
    cases = []
    # Tall 64-row panels of residue rank far below 64: pivots separated by
    # gaps of dependent columns (one or many candidate-list rebuilds), and
    # a band of all-zero columns that is never a candidate.
    for pivots in ([0, 5, 30, 31, 80, 150, 151, 200], [3, 4, 5, 6], [17], list(range(0, 210, 7))):
        a = _echelon_panel(rng, p, 64, 210, pivots)
        a[:, 100:120] = 0
        cases.append(a)
    # Sparse rows under dense ones: early pivot columns are nonzero in most
    # rows, later ones in few; either way only those rows are updated.
    a = rng.integers(0, p, size=(64, 120))
    a[24:] *= rng.random((40, 120)) < 0.05
    cases.append(a)
    a = rng.integers(0, p, size=(64, 90)) * (rng.random((64, 90)) < 0.1)
    cases.append(a)
    # Each pivot case at every step, in panels of 64 rows and in small
    # ones: a 1 in row r (unit upper triangular rows), a 1 only below row
    # r (those rows reversed), and, for odd p, no 1 in the column (twice
    # those rows, in either order). Then a first column nonzero in every
    # row, and a first column whose only 1 lies below row 0, under entries
    # that are 0 or not 1.
    for rows, cols in [(64, 100), (4, 7), (7, 9)]:
        upper = _unit_upper(rng, p, rows, cols)
        cases += [upper, upper[::-1].copy()]
        if p > 2:
            cases += [2 * upper % p, (2 * upper % p)[::-1].copy()]
        a = rng.integers(0, p, size=(rows, cols))
        a[:, 0] = rng.integers(1, p, size=rows)
        cases.append(a)
        a = rng.integers(0, p, size=(rows, cols))
        a[:, 0] = rng.integers(2, p, size=rows) * (rng.random(rows) < 0.5) if p > 2 else 0
        a[rows // 2, 0] = 1
        cases.append(a)
    if p == 251:  # 256 columns or more put GF(251) elimination in float64
        cases.append(_echelon_panel(rng, p, 64, 300, [0, 2, 150, 299]))
    # Panels below 64 cells, dense and low-rank, including a single row or
    # column.
    for rows, cols in [(1, 5), (5, 1), (3, 7), (7, 9), (9, 7), (4, 15)]:
        cases.append(rng.integers(0, p, size=(rows, cols)))
        cases.append(_echelon_panel(rng, p, rows, cols, [min(1, cols - 1)]))
    # float32 holds every intermediate of the pivot loop while p**2 < 2**22
    dtypes = (np.float32, np.float64) if p * p < 2**22 else (np.float64,)
    for a in cases:
        rows, cols = a.shape
        members = rng.integers(0, p, size=(2, rows)) @ a % p
        extra = np.vstack([rng.integers(0, p, size=(3, cols)), members])
        _check_against_reference(a, p, [rows], extra)
        half = rows // 2
        _check_against_reference(a, p, [half, rows - half], extra)
        ref = a.copy()
        ref_r, ref_piv = _rref_loops(ref, p)
        for dtype in dtypes:
            panel = a.astype(dtype)
            r, piv = kernels._rref(panel, p)
            assert (r, piv) == (ref_r, ref_piv.tolist()), (p, dtype, a.tolist())
            assert panel.astype(np.int64).tolist() == ref.tolist(), (p, dtype, a.tolist())


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_full_rank_echelon_takes_no_more_rows(p):
    # Once the rank equals the column count, every later insert returns it
    # and leaves the basis as it was. Full rank falls inside the first or
    # the second 64-row panel of the block that reaches it, or at a block's
    # end; each later block crosses the 64-row panel edge.
    rng = np.random.default_rng(211 + p)
    for cols, first in ((9, 5), (40, 0), (90, 10), (100, 64)):
        acc = kernels.Echelon(cols, p)
        acc.insert(rng.integers(0, p, size=(first, cols)))
        while acc.rank < cols:
            acc.insert(rng.integers(0, p, size=(70, cols)))
        basis, piv = acc.basis_rows()
        assert piv == tuple(range(cols)) and basis.tolist() == np.eye(cols, dtype=int).tolist()
        for rows in (70, 130, 1):
            assert acc.insert(rng.integers(0, p, size=(rows, cols))) == cols
            again, again_piv = acc.basis_rows()
            assert again_piv == piv and again.tolist() == basis.tolist()


def _invertible_gf2(rng, n):
    # L @ U of random unit lower and upper triangular factors.
    eye = np.eye(n, dtype=np.int64)
    L = np.tril(rng.integers(0, 2, size=(n, n)), -1) + eye
    U = np.triu(rng.integers(0, 2, size=(n, n)), 1) + eye
    return L @ U % 2


# Column counts at the edges of the packed GF(2) rows: one column, a byte
# less one, a byte, a byte and one, the same around 64 bits, and one over
# 128 bits.
PACKED_COLS = [1, 7, 8, 9, 62, 63, 64, 65, 129, 455]


@pytest.mark.parametrize("cols", PACKED_COLS)
def test_gf2_packing_edges_match_reference(cols):
    # A small panel and panels of 63, 64 and 65 rows (one short of a whole
    # panel, a whole one, one over), each dense, of rank at most 3, and
    # with about half its rows zero; each goes in whole and as three
    # uneven blocks, so later blocks meet an existing basis.
    rng = np.random.default_rng(400 + cols)
    for rows in (5, 63, 64, 65):
        dense = rng.integers(0, 2, size=(rows, cols))
        thin = rng.integers(0, 2, size=(rows, 3)) @ rng.integers(0, 2, size=(3, cols)) % 2
        holes = dense * (rng.random((rows, 1)) < 0.5)
        for a in (dense, thin, holes):
            members = rng.integers(0, 2, size=(2, rows)) @ a % 2
            extra = np.vstack([rng.integers(0, 2, size=(3, cols)), members])
            _check_against_reference(a, 2, [rows], extra)
            third = rows // 3
            _check_against_reference(a, 2, [third, rows - 2 * third, third], extra)


@pytest.mark.parametrize("n", [1, 8, 63, 64, 65, 129])
def test_gf2_full_rank_squares_and_zero_rows_match_reference(n):
    # Full-rank squares, alone and stacked on themselves (every row of the
    # second copy reduces to zero), and all-zero matrices.
    rng = np.random.default_rng(600 + n)
    a = _invertible_gf2(rng, n)
    extra = rng.integers(0, 2, size=(3, n))
    R, r, piv = kernels.rref_array(a, 2)
    assert r == n and piv == tuple(range(n))
    assert R.tolist() == np.eye(n, dtype=np.int64).tolist()
    _check_against_reference(a, 2, [n], extra)
    _check_against_reference(np.vstack([a, a]), 2, [n // 2, n + n // 2, n - 2 * (n // 2)], extra)
    zeros = np.zeros((n, n), np.int64)
    _check_against_reference(zeros, 2, [n], extra)
    _check_against_reference(np.vstack([zeros, a]), 2, [n, n], extra)


@pytest.mark.parametrize("cols", PACKED_COLS)
def test_gf2_packed_rref_equals_the_float_pivot_loop(cols):
    # The reduced rows against the float64 pivot loop of odd p as a
    # reference: random and zero matrices of one row, a few rows, and one
    # row either side of a panel.
    rng = np.random.default_rng(800 + cols)
    for rows in (1, 5, 63, 64, 65):
        for a in (rng.integers(0, 2, size=(rows, cols)), np.zeros((rows, cols), np.int64)):
            loop = a.astype(np.float64)
            rank, piv = kernels._rref(loop, 2)
            R, r, pivots = kernels.rref_array(a, 2)
            assert (r, pivots) == (rank, tuple(piv))
            assert R.dtype == np.int64 and R.tolist() == loop[:rank].astype(np.int64).tolist()


@pytest.mark.parametrize("cols", PACKED_COLS)
def test_gf2_echelon_at_rank_zero_and_full_rank(cols):
    # Rank 0: residues are the rows mod 2, the basis is empty and the
    # kernel is the identity. Full rank: every later insert returns cols,
    # every residue is zero and the kernel is empty.
    rng = np.random.default_rng(900 + cols)
    rows = rng.integers(-3, 4, size=(4, cols))
    acc = kernels.Echelon(cols, 2)
    assert acc.insert(np.zeros((3, cols), np.int64)) == 0
    assert acc.reduce(rows).tolist() == (rows % 2).tolist()
    basis, pivots = acc.basis_rows()
    assert basis.shape == (0, cols) and pivots == ()
    assert acc.kernel().tolist() == np.eye(cols, dtype=np.int64).tolist()
    acc.insert(_invertible_gf2(rng, cols))
    for block in (rng.integers(0, 2, size=(70, cols)), np.zeros((1, cols), np.int64)):
        assert acc.insert(block) == cols
    basis, pivots = acc.basis_rows()
    assert pivots == tuple(range(cols)) and basis.tolist() == np.eye(cols, dtype=int).tolist()
    assert not acc.reduce(rows).any()
    assert acc.kernel().shape == (0, cols)


def test_gf2_bool_and_integral_float_rows_match_int_rows():
    # The same rows as bools, integral floats, and integers off the
    # canonical residues give the same results through every surface.
    rng = np.random.default_rng(77)
    a = rng.integers(0, 2, size=(70, 65))
    a[[3, 40]] = 0
    extra = rng.integers(0, 2, size=(4, 65))
    _check_against_reference(a, 2, [30, 40], extra)

    def surfaces(rows):
        R, r, piv = kernels.rref_array(rows, 2)
        acc = kernels.Echelon(65, 2)
        acc.insert(rows[:30])
        acc.insert(rows[30:])
        basis, pivots = acc.basis_rows()
        return (R.tolist(), r, piv, basis.tolist(), pivots, acc.kernel().tolist(),
                acc.reduce(extra).tolist(), kernels.rank_of_rows(rows, 2))

    want = surfaces(a)
    shifted = a + 2 * rng.integers(-3, 4, size=a.shape)
    for rows in (a.astype(bool), a.astype(np.float64), shifted, shifted.astype(np.float64)):
        assert surfaces(rows) == want, rows.dtype


@pytest.mark.parametrize(
    "p,rows,cols",
    [(2, 9, 10), (2, 70, 80), (3, 40, 45), (5, 70, 70), (7, 0, 6), (65521, 20, 24)],
)
def test_kernel_is_the_orthogonal_complement(p, rows, cols):
    # GF(2) rows of 64 columns or more are packed through np.packbits, and
    # p = 65521 keeps a float64 basis. The accumulator's kernel, read off
    # its stored rows, is the nullspace of its basis row for row.
    a = np.random.default_rng(rows + cols).integers(0, p, size=(rows, cols))
    acc = kernels.Echelon(cols, p)
    acc.insert(a)
    ker = acc.kernel()
    assert ker.dtype == np.int64 and ker.shape == (cols - acc.rank, cols)
    assert not ((a @ ker.T) % p).any()
    assert kernels.rank_of_rows(ker, p) == cols - acc.rank
    assert ker.tolist() == MatrixGF(PrimeField(p), acc.basis_rows()[0]).nullspace().tolist()


ENTRY_POINTS = {
    "rref_array": lambda rows: kernels.rref_array(rows, 3),
    "rank_of_rows": lambda rows: kernels.rank_of_rows(rows, 3),
    "Echelon.insert": lambda rows: kernels.Echelon(2, 3).insert(rows),
    "Echelon.reduce": lambda rows: _seeded_echelon().reduce(rows),
}


def _seeded_echelon():
    acc = kernels.Echelon(2, 3)
    acc.insert([[1, 2]])
    return acc


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_refuse_non_integral_rows(entry):
    # The rule of PrimeField.reduce: fractions, non-finite or out-of-range
    # floats, strings and objects raise instead of being truncated.
    call = ENTRY_POINTS[entry]
    bad = (
        [[0.9, 1.5], [2.2, 1]],
        np.array([[0.5, 0.5]]),
        [[0.7, 0.2]],
        [[np.nan, 1]],
        [[np.inf, 0]],
        [[2.0**63, 0]],
        np.array([["1", "2"]]),
        [[2**70, 1]],
        np.array([[2**63, 0]], np.uint64),
    )
    for rows in bad:
        with pytest.raises(ValueError, match="integers"):
            call(rows)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_accept_integral_rows_of_any_type(entry):
    def plain(result):
        if isinstance(result, tuple):
            return tuple(plain(x) for x in result)
        return result.tolist() if isinstance(result, np.ndarray) else result

    call = ENTRY_POINTS[entry]
    want = plain(call(np.array([[4, -1], [2, 1]])))
    same = ([[4.0, -1.0], [2.0, 1.0]], [[4, -1], [2, 1]], np.array([[4, -1], [2, 1]], np.int8))
    for rows in same:
        assert plain(call(rows)) == want, rows
    assert plain(call([[True, False]])) == plain(call([[1, 0]]))


# Each integer argument of Echelon, with the integer that `x` makes of a
# Python int.
ECHELON_ARGUMENTS = {
    "cols": lambda x: kernels.Echelon(x(4), 3),
    "p": lambda x: kernels.Echelon(4, x(3)),
}


@pytest.mark.parametrize("arg", sorted(ECHELON_ARGUMENTS))
def test_echelon_integer_arguments_refuse_floats(arg):
    # A float is refused, not truncated (GF(3.9) would be GF(3)), even
    # when integral; a numpy integer is accepted.
    make = ECHELON_ARGUMENTS[arg]

    def filled(x):
        acc = make(x)
        acc.insert([[1, 2, 0, 1], [2, 0, 1, 1]])
        basis, pivots = acc.basis_rows()
        return basis.tolist(), pivots, acc.kernel().tolist()

    want = filled(int)
    assert filled(np.int64) == want
    for bad in (lambda v: v + 0.9, float, str):
        with pytest.raises(TypeError):
            make(bad)


# Each public kernel, with the modulus it is given.
MODULUS_CALLS = {
    "rref_array": lambda p: kernels.rref_array([[1, 2], [2, 2]], p)[1],
    "rank_of_rows": lambda p: kernels.rank_of_rows([[1, 2], [2, 2]], p),
    "Echelon": lambda p: kernels.Echelon(2, p).insert([[1, 2], [2, 2]]),
}


@pytest.mark.parametrize("entry", sorted(MODULUS_CALLS))
def test_kernels_validate_the_modulus(entry):
    # A float modulus is refused, and one below 2 has no field (rref_array
    # over 0 would warn of a division by zero and report rank 0).
    call = MODULUS_CALLS[entry]
    assert call(3) == call(np.int64(3)) == 2
    for bad in (3.0, 2.5):
        with pytest.raises(TypeError):
            call(bad)
    for bad in (1, 0, -2):
        with pytest.raises(ValueError, match="at least 2"):
            call(bad)


# (p, cols) on each side of the float32 edge cols * 4**b < 2**24, with
# b = (p - 1).bit_length(): 3 and 4 columns at p = 2039 (b = 11), 255 and
# 256 at p = 251 (b = 8), and a width of gf3-channel's scan levels.
FLOAT_TYPE_CASES = {
    (2039, 3): np.float32,
    (2039, 4): np.float64,
    (251, 255): np.float32,
    (251, 256): np.float64,
    (3, 210): np.float32,
}


def _worst_case_rows(rng, p, cols):
    # A basis [I | (p-1)] of rank cols - 1 (four panels at 255 and 256
    # columns), then all-(p-1) rows: reducing those against it sums
    # (cols-1)*(p-1)**2 in the last column, close to the cols * 4**b bound.
    # A few random rows sit between them.
    k = cols - 1
    ident = np.hstack([np.eye(k, dtype=np.int64), np.full((k, 1), p - 1)])
    full = np.full((3, cols), p - 1)
    return np.vstack([ident, full, rng.integers(0, p, size=(4, cols)), full])


def _thin_rows(rng, p, rows, cols, rank):
    # rows x cols of rank at most `rank`, so it spans many panels without
    # reaching full rank.
    return rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, cols)) % p


@pytest.mark.parametrize("p,cols", sorted(FLOAT_TYPE_CASES))
def test_float_type_rule_matches_reference(p, cols, monkeypatch):
    # Every surface, bit for bit against the loop reference, on random,
    # low-rank and worst-case all-(p-1) rows inserted in several panels;
    # every panel, pivot-loop step and reduction runs in the type that
    # (cols, p) selects, so a silent widening to float64 fails here.
    want = FLOAT_TYPE_CASES[p, cols]
    assert kernels._float_type(cols, p) is want
    seen = set()
    real_rref, real_mod = kernels._rref, kernels._mod

    def rref(a, q):
        seen.add(a.dtype)
        return real_rref(a, q)

    def mod(x, q):
        seen.add(x.dtype)
        out = real_mod(x, q)
        seen.add(out.dtype)
        return out

    monkeypatch.setattr(kernels, "_rref", rref)
    monkeypatch.setattr(kernels, "_mod", mod)
    rng = np.random.default_rng(p + cols)
    worst = _worst_case_rows(rng, p, cols)
    cases = [
        (rng.integers(0, p, size=(9, cols)), [4, 5]),
        (_thin_rows(rng, p, 150, cols, min(cols - 1, 2)), [40, 70, 40]),
        (worst, [cols - 1, worst.shape[0] - cols + 1]),
        (worst, [70, worst.shape[0] - 70] if cols > 70 else [1, worst.shape[0] - 1]),
    ]
    for a, blocks in cases:
        extra = np.vstack([rng.integers(0, p, size=(3, cols)), np.full((2, cols), p - 1)])
        _check_against_reference(a, p, blocks, extra)
        acc = kernels.Echelon(cols, p)
        for lo, hi in zip(np.cumsum([0, *blocks[:-1]]), np.cumsum(blocks)):
            acc.insert(a[lo:hi])
        assert acc._basis.basis.dtype == want
    assert seen == {np.dtype(want)}


@pytest.mark.parametrize("p", [3, 251, 2039])
def test_float32_mod_is_exact_near_the_edge(p):
    # Integer-valued float32 x with |x| + p <= 2**24, on the fast path of
    # 64 cells or more and on np.remainder's below it, against Python's %.
    top = 2**24 - p
    for span in (range(top - 300, top + 1), range(-top, -top + 301), range(-p - 5, p + 6)):
        for n in (len(span), 40):
            values = list(span)[:n]
            x = np.array(values, np.float32)
            assert x.astype(np.int64).tolist() == values
            out = kernels._mod(x, p)
            assert out.dtype == np.float32
            assert out.astype(np.int64).tolist() == [v % p for v in values]


# Each way a row block can miss an Echelon's width, as (method, columns of
# the rows, consume) for an Echelon of 4 columns.
WIDTH_MISMATCHES = {
    "insert-wide": ("insert", 6, False),
    "insert-narrow": ("insert", 2, False),
    "insert-wide-consumed": ("insert", 6, True),
    "insert-narrow-consumed": ("insert", 2, True),
    "reduce-wide": ("reduce", 6, False),
    "reduce-narrow": ("reduce", 2, False),
}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("case", sorted(WIDTH_MISMATCHES))
def test_echelon_refuses_rows_of_another_width(case, p):
    # Over GF(2) 6-column rows once gave rank 2 and a corrupt basis, and
    # reduce gave a 4-column answer; odd p raised numpy broadcast errors.
    # Now a ValueError names both widths and the basis stays as it was.
    method, width, consume = WIDTH_MISMATCHES[case]
    acc = kernels.Echelon(4, p)
    acc.insert([[1, 0, 1, 1]])
    before = acc.basis_rows()
    rows = np.ones((2, width), np.int64)
    kwargs = {"consume": True} if consume else {}
    with pytest.raises(ValueError, match=f"{width} columns.* 4 columns"):
        getattr(acc, method)(rows, **kwargs)
    after = acc.basis_rows()
    assert acc.rank == 1 and after[1] == before[1] and after[0].tolist() == before[0].tolist()


@pytest.mark.parametrize("p", [2, 3])
def test_echelon_refuses_a_negative_column_count(p):
    with pytest.raises(ValueError, match="-1"):
        kernels.Echelon(-1, p)


def test_warmup_touches_every_row_encoding(monkeypatch):
    # GF(2)'s packed rows, and odd p's float32 and float64 rows.
    made = []
    real = kernels._basis

    def basis(cols, p):
        b = real(cols, p)
        made.append(b.basis.dtype.name if hasattr(b, "basis") else type(b).__name__)
        return b

    monkeypatch.setattr(kernels, "_basis", basis)
    kernels.warmup()
    assert set(made) == {"_PackedRows", "float32", "float64"}


def test_exactness_guard_refuses_too_wide_pieces():
    # p - 1 = 65520 < 2**16, so the guard admits fewer than 2**21 columns.
    with pytest.raises(ValueError, match="2\\*\\*53"):
        kernels.Echelon(2**21, 65521)


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
    # rref_array returns just the reduced rows: an int64 (rank, cols) array,
    # with no zero rows below the rank, in every row encoding and on empty
    # inputs too.
    deficient = np.array([[1, 1, 0, 1], [2, 2, 0, 2], [0, 0, 1, 1]])
    empty = [np.zeros(shape, np.int64) for shape in ((0, 4), (3, 0), (0, 0))]
    cases = [(np.zeros((3, 4), np.int64), 0, ()), (deficient, 2, (0, 2))]
    cases += [(a, 0, ()) for a in empty]
    for p in (2, 3, 65521):
        for a, rank, pivots in cases:
            R, r, piv = kernels.rref_array(a, p)
            assert (r, piv) == (rank, pivots), (p, a.shape)
            assert R.dtype == np.int64 and R.shape == (rank, a.shape[1]), (p, a.shape)
        assert kernels.rref_array(deficient, p)[0].tolist() == [[1, 1, 0, 1], [0, 0, 1, 1]]
        for a in empty:
            assert kernels.rank_of_rows(a, p) == 0, (p, a.shape)
        assert LinearFormSpace(PrimeField(p), 4, np.zeros((0, 4), np.int64)).dim == 0
        acc = kernels.Echelon(4, p)
        assert acc.insert(np.zeros((2, 4), dtype=np.int64)) == 0
        assert acc.rank == 0


def test_warmup_is_idempotent():
    kernels.warmup()
    kernels.warmup()
