"""Exact matrix layer: canonical RREF, nullspaces, solving, preimages."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldec.field import PrimeField
from coldec.kernels import rank_of_rows, rref_array
from coldec.linalg import MatrixGF, preimage_of_colspace, solve


def M(p, rows):
    return MatrixGF(PrimeField(p), rows)


def test_construction_reduces_and_freezes():
    m = M(5, [[-1, 7], [10, 3]])
    assert m.a.tolist() == [[4, 2], [0, 3]]
    with pytest.raises(ValueError):
        m.a[0, 0] = 1  # backing array is read-only


def test_rank_known_examples():
    assert rank_of_rows([[1, 1], [1, 1]], 2) == 1
    assert rank_of_rows([[1, 2], [2, 4]], 5) == 1
    assert rank_of_rows([[1, 0], [0, 1]], 2) == 2
    assert rank_of_rows([[0, 0], [0, 0]], 3) == 0


def test_rref_is_canonical_and_idempotent():
    R, r, piv = rref_array([[2, 4, 2], [1, 2, 4], [0, 0, 3]], 7)
    assert r == 2 and piv == (0, 2)
    # pivots are 1 and pivot columns are unit vectors
    for row_idx, col in enumerate(piv):
        col_vals = R[:, col].tolist()
        assert col_vals[row_idx] == 1 and sum(col_vals) == 1
    R2, r2, piv2 = rref_array(R, 7)
    assert r2 == r and piv2 == piv and np.array_equal(R2, R)


def test_nullspace_known_example():
    ns = M(2, [[1, 1, 0], [0, 1, 1]]).nullspace()
    assert ns.tolist() == [[1, 1, 1]]


def test_nullspace_canonical_free_columns():
    # x1 free, x3 free: canonical basis has a 1 in each free column in turn
    ns = M(5, [[1, 2, 0, 1]]).nullspace()
    assert ns.shape == (3, 4)
    free_cols = [1, 2, 3]
    for row, col in zip(ns, free_cols):
        assert row[col] == 1
    m = M(5, [[1, 2, 0, 1]])
    assert all((m.a @ row % 5 == 0).all() for row in ns)


def test_nullspace_full_rank_is_empty():
    ns = M(3, [[1, 0], [0, 1]]).nullspace()
    assert ns.shape == (0, 2)


def test_solve_unique_and_inconsistent():
    x = solve(PrimeField(5), [[1, 1], [0, 1]], [3, 2])
    assert x.tolist() == [1, 2]
    bad = solve(PrimeField(2), [[1, 1], [1, 1]], [0, 1])
    assert bad is None


def test_solve_underdetermined_sets_free_vars_to_zero():
    a = np.array([[1, 2, 3]])
    x = solve(PrimeField(7), a, [4])
    assert x.tolist() == [4, 0, 0]
    assert (a @ x % 7).tolist() == [4]


def test_solve_reduces_negative_entries():
    # -1 = 4 and -3 = 2 mod 5: x + 4y = 2, y = 3 gives x = 0
    x = solve(PrimeField(5), [[1, -1], [0, 1]], [-3, 3])
    assert x.tolist() == [0, 3]


@pytest.mark.parametrize(
    "a, b",
    [
        ([[1, 0], [0, 1]], [1, 0, 0]),  # right-hand side too long
        ([[1, 0], [0, 1]], [[1], [0]]),  # right-hand side not a vector
        ([1, 0], [1, 0]),  # matrix not 2-D
        ([[0.5, 0], [0, 1]], [1, 0]),  # fractional matrix entry
        ([[1, 0], [0, 1]], [1.5, 0]),  # fractional right-hand side
    ],
)
def test_solve_refuses_bad_operands(a, b):
    with pytest.raises(ValueError):
        solve(PrimeField(3), a, b)


def test_preimage_of_colspace_known_example():
    # col(A) = span{e1}; preimage of that inside col(I2) is the x-axis
    pre = preimage_of_colspace(PrimeField(2), [[1], [0]], np.eye(2))
    assert pre.tolist() == [[1, 0]]


def test_preimage_of_colspace_full():
    # every column of B already lies in col(A): preimage is everything
    pre = preimage_of_colspace(PrimeField(3), np.eye(2), [[1, 2], [0, 1]])
    assert pre.tolist() == [[1, 0], [0, 1]]


def test_preimage_of_colspace_empty_column_space():
    # col(A) = 0: only combinations c with B @ c = 0, here c = t * (1, 1)
    a = np.zeros((2, 0), np.int64)
    pre = preimage_of_colspace(PrimeField(3), a, [[1, 2], [2, 1]])
    assert pre.tolist() == [[1, 1]]


@pytest.mark.parametrize(
    "a, b",
    [
        ([[1], [0]], [[1, 0, 0]]),  # row counts differ
        ([1, 0], [[1, 0], [0, 1]]),  # a not 2-D
        ([[1], [0]], [[0.5, 0], [0, 1]]),  # fractional entry
    ],
)
def test_preimage_of_colspace_refuses_bad_operands(a, b):
    with pytest.raises(ValueError):
        preimage_of_colspace(PrimeField(3), a, b)


def test_preimage_of_colspace_property():
    rng = np.random.default_rng(3)
    F = PrimeField(5)
    for _ in range(20):
        A = rng.integers(0, 5, size=(4, 3))
        B = rng.integers(0, 5, size=(4, 2))
        pre = preimage_of_colspace(F, A, B)
        # every reported combination c satisfies B @ c in col(A)
        for c in pre:
            target = (B @ c) % 5
            aug = np.column_stack([A, target])
            assert rank_of_rows(aug, 5) == rank_of_rows(A, 5)
        # and the reported space is all of them: its dimension is the
        # nullity of [A | B] minus that of A
        nullity = 5 - rank_of_rows(np.column_stack([A, B]), 5)
        assert pre.shape[0] == nullity - (3 - rank_of_rows(A, 5))


@st.composite
def small_matrix(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    entries = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return p, entries


@given(small_matrix())
@settings(max_examples=150)
def test_rank_transpose_and_nullity(data):
    p, entries = data
    m = M(p, entries)
    r = rank_of_rows(m.a, p)
    assert r == rank_of_rows(m.a.T, p)
    ns = m.nullspace()
    assert r + ns.shape[0] == m.a.shape[1]
    for row in ns:
        assert (m.a @ row % p == 0).all()


@given(small_matrix())
@settings(max_examples=100)
def test_rref_row_space_preserved(data):
    p, entries = data
    m = M(p, entries)
    R, r, _ = rref_array(m.a, p)
    assert rank_of_rows(np.vstack([m.a, R]), p) == r
