"""Exact matrix layer: canonical RREF, nullspaces, solving, preimages."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldec.field import FieldMismatchError, PrimeField
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
    a = M(5, [[1, 1], [0, 1]])
    x = solve(a, [3, 2])
    assert x.tolist() == [1, 2]
    bad = solve(M(2, [[1, 1], [1, 1]]), [0, 1])
    assert bad is None


def test_solve_underdetermined_sets_free_vars_to_zero():
    a = M(7, [[1, 2, 3]])
    x = solve(a, [4])
    assert x.tolist() == [4, 0, 0]
    assert (a.a @ x % 7).tolist() == [4]


def test_preimage_of_colspace_known_example():
    # col(A) = span{e1}; preimage of that inside col(I2) is the x-axis
    A = M(2, [[1], [0]])
    B = MatrixGF(PrimeField(2), np.eye(2))
    pre = preimage_of_colspace(A, B)
    assert pre.tolist() == [[1, 0]]


def test_preimage_of_colspace_full():
    # every column of B already lies in col(A): preimage is everything
    A = MatrixGF(PrimeField(3), np.eye(2))
    B = M(3, [[1, 2], [0, 1]])
    pre = preimage_of_colspace(A, B)
    assert pre.tolist() == [[1, 0], [0, 1]]


def test_preimage_of_colspace_refuses_mixed_fields():
    with pytest.raises(FieldMismatchError):
        preimage_of_colspace(M(2, [[1], [0]]), M(3, [[1, 0], [0, 1]]))


def test_preimage_of_colspace_property():
    rng = np.random.default_rng(3)
    F = PrimeField(5)
    for _ in range(20):
        A = MatrixGF(F, rng.integers(0, 5, size=(4, 3)))
        B = MatrixGF(F, rng.integers(0, 5, size=(4, 2)))
        pre = preimage_of_colspace(A, B)
        # every reported combination c satisfies B @ c in col(A)
        for c in pre:
            target = (B.a @ c) % 5
            aug = np.column_stack([A.a, target])
            assert rank_of_rows(aug, 5) == rank_of_rows(A.a, 5)


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
    assert r + ns.shape[0] == m.cols
    for row in ns:
        assert (m.a @ row % p == 0).all()


@given(small_matrix())
@settings(max_examples=100)
def test_rref_row_space_preserved(data):
    p, entries = data
    m = M(p, entries)
    R, r, _ = rref_array(m.a, p)
    assert rank_of_rows(np.vstack([m.a, R]), p) == r
