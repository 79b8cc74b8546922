"""Dense exact linear algebra over GF(p).

Nullspaces, linear solves, and column-space preimages, all read off the
reduced row echelon forms of `kernels.rref_array`. `MatrixGF` wraps a
code's generator matrix and the nullspace; `solve` and
`preimage_of_colspace` take a field and plain integer arrays, under the
input rule of `PrimeField.reduce`. Everything is deterministic: the
reduced echelon form is unique whichever nonzero entry the kernel pivots
on, canonical bases come from it, and free variables receive fixed
conventional values.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .field import PrimeField

__all__ = [
    "MatrixGF",
    "solve",
    "preimage_of_colspace",
]


class MatrixGF:
    """Immutable dense matrix over a prime field.

    Entries are canonical residues in an int64 array with the writeable
    flag cleared. Row and column counts may be zero.
    """

    __slots__ = ("field", "a")

    def __init__(self, field: PrimeField, entries):
        arr = field.reduce(entries)
        if arr.ndim != 2:
            raise ValueError(f"matrix entries must be 2-dimensional, got shape {arr.shape}")
        arr.flags.writeable = False
        self.field = field
        self.a = arr

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixGF):
            return NotImplemented
        return self.field == other.field and self.a.shape == other.a.shape and bool(
            np.array_equal(self.a, other.a)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"MatrixGF(GF({self.field.p}), shape={self.a.shape})"

    def nullspace(self) -> np.ndarray:
        """Canonical right-nullspace basis, one row per free column.

        Row i of the result is the kernel vector whose i-th free variable
        (free columns taken in increasing order) equals 1 and whose other
        free variables are 0. The zero-dimensional case is a (0, cols)
        array.
        """
        r, _, piv = kernels.rref_array(self.a, self.field.p)
        return kernels._kernel_of_reduced(r, piv, self.a.shape[1], self.field.p)


def solve(field: PrimeField, a, b) -> np.ndarray | None:
    """One solution x of a @ x = b over `field`, or None when there is none.

    `a` is a 2-D integer array and `b` a vector of length a.shape[0]. Free
    variables are set to zero, so the answer is deterministic.
    """
    a = np.asarray(a)
    b = field.reduce(b)
    if a.ndim != 2 or b.shape != a.shape[:1]:
        raise ValueError(
            f"need a 2-D matrix and a right-hand side of its row count, "
            f"got shapes {a.shape} and {b.shape}"
        )
    cols = a.shape[1]
    r, _, piv = kernels.rref_array(np.concatenate([a, b[:, None]], axis=1), field.p)
    x = np.zeros(cols, np.int64)
    for row, c in enumerate(piv):
        if c == cols:
            return None
        x[c] = r[row, cols]
    return x


def preimage_of_colspace(field: PrimeField, a, b) -> np.ndarray:
    """Canonical basis of {c : b @ c lies in the column space of a}.

    `a` and `b` are 2-D integer arrays with the same number of rows. These
    c are the c-blocks of the nullspace of [a | b], as a @ y + b @ c = 0
    puts b @ c = a @ (-y) in the column space; re-echelonizing the blocks
    gives a canonical basis, returned as rows of shape (dim, b.shape[1]).
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError(f"row-count mismatch: shapes {a.shape} and {b.shape}")
    ns = MatrixGF(field, np.concatenate([a, b], axis=1)).nullspace()
    return kernels.rref_array(ns[:, a.shape[1] :], field.p)[0]
