"""Dense exact linear algebra over GF(p).

Nullspaces, linear solves, and column-space preimages, all read off the
reduced row echelon forms of `kernels.rref_array`. Everything is
deterministic: the reduced echelon form is unique whichever nonzero entry
the kernel pivots on, canonical bases come from it, and free variables
receive fixed conventional values.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .field import FieldMismatchError, PrimeField

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

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self):
        return self.a.shape

    def transpose(self) -> MatrixGF:
        return MatrixGF(self.field, self.a.T)

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
        p = self.field.p
        r, rk, piv = kernels.rref_array(self.a, p)
        free = sorted(set(range(self.cols)).difference(piv))
        basis = np.zeros((len(free), self.cols), np.int64)
        basis[range(len(free)), free] = 1
        basis[:, piv] = (-r[:rk][:, free].T) % p
        return basis


def solve(a: MatrixGF, b) -> np.ndarray | None:
    """One solution x of a @ x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic. `b` is
    a length-rows vector.
    """
    p = a.field.p
    b = a.field.reduce(b)
    if b.ndim != 1 or b.shape[0] != a.rows:
        raise ValueError(f"right-hand side must have length {a.rows}")
    aug = np.concatenate([a.a, b[:, None]], axis=1)
    r, rk, piv = kernels.rref_array(aug, p)
    x = np.zeros(a.cols, np.int64)
    for row, c in enumerate(piv):
        if c == a.cols:
            return None
        x[c] = r[row, a.cols]
    return x


def preimage_of_colspace(a: MatrixGF, b: MatrixGF) -> np.ndarray:
    """Canonical basis of {c : b @ c lies in the column space of a}.

    Both matrices must have the same number of rows. Solutions (y, c) of
    a @ y = b @ c form the nullspace of [a | -b]; projecting them onto the
    c-block and re-echelonizing gives a canonical basis, returned as rows
    of shape (dim, b.cols).
    """
    if not isinstance(a, MatrixGF) or not isinstance(b, MatrixGF):
        raise TypeError("expected MatrixGF operands")
    if a.field != b.field:
        raise FieldMismatchError("operands live over different fields")
    if a.rows != b.rows:
        raise ValueError(f"row-count mismatch: {a.rows} vs {b.rows}")
    p = a.field.p
    stacked = MatrixGF(a.field, np.concatenate([a.a, (-b.a) % p], axis=1))
    ns = stacked.nullspace()
    proj = ns[:, a.cols :]
    r, rk, _ = kernels.rref_array(proj, p)
    return r[:rk].copy()
