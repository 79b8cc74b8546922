"""Linear codes presented by generator matrices, and constructions on them.

The generator matrix is kept exactly as given (no standard-form
reduction): row order is what ties decoded projective points back to
message coordinates, and row removal is defined positionally.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .field import PrimeField
from .linalg import MatrixGF, solve

__all__ = ["AlreadyCodewordError", "Codeword", "LinearCode", "weight"]


class AlreadyCodewordError(ValueError):
    """Raised when augmenting a code by a word it already contains."""


def weight(v) -> int:
    """Hamming weight of a vector (number of nonzero entries)."""
    return int(np.count_nonzero(np.asarray(v)))


@dataclass(frozen=True)
class Codeword:
    """A codeword vector together with the message encoding to it."""

    v: np.ndarray
    message: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Codeword):
            return NotImplemented
        return bool(np.array_equal(self.v, other.v)) and bool(
            np.array_equal(self.message, other.message)
        )


class LinearCode:
    """An [n, k] linear code over GF(p) with a full-row-rank generator matrix."""

    __slots__ = ("field", "G", "_dmin", "_min_level", "_full_levels", "_parent")

    def __init__(self, field: PrimeField, generator):
        G = MatrixGF(field, generator)
        k, n = G.a.shape
        if not 1 <= k <= n:
            raise ValueError(f"generator matrix shape {G.a.shape} needs 1 <= k <= n")
        if kernels.rank_of_rows(G.a, field.p) != k:
            raise ValueError("generator matrix rows are linearly dependent")
        self.field = field
        self.G = G
        self._dmin = None
        self._min_level = None
        self._full_levels = {}  # level s <= d: (witnesses, B^-1); see ideals._witnesses
        self._parent = None  # the code that augment extended

    @property
    def n(self) -> int:
        return self.G.a.shape[1]

    @property
    def k(self) -> int:
        return self.G.a.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.field == other.field and self.G == other.G

    __hash__ = None

    def __repr__(self) -> str:
        return f"LinearCode(GF({self.field.p}), n={self.n}, k={self.k})"

    def _vector(self, v, length: int, what: str) -> np.ndarray:
        arr = self.field.reduce(v)
        if arr.ndim != 1 or arr.shape[0] != length:
            raise ValueError(f"{what} must be a vector of length {length}")
        return arr

    def encode(self, message) -> Codeword:
        """Codeword for a length-k message: message @ G."""
        msg = self._vector(message, self.k, "message")
        v = (msg @ self.G.a) % self.field.p
        return Codeword(v=v, message=msg)

    def contains(self, v):
        """Membership test for a length-n word.

        Returns (True, message) with message @ G = v, or (False, None).
        """
        v = self._vector(v, self.n, "word")
        witness = solve(self.field, self.G.a.T, v)
        if witness is None:
            return False, None
        return True, witness

    def augment(self, w) -> LinearCode:
        """The [n, k+1] code generated by G with w appended as a last row.

        The new code keeps this code as its parent: the distance scan of
        the augmented code starts its levels up to this code's distance
        from this code's full levels (see `ideals.min_distance`).
        """
        w = self._vector(w, self.n, "word")
        inside, _ = self.contains(w)
        if inside:
            raise AlreadyCodewordError("cannot augment: the word is already a codeword")
        Cw = LinearCode(self.field, np.concatenate([self.G.a, w[None, :]], axis=0))
        Cw._parent = self
        return Cw

    def remove_row(self, j: int) -> LinearCode:
        """The [n, k-1] subcode spanned by all generator rows except row j."""
        j = operator.index(j)
        if not 0 <= j < self.k:
            raise ValueError(f"row index {j} out of range for k={self.k}")
        if self.k < 2:
            raise ValueError("cannot remove the only generator row")
        keep = [i for i in range(self.k) if i != j]
        return LinearCode(self.field, self.G.a[keep])
