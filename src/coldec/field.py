"""Exact arithmetic in prime fields GF(p)."""

from __future__ import annotations

import numpy as np

__all__ = ["FieldMismatchError", "PrimeField", "is_prime"]


class FieldMismatchError(ValueError):
    """Raised when elements of two different prime fields are combined."""


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality test (moduli stay below 2**16)."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The field GF(p) for a prime modulus p with 2 <= p < 2**16.

    Instances are immutable and compare by modulus. Helpers return
    canonical residues in [0, p).
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = int(p)
        if not 2 <= p < 2**16:
            raise ValueError(f"modulus must satisfy 2 <= p < 2**16, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a modulo p."""
        a = int(a) % self.p
        if a == 0:  # pow would raise ValueError
            raise ZeroDivisionError("zero has no inverse in GF(p)")
        return pow(a, -1, self.p)

    def reduce(self, values) -> np.ndarray:
        """Copy `values` into a fresh int64 array of canonical residues.

        Bool and integer entries are accepted, and float entries only when
        each is an integer inside the int64 range; anything else raises
        ValueError rather than being truncated.
        """
        arr = np.asarray(values)
        if arr.dtype.kind == "f":
            integral = (np.abs(arr) < 2.0**63) & (arr == np.trunc(arr))
        else:
            integral = arr.dtype.kind in "biu"
        if not np.all(integral):
            raise ValueError(f"entries must be integers, got {arr.dtype} values")
        return np.asarray(arr, np.int64) % self.p
