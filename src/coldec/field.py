"""Exact arithmetic in prime fields GF(p)."""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["PrimeField", "is_prime", "modulus"]


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
        p = operator.index(p)
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

        Entries must pass `int64_entries`; anything else raises ValueError
        rather than being truncated.
        """
        return int64_entries(values) % self.p


def modulus(p) -> int:
    """`p` as an int of at least 2: TypeError for a float, ValueError below 2.

    Primality is not tested; the kernels and polynomial helpers take a
    prime p on trust, as `PrimeField` checks it once.
    """
    p = operator.index(p)
    if p < 2:
        raise ValueError(f"modulus must be at least 2, got {p}")
    return p


def int64_entries(values) -> np.ndarray:
    """`values` as an int64 array, refusing entries that are not integers.

    Bool and integer entries are accepted, and float entries only when
    each is an integer; either must lie inside the int64 range. Anything
    else raises ValueError. An int64 array is returned as is, not copied.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        integral = np.all((np.abs(arr) < 2.0**63) & (arr == np.trunc(arr)))
    elif arr.dtype == np.uint64:  # the cast would wrap values from 2**63 up
        integral = not np.any(arr >= 2**63)
    else:
        integral = arr.dtype.kind in "biu"
    if not integral:
        raise ValueError(f"entries must be integers inside the int64 range, got {arr.dtype} values")
    return arr.astype(np.int64, copy=False)
