"""Monomial bases of fixed total degree, and products of linear forms.

A homogeneous polynomial of degree g in `nvars` variables is a 1-D int64
array of canonical residues mod p, indexed by the monomials of degree g in
graded lexicographic order: index 0 is the lexicographically largest
exponent vector (g, 0, ..., 0), the last index is (0, ..., 0, g). A linear
form is the degree-1 case, its coefficient array (c_1, ..., c_nvars), and
a set of g forms is a (g, nvars) array with one form per row. The degree
and the modulus travel with the calls, not with the arrays.

Multiplying by a linear form or a variable power becomes index arithmetic
through cached position maps. A product with a linear form is one gather:
coefficient h_m of the product is the sum over v of c_v * f_{m / x_v},
read through the cached divisor maps of the product's basis, with the
terms where x_v does not divide m reading a padded zero. Each such sum is
at most nvars * (p-1)**2, inside int64, and is reduced mod p once.

All index computations are checked against 64-bit overflow; a basis whose
size would not fit raises BinomialOverflowError naming the offending
(nvars, degree) pair.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .field import int64_entries, modulus

__all__ = [
    "BinomialOverflowError",
    "checked_binomial",
    "MonomialBasis",
    "monomial_basis",
    "multiply_by_form",
    "multiply_rows_by_forms",
    "product_of_linear_forms",
]

_INT64_MAX = 2**63 - 1


class BinomialOverflowError(OverflowError):
    """A binomial coefficient does not fit in signed 64-bit indexing."""


def checked_binomial(n: int, k: int, what: str = "") -> int:
    """math.comb(n, k) guarded against values beyond int64."""
    if n < 0 or k < 0:
        return 0
    value = math.comb(n, k)
    if value > _INT64_MAX:
        where = f" ({what})" if what else ""
        raise BinomialOverflowError(
            f"C({n},{k}) = {value} exceeds 64-bit indexing{where}"
        )
    return value


class MonomialBasis:
    """The monomials of one total degree in graded lexicographic order."""

    __slots__ = ("nvars", "degree", "size", "_exps", "_maps", "_divs")

    def __init__(self, nvars: int, degree: int):
        nvars = operator.index(nvars)
        degree = operator.index(degree)
        if nvars < 1:
            raise ValueError(f"need at least one variable, got {nvars}")
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        self.nvars = nvars
        self.degree = degree
        self.size = checked_binomial(
            nvars + degree - 1, degree, f"monomial basis nvars={nvars}, degree={degree}"
        )
        self._exps = None
        self._maps = {}
        self._divs = None

    def index(self, exponents) -> np.ndarray:
        """Positions of the rows of an (m, nvars) exponent table.

        Every row must be nonnegative with total degree `degree`, or
        ValueError is raised. A row e comes after each exponent vector that
        agrees with it before some position i and is larger at i. With r
        the degree e leaves after position i and t = nvars-1-i positions
        still to fill, there are C(r-1+t, t) of those (zero when r = 0), so
        the position is a sum of lookups in one binomial table.
        """
        e = int64_entries(exponents)
        if (
            e.ndim != 2
            or e.shape[1] != self.nvars
            or (e < 0).any()
            or (e.sum(axis=1) != self.degree).any()
        ):
            raise ValueError(
                f"need an (m, {self.nvars}) table of nonnegative exponent rows "
                f"of total degree {self.degree}"
            )
        later = range(self.nvars - 1, 0, -1)
        table = np.array(
            [math.comb(r - 1 + t, t) for t in later for r in range(self.degree + 1)],
            np.int64,
        ).reshape(self.nvars - 1, self.degree + 1)
        remaining = self.degree - np.cumsum(e[:, :-1], axis=1)
        return table[np.arange(self.nvars - 1), remaining].sum(axis=1)

    def exponents(self) -> np.ndarray:
        """Full (size, nvars) exponent table, computed once.

        Row i is the exponent vector at basis position i. The rows with
        first exponent a form one contiguous block, a = degree first, whose
        remaining exponents are the table of one variable fewer and
        degree - a.
        """
        if self._exps is None:
            if self.nvars == 1:
                table = np.full((1, 1), self.degree, np.int64)
            else:
                blocks = []
                for a in range(self.degree, -1, -1):
                    rest = monomial_basis(self.nvars - 1, self.degree - a).exponents()
                    block = np.empty((rest.shape[0], self.nvars), np.int64)
                    block[:, 0] = a
                    block[:, 1:] = rest
                    blocks.append(block)
                table = np.concatenate(blocks)
            table.flags.writeable = False
            self._exps = table
        return self._exps

    def power_maps(self, u: int) -> np.ndarray:
        """Index maps for multiplication by each variable to the power u.

        Row v of the (nvars, size) result holds the position, in the
        degree+u basis, of each monomial of this basis times x_v**u; every
        row is injective. Computed once per u.
        """
        u = operator.index(u)
        if u < 0:
            raise ValueError("power must be nonnegative")
        maps = self._maps.get(u)
        if maps is None:
            shift = u * np.eye(self.nvars, dtype=np.int64)
            shifted = self.exponents()[None, :, :] + shift[:, None, :]
            target = monomial_basis(self.nvars, self.degree + u)
            maps = target.index(shifted.reshape(-1, self.nvars)).reshape(self.nvars, self.size)
            maps.flags.writeable = False
            self._maps[u] = maps
        return maps

    def divisor_maps(self) -> np.ndarray:
        """Index maps for division by each variable, computed once.

        Row v of the (nvars, size) result holds, for each monomial m of
        this basis, the position of m / x_v in the degree-1 basis, or that
        basis's size where x_v does not divide m. It inverts the lower
        basis's `power_maps(1)` with one scatter.
        """
        if self.degree < 1:
            raise ValueError("a degree-0 basis has no divisor maps")
        if self._divs is None:
            lower = monomial_basis(self.nvars, self.degree - 1)
            inv = np.full((self.nvars, self.size), lower.size, np.int64)
            inv[np.arange(self.nvars)[:, None], lower.power_maps(1)] = np.arange(lower.size)
            inv.flags.writeable = False
            self._divs = inv
        return self._divs

    def __repr__(self) -> str:
        return f"MonomialBasis(nvars={self.nvars}, degree={self.degree}, size={self.size})"


@lru_cache(maxsize=None, typed=True)
def monomial_basis(nvars: int, degree: int) -> MonomialBasis:
    """Shared per-(nvars, degree) basis instance with cached maps.

    The cache is typed, so a float never finds the basis cached under the
    equal int: it reaches `MonomialBasis` and raises TypeError whatever
    ran before.
    """
    return MonomialBasis(nvars, degree)


@lru_cache(maxsize=None, typed=True)
def _product_table(nvars: int, degree: int):
    # All that multiply_by_form reads: the size of the degree-`degree`
    # basis and the divisor maps of the degree+1 basis. Typed like
    # monomial_basis, so a float degree misses and is refused there.
    return monomial_basis(nvars, degree).size, monomial_basis(nvars, degree + 1).divisor_maps()


def multiply_by_form(f: np.ndarray, degree: int, form: np.ndarray, p: int) -> np.ndarray:
    """Product of a degree-`degree` polynomial with a linear form, mod p.

    One gather through the divisor maps: f is padded with one zero, so a
    monomial that x_v does not divide reads 0 through the sentinel of
    `divisor_maps`, and the form's coefficients weight the nvars gathered
    rows in one matrix-vector product. With canonical residues in f and
    the form, each entry is at most nvars * (p-1)**2, with (p-1)**2 < 2**32
    for p < 2**16, so it stays far inside int64 and is reduced once.
    That makes canonical residues a precondition for int64 arrays: they
    are used as they are, not reduced, and an entry outside [0, p) can
    give a wrong product (f = [2**40] times [2**40, 1] over GF(3) gives
    [0, 1], not [1, 1]). Any other operand, a list or an array of
    another dtype, must pass `int64_entries` and is reduced mod p first;
    anything else raises ValueError. The modulus must be an int of at
    least 2 (see `field.modulus`).
    """
    p = modulus(p)
    if not isinstance(f, np.ndarray) or f.dtype != np.int64:
        f = int64_entries(f) % p
    if not isinstance(form, np.ndarray) or form.dtype != np.int64:
        form = int64_entries(form) % p
    size, inv = _product_table(form.shape[0], degree)
    if f.shape != (size,):
        raise ValueError(
            f"degree-{degree} polynomial in {form.shape[0]} variables needs "
            f"{size} coefficients, got shape {f.shape}"
        )
    padded = np.zeros(size + 1, np.int64)
    padded[:size] = f
    out = form @ padded[inv]
    out %= p
    return out


def multiply_rows_by_forms(f: np.ndarray, degree: int, forms: np.ndarray, p: int) -> np.ndarray:
    """Row i of f, a degree-`degree` polynomial, times row i of `forms`, mod p.

    `multiply_by_form` row by row, one gather per variable over all rows;
    both operands must be int64 arrays of canonical residues (unchecked).
    """
    size, inv = _product_table(forms.shape[1], degree)
    padded = np.zeros((f.shape[0], size + 1), np.int64)
    padded[:, :size] = f
    out = np.zeros((f.shape[0], inv.shape[1]), np.int64)
    for v in range(forms.shape[1]):
        out += forms[:, v, None] * padded[:, inv[v]]
    out %= p
    return out


def product_of_linear_forms(forms, p: int) -> np.ndarray:
    """Left-fold product of the rows of a nonempty (g, nvars) form array."""
    p = modulus(p)
    forms = int64_entries(forms) % p
    if forms.ndim != 2 or forms.shape[0] == 0:
        raise ValueError("need a nonempty (g, nvars) array of linear forms")
    acc = forms[0]
    for degree, form in enumerate(forms[1:], start=1):
        acc = multiply_by_form(acc, degree, form, p)
    return acc
