"""GF(p) elimination kernels.

`Echelon` keeps a fully reduced basis: each stored row has its leftmost
nonzero entry, a one, at its pivot column and is zero in every other
pivot column. `reduce` gives the residue of rows against it, and
`rref_array` returns the same accumulator's rows sorted by pivot column,
rank rows and no zero rows below them.
The interface is one; the row encoding depends on p alone.

Over GF(2) the basis is bit-packed, after M4RI (Albrecht, Bard, Hart,
"Algorithm 898", ACM TOMS 2010). Each incoming row is packed once into a
Python int with bit j for column j. A row of at most 63 columns fits one
int64 word, so a whole array is packed by one integer product with the
bit weights 2**j; a wider row goes through `np.packbits(...,
bitorder="little")` and bytes, which is faster there. The choice depends
on the width alone, and both give the same ints. The basis keeps one
such int per pivot column and the OR of the pivot bits, and reduces a row
x in one pass by XORing in the stored row of each bit of x & mask; one
pass is exact as each stored row is zero at the other pivots. A nonzero
remainder becomes a new pivot row at its lowest set bit and is XORed out
of the stored rows that have that bit. Rows are unpacked only when an
array is asked for.

For odd p the basis holds floats, and rows are absorbed in panels of
`_PANEL` after the FFLAS-FFPACK scheme (Dumas, Giorgi, Pernet, "Dense
linear algebra over word-size prime fields", ACM TOMS 2008). A panel is
reduced against the basis by one matrix product, its residue is brought
to reduced row echelon form one pivot column at a time, and its new pivot
rows are back-substituted into the basis by a second product. `reduce` is
a single product.

Any nonzero entry of a pivot column may serve as the pivot, as the
reduced form is unique, so the pivot loop takes the one that costs least:
a 1 in the current row (no swap, no scaling), else the first 1 below it
(a swap only), else any nonzero entry (a swap and a scaling). Every
residue, whatever its size, takes the same step. The loop probes only
candidate columns: those nonzero below the current row when the list was
made. The first probe that finds a column zero there rebuilds the list
from the columns to its right, as everything to its left is zero there
too. A pivot step touches only the columns from the pivot on and updates
just the rows that are nonzero in the pivot column. Each step is reduced
mod p at once, by `_mod`'s floor quotient: delaying that reduction inside
the loop measured slower.

The odd-p products run through BLAS with delayed modular reduction:
entries are canonical residues in [0, p), below 2**b with
b = (p - 1).bit_length(), so a product with inner dimension at most
`cols` sums at most cols*(p-1)**2, and that plus the margin of p that
`_mod` needs stays below cols * 4**b. Every sum of such nonnegative
integers is exact in a float type whose mantissa holds that bound, in
any summation order, and so is `_mod`'s quotient. The float type follows
from (cols, p) alone, like FFLAS-FFPACK's choice of precision: float32
while cols * 4**b < 2**24 (at p = 3 up to about a million columns, at
p = 251 below 256), float64 while it stays below 2**53, and above that a
ValueError before any buffer is allocated; since p < 2**16, fewer than
2**21 columns always pass. Panels, both products, the pivot loop and the
reductions all run in the basis's type, with no operand of another float
type to widen them. GF(2) has no such limit.

Reduced row echelon form, rank, pivot columns and the residue of a row
(the unique vector of row + span that is zero in every pivot column) are
canonical, so none depends on the encoding or the blocking. Input rows
must hold integers, under the rule of `PrimeField.reduce` (a float only
when integral, anything else a ValueError), and are reduced mod p;
outputs are int64 arrays of canonical residues.
"""

from __future__ import annotations

import operator

import numpy as np

from .field import int64_entries, modulus

__all__ = [
    "active_backend",
    "rref_array",
    "rank_of_rows",
    "Echelon",
    "warmup",
]

_PANEL = 64


def _float_type(cols: int, p: int):
    # The float type of an odd-p basis of `cols` columns: the narrowest
    # whose mantissa holds cols * 4**b, the bound on every product and
    # _mod operand (see the module docstring).
    b = (p - 1).bit_length()
    bound = cols << (2 * b)
    if bound < 2**24:
        return np.float32
    if bound < 2**53:
        return np.float64
    raise ValueError(
        f"{cols} columns over GF({p}) are too many for exact float64 "
        f"elimination: cols * 4**{b} must stay below 2**53"
    )


def _mod(x, p):
    # x mod p in place, for integer-valued float x with |x| + p at most
    # 2**24 in float32 or 2**53 in float64 (the mantissa's range). The
    # correctly rounded quotient x/p then lies within less than 1/p of the
    # true one, so it never crosses an integer and its floor is exact, as
    # is the floor times p. This one reduction serves arrays of every size:
    # it is several times faster than np.remainder from about 64 cells up,
    # and the smaller arrays of the pivot loop are too few to pay for a
    # second regime. A Python float divisor spares numpy a mixed-type
    # dispatch and, as a scalar, keeps x's float type under every numpy
    # casting rule.
    p = float(p)
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _rref(a, p):
    # In-place reduced row echelon form of a small float panel, one pivot
    # column at a time; each step is reduced mod p, so every intermediate
    # stays below p**2, which is below 2**22 wherever the panel is float32
    # and below 2**32 always, and the float arithmetic is exact. Any nonzero
    # entry may serve as the pivot, since the result is unique, so the
    # cheapest is taken: a 1 in row r (no swap, no scaling), else the first
    # 1 below it (a swap), else any nonzero entry (a swap and a scaling).
    # Panels of every size take the same step. Returns (rank, pivot
    # columns).
    rows = a.shape[0]
    piv = []
    r = 0
    # Columns still to probe: those nonzero in some row r.. when listed.
    # Once a probe finds a column zero below row r, every column up to it
    # is too, so the list is rebuilt from the columns right of it.
    candidates = a.any(axis=0).nonzero()[0].tolist()
    i = 0
    while i < len(candidates):
        c = candidates[i]
        i += 1
        sel = r
        if a[r, c] != 1:
            col = a[r:, c]
            sel += int((col == 1).argmax())
            if a[sel, c] != 1:
                sel = r + int(col.argmax())
                if a[sel, c] == 0:
                    candidates = (a[r:, c + 1 :].any(axis=0).nonzero()[0] + (c + 1)).tolist()
                    i = 0
                    continue
        # Rows r.. are zero left of c, so only columns c.. change.
        if sel != r:
            tail = a[r, c:].copy()
            a[r, c:] = a[sel, c:]
            a[sel, c:] = tail
        v = int(a[r, c])
        if v != 1:
            a[r, c:] = _mod(a[r, c:] * pow(v, -1, p), p)
        # Update and reduce only the rows to clear.
        f = a[:, c].copy()
        f[r] = 0
        hit = f.nonzero()[0]
        if len(hit):
            a[hit, c:] = _mod(a[hit, c:] - f[hit, None] * a[r, c:], p)
        piv.append(c)
        r += 1
        if r == rows:
            break
    return r, piv


class _FloatRows:
    # The odd-p basis: rows basis[:rank] of the float type that
    # _float_type(cols, p) picks, with pivot columns `piv` (rank =
    # len(piv)), in a buffer that grows geometrically up to `cols` rows.

    __slots__ = ("p", "basis", "piv")

    def __init__(self, cols, p):
        self.p = p
        self.basis = np.empty((0, cols), _float_type(cols, p))
        self.piv = []

    def absorb(self, rows):
        # Eliminate canonical residue rows panel by panel until the rank
        # reaches the column count; returns the rank.
        basis, piv, p = self.basis, self.piv, self.p
        rank, cols = len(piv), basis.shape[1]
        need = min(cols, rank + rows.shape[0])
        if need > len(basis):
            basis = np.empty((min(cols, max(need, 2 * len(basis), 32)), cols), basis.dtype)
            basis[:rank] = self.basis[:rank]
            self.basis = basis
        for start in range(0, rows.shape[0], _PANEL):
            if rank == cols:
                break
            panel = rows[start : start + _PANEL].astype(basis.dtype)
            if rank:
                panel -= panel[:, piv] @ basis[:rank]
                _mod(panel, p)
            k, new_piv = _rref(panel, p)
            if not k:
                continue
            if rank:
                old = basis[:rank]
                old -= old[:, new_piv] @ panel[:k]
                _mod(old, p)
            basis[rank : rank + k] = panel[:k]
            piv += new_piv
            rank += k
        return rank

    def reduce(self, rows):
        # Residues of canonical residue rows, at rank 1 or more.
        basis = self.basis[: len(self.piv)]
        red = rows.astype(basis.dtype)
        red -= red[:, self.piv] @ basis
        return _mod(red, self.p).astype(np.int64)

    def columns(self, idx):
        # The rows' entries in columns idx as int64, rows in the order of
        # pivots(); the rest of the basis is not copied.
        return self.basis[: len(self.piv), idx].astype(np.int64)

    def pivots(self):
        return self.piv

    def unpack(self):
        # The rows ordered by pivot column, and those columns; rows that
        # came from a single panel already are.
        piv = self.piv
        if piv == sorted(piv):
            return self.basis[: len(piv)], tuple(piv)
        return self.basis[np.argsort(piv)], tuple(sorted(piv))


# Bit j of a one-word row, for j < 63.
_BITS = 1 << np.arange(63, dtype=np.int64)


def _packed(rows):
    # The rows of a canonical-residue GF(2) array as Python ints, bit j
    # standing for column j. Up to 63 columns a row is one int64, made by
    # one integer product with the bit weights; wider rows go through
    # np.packbits and bytes, which is faster there.
    cols = rows.shape[1]
    if cols < 64:
        return (rows @ _BITS[:cols]).tolist()
    packed = np.packbits(rows.astype(bool), axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _unpacked(xs, cols):
    # The inverse of _packed, as a uint8 array.
    width = (cols + 7) // 8
    raw = np.frombuffer(b"".join([x.to_bytes(width, "little") for x in xs]), np.uint8)
    return np.unpackbits(raw.reshape(len(xs), width), axis=1, count=cols, bitorder="little")


class _PackedRows:
    # The GF(2) basis: `rows` maps each pivot column j to its packed row,
    # which has bit j set and is zero at every other pivot; `mask` is the
    # OR of the pivot bits.

    __slots__ = ("cols", "rows", "mask")

    def __init__(self, cols):
        self.cols = cols
        self.rows = {}
        self.mask = 0

    def _residue(self, x):
        # One pass: the stored rows are zero at each other's pivots, so the
        # pivot bits of x are exactly the stored rows to XOR in.
        rows, m = self.rows, x & self.mask
        while m:
            j = m.bit_length() - 1
            x ^= rows[j]
            m ^= 1 << j
        return x

    def absorb(self, rows):
        basis = self.rows
        for x in _packed(rows):
            if len(basis) == self.cols:
                break
            x = self._residue(x)
            if x:
                low = x & -x
                for j, y in basis.items():
                    if y & low:
                        basis[j] = y ^ x
                basis[low.bit_length() - 1] = x
                self.mask |= low
        return len(basis)

    def reduce(self, rows):
        return _unpacked([self._residue(x) for x in _packed(rows)], self.cols).astype(np.int64)

    def columns(self, idx):
        # Bit by bit, so no row is unpacked.
        idx = idx.tolist()
        out = np.array([[(y >> f) & 1 for f in idx] for y in self.rows.values()], np.int64)
        return out.reshape(len(self.rows), len(idx))

    def pivots(self):
        return list(self.rows)

    def unpack(self):
        pivots = sorted(self.rows)
        return _unpacked([self.rows[j] for j in pivots], self.cols), tuple(pivots)


def _basis(cols, p):
    # An empty basis in the row encoding of GF(p).
    return _PackedRows(cols) if p == 2 else _FloatRows(cols, p)


def active_backend() -> str:
    """Name of the elimination kernel; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# Public wrappers.
# ---------------------------------------------------------------------------


def _as_matrix(rows, p) -> np.ndarray:
    # A fresh C-contiguous int64 array of canonical residues.
    a = np.array(int64_entries(rows), order="C")
    if a.ndim != 2:
        raise ValueError("expected a 2-dimensional array of rows")
    np.mod(a, p, out=a)
    return a


def rref_array(a, p: int):
    """Reduced row echelon form over GF(p).

    Returns (R, rank, pivots) where R is a fresh int64 array of shape
    (rank, cols) holding the nonzero reduced rows of `a`, sorted by pivot
    column, in canonical residues. The input is not modified.
    """
    p = modulus(p)
    m = _as_matrix(a, p)
    basis = _basis(m.shape[1], p)
    rank = basis.absorb(m)
    reduced, pivots = basis.unpack()
    return reduced.astype(np.int64), rank, pivots


class Echelon:
    """Incremental echelon accumulator for rows over GF(p).

    Keeps one fully reduced row per pivot column (one at its pivot, zero
    in every other pivot column); insertion order never changes ranks,
    pivot columns or spans, which is all callers may rely on. Over GF(2)
    the rows are bit-packed; for odd p they sit in a float buffer that
    grows geometrically up to `cols` rows. That buffer is float32 while
    cols * 4**b < 2**24, where b = (p - 1).bit_length(), and float64 while
    cols * 4**b < 2**53; in either type every product and reduction is
    exact. A wider `cols` raises ValueError, as does a negative one. Rows
    given to `insert` or `reduce` must have `cols` columns, or ValueError
    is raised before the basis is touched.
    """

    def __init__(self, cols: int, p: int):
        self.cols = operator.index(cols)
        if self.cols < 0:
            raise ValueError(f"an Echelon needs a column count of 0 or more, not {self.cols}")
        self.p = modulus(p)
        self.rank = 0
        self._basis = _basis(self.cols, self.p)

    def _check_width(self, rows):
        if rows.shape[1] != self.cols:
            raise ValueError(
                f"rows of {rows.shape[1]} columns given to an Echelon of {self.cols} columns"
            )

    def insert(self, rows, consume: bool = False) -> int:
        """Feed rows into the accumulator; returns the updated rank.

        Rows stop being read once the rank equals `cols`, as no row can
        add to it then. With consume=True the caller vouches for a
        C-contiguous int64 array of canonical residues, which is read
        without a copy or a check of its entries and never written; its
        width is checked all the same.
        """
        if not consume:
            rows = _as_matrix(rows, self.p)
        self._check_width(rows)
        if rows.shape[0] and self.rank < self.cols:
            self.rank = self._basis.absorb(rows)
        return self.rank

    def reduce(self, rows) -> np.ndarray:
        """Residues of rows against the accumulated basis (copy; no insertion)."""
        rows = _as_matrix(rows, self.p)
        self._check_width(rows)
        if rows.shape[0] and self.rank:
            rows = self._basis.reduce(rows)
        return rows

    def basis_rows(self):
        """Accumulated basis as (rows, pivots), ordered by pivot column."""
        rows, pivots = self._basis.unpack()
        return rows.astype(np.int64), pivots

    def kernel(self) -> np.ndarray:
        """Basis of the vectors orthogonal to every accumulated row.

        One int64 row per free column f: 1 at f, minus the basis rows'
        entries in column f at their pivots (the rows are fully reduced),
        zero elsewhere. Only the basis's entries in the free columns are
        copied, never the whole basis.
        """
        pivots = self._basis.pivots()
        free = _free_columns(pivots, self.cols)
        return _kernel_of_reduced(self._basis.columns(free), pivots, free, self.cols, self.p)


def _free_columns(pivots, cols: int) -> np.ndarray:
    # The columns that are not pivots, in increasing order.
    free = np.ones(cols, bool)
    free[list(pivots)] = False
    return np.flatnonzero(free)


def _kernel_of_reduced(at_free, pivots, free, cols: int, p: int) -> np.ndarray:
    # Canonical kernel basis of fully reduced int64 rows of canonical
    # residues, row i with pivot column pivots[i], given by their entries
    # `at_free` in the free columns `free`: one row per free column f, 1 at
    # f, minus the rows' entries in column f at their pivots, zero elsewhere.
    ker = np.zeros((free.size, cols), np.int64)
    ker[np.arange(free.size), free] = 1
    ker[:, list(pivots)] = -at_free.T % p
    return ker


def rank_of_rows(rows, p: int) -> int:
    """Rank of a stack of rows over GF(p)."""
    p = modulus(p)
    rows = _as_matrix(rows, p)
    acc = Echelon(rows.shape[1], p)
    return acc.insert(rows, consume=True)


def warmup():
    """Run every kernel once on tiny inputs, in every row encoding.

    Those are GF(2)'s packed rows and the float32 and float64 rows of odd
    p. There is nothing to compile; callers use this to touch each kernel
    entry point (and numpy's own lazy set-up) before timing starts.
    """
    demo = [[1, 1, 0], [0, 1, 1]]
    for p in (2, 3, 65521):
        rref_array(demo, p)
        acc = Echelon(3, p)
        acc.insert(demo)
        acc.reduce([[1, 0, 1]])
