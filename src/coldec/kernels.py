"""GF(p) elimination kernels.

One panel-blocked elimination, after the FFLAS-FFPACK scheme (Dumas,
Giorgi, Pernet, "Dense linear algebra over word-size prime fields", ACM
TOMS 2008). `Echelon` keeps a fully reduced basis: every stored row is one
at its pivot column and zero in every other stored pivot column. Incoming
rows are consumed in panels of `_PANEL` rows; each panel is reduced
against the basis by one matrix product, the small residue is brought to
reduced row echelon form one pivot column at a time, and its new pivot
rows are back-substituted into the basis by a second product. `reduce` is
a single product, and `rref_array` is the same accumulator with its rows
sorted by pivot column.

For odd p, the pivot loop over a residue of 64 cells or more probes only
candidate columns: those nonzero below the current row when the list was
made. The first probe that finds a column zero there rebuilds the list
from the columns to its right, as everything to its left is zero there
too. A pivot step touches only the columns from the pivot on; when
fewer than half the rows are nonzero in the pivot column it updates just
those rows, otherwise the whole panel, as it always does below 64 cells.
Each step is reduced mod p at once: delaying that reduction inside the
loop measured slower.

Over GF(2) the residue's pivot loop runs on bit-packed rows instead, after
M4RI (Albrecht, Bard, Hart, "Algorithm 898", ACM TOMS 2010). Each row is
packed by `np.packbits(..., bitorder="little")` into one Python int with
bit j standing for column j, so its lowest set bit is its leftmost
nonzero column. Gauss-Jordan then runs one row at a time by XOR, and the
rows go back through `np.unpackbits` sorted by pivot column. That leaves
the same canonical reduced form, rank and pivots as the loop above, so
the panel blocking, the float64 products and everything downstream are
the same for every p; only the residue's pivot loop is packed.

The products run as float64 matrix multiplications through BLAS with
delayed modular reduction: entries are canonical residues in [0, p), so a
product with inner dimension at most `cols` sums at most cols*(p-1)**2,
and every step is exact while that, plus p, stays within 2**53.
A width with cols * 4**b >= 2**53, where 2**b is the power of two above
p - 1, is refused with a ValueError before any elimination buffer is
allocated. Since p < 2**16, every matrix with fewer than 2**21 columns
passes.

Reduced row echelon form, rank, pivot columns and the residue of a row
(the unique vector of row + span that is zero in every pivot column) are
canonical, so none depends on the blocking; only which basis of the span
`Echelon.basis_rows` returns does. Input rows must hold integers, under
the rule of `PrimeField.reduce` (a float only when integral, anything else
a ValueError), and are reduced mod p; outputs are int64 arrays of
canonical residues.
"""

from __future__ import annotations

import operator

import numpy as np

from .field import int64_entries

__all__ = [
    "active_backend",
    "rref_array",
    "rank_of_rows",
    "Echelon",
    "warmup",
]

_PANEL = 64


def _check_exact(cols: int, p: int):
    # Entries are below 2**b with b = (p-1).bit_length(), so a product with
    # inner dimension at most `cols` stays below cols * 4**b. Keeping that
    # below 2**53 also leaves the margin of p that _mod needs.
    b = (p - 1).bit_length()
    if cols << (2 * b) >= 2**53:
        raise ValueError(
            f"{cols} columns over GF({p}) are too many for exact float64 "
            f"elimination: cols * 4**{b} must stay below 2**53"
        )


def _mod(x, p):
    # x mod p in place, for integer-valued float64 x with |x| + p <= 2**53.
    # The correctly rounded quotient x/p lies within less than 1/p of the
    # true one, so it never crosses an integer and its floor is exact. From
    # about 64 cells up this is several times faster than np.remainder on
    # float64; below that np.remainder's single call is cheaper.
    p = float(p)  # a float divisor spares numpy a mixed-type dispatch
    if x.size < 64:
        return np.remainder(x, p, out=x)
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _rref(a, p):
    # In-place reduced row echelon form of a small float64 panel, one pivot
    # column at a time; each step is reduced mod p, so every intermediate
    # stays below p**2 < 2**32 and the float arithmetic is exact. Any nonzero
    # entry may serve as the pivot, since the result is unique. Returns
    # (rank, pivot columns).
    rows, cols = a.shape
    piv = []
    r = 0
    # Below 64 cells the numpy calls that skip work cost more than the work
    # they skip, so a tiny panel probes every column and updates every row.
    big = a.size >= 64
    # Columns still to probe: those nonzero in some row r.. when listed.
    # Once a probe finds a column zero below row r, every column up to it
    # is too, so the list is rebuilt from the columns right of it.
    candidates = a.any(axis=0).nonzero()[0].tolist() if big else list(range(cols))
    i = 0
    while i < len(candidates):
        c = candidates[i]
        i += 1
        sel = r + int(a[r:, c].argmax())
        if a[sel, c] == 0:
            if big:
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
        f = a[:, c].copy()
        f[r] = 0
        hit = f.nonzero()[0]
        if big and 2 * len(hit) < rows:
            if len(hit):  # update and reduce only the rows to clear
                a[hit, c:] = _mod(a[hit, c:] - f[hit, None] * a[r, c:], p)
        elif len(hit):
            a[:, c:] -= f[:, None] * a[r, c:]
            _mod(a[:, c:], p)
        piv.append(c)
        r += 1
        if r == rows:
            break
    return r, piv


def _rref_gf2(a):
    # _rref for p = 2 on bit-packed rows: bit j of a Python int is column j,
    # so the lowest set bit is the leftmost nonzero column. `found` maps
    # each pivot bit to its row. An incoming row is cleared of every pivot
    # found so far by XOR; a nonzero remainder is a new pivot row, and is
    # cleared from the rows found before it, which keeps them fully
    # reduced. The rows go back sorted by pivot column.
    rows, cols = a.shape
    packed = np.packbits(a != 0, axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    found = {}
    for start in range(0, rows * width, width):
        x = int.from_bytes(raw[start : start + width], "little")
        for low, y in found.items():
            if x & low:
                x ^= y
        if x:
            low = x & -x
            for b, y in found.items():
                if y & low:
                    found[b] = y ^ x
            found[low] = x
    found = sorted(found.items())
    k = len(found)
    if k:
        out = b"".join(y.to_bytes(width, "little") for _, y in found)
        out = np.frombuffer(out, np.uint8).reshape(k, width)
        a[:k] = np.unpackbits(out, axis=1, count=cols, bitorder="little")
    a[k:] = 0
    return k, [low.bit_length() - 1 for low, _ in found]


def _eliminate(basis, piv, rows, p):
    # Absorb int64 residue rows, panel by panel, into the fully reduced
    # float64 basis[:rank] whose pivot columns are the list `piv` (rank =
    # len(piv)), until the rank reaches the column count. `basis` must have
    # room for the rows gained. Returns the new rank.
    rank, cols = len(piv), basis.shape[1]
    for start in range(0, rows.shape[0], _PANEL):
        if rank == cols:
            break
        panel = rows[start : start + _PANEL].astype(np.float64)
        if rank:
            panel -= panel[:, piv] @ basis[:rank]
            _mod(panel, p)
        k, new_piv = _rref_gf2(panel) if p == 2 else _rref(panel, p)
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


def _by_pivot(basis, piv):
    # The basis rows and their pivot columns, ordered by pivot column;
    # rows that came from a single panel already are.
    if piv == sorted(piv):
        return basis[: len(piv)], tuple(piv)
    order = np.argsort(piv)
    return basis[order], tuple(sorted(piv))


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

    Returns (R, rank, pivots) where R is a fresh canonical-residue array.
    The input is not modified.
    """
    m = _as_matrix(a, p)
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return m, 0, ()
    _check_exact(cols, p)
    basis, piv = np.empty((min(rows, cols), cols)), []
    rank = _eliminate(basis, piv, m, p)
    reduced, pivots = _by_pivot(basis, piv)
    m[:rank] = reduced
    m[rank:] = 0
    return m, rank, pivots


class Echelon:
    """Incremental echelon accumulator for rows over GF(p).

    Keeps one fully reduced row per pivot column (one at its pivot, zero
    in every other pivot column); insertion order never changes ranks,
    pivot columns or spans, which is all callers may rely on. The row
    buffer grows geometrically up to `cols`. Raises ValueError when `cols`
    is too wide for exact float64 products over GF(p).
    """

    def __init__(self, cols: int, p: int):
        self.cols = operator.index(cols)
        self.p = operator.index(p)
        _check_exact(self.cols, self.p)
        self.rank = 0
        self._cap = 0
        self._basis = np.empty((0, self.cols))
        self._piv = []

    def _ensure_capacity(self, incoming: int):
        need = min(self.cols, self.rank + incoming)
        if need <= self._cap:
            return
        new_cap = min(self.cols, max(need, 2 * self._cap, 32))
        basis = np.empty((new_cap, self.cols))
        if self.rank:
            basis[: self.rank] = self._basis[: self.rank]
        self._basis, self._cap = basis, new_cap

    def insert(self, rows, consume: bool = False) -> int:
        """Feed rows into the accumulator; returns the updated rank.

        Rows stop being read once the rank equals `cols`, as no row can
        add to it then. With consume=True the caller hands over ownership
        of a fresh C-contiguous int64 residue array, which may be
        destroyed and is not checked.
        """
        if not consume:
            rows = _as_matrix(rows, self.p)
        if rows.shape[0] and self.rank < self.cols:
            self._ensure_capacity(rows.shape[0])
            self.rank = _eliminate(self._basis, self._piv, rows, self.p)
        return self.rank

    def reduce(self, rows) -> np.ndarray:
        """Residues of rows against the accumulated basis (copy; no insertion)."""
        rows = _as_matrix(rows, self.p)
        if rows.shape[0] and self.rank:
            basis = self._basis[: self.rank]
            red = rows - rows[:, self._piv].astype(np.float64) @ basis
            rows = _mod(red, self.p).astype(np.int64)
        return rows

    def basis_rows(self):
        """Accumulated basis as (rows, pivots), ordered by pivot column."""
        rows, pivots = _by_pivot(self._basis, self._piv)
        return rows.astype(np.int64), pivots

    def kernel(self) -> np.ndarray:
        """Basis of the vectors orthogonal to every accumulated row.

        One int64 row per free column f: 1 at f, minus the basis rows'
        entries in column f at their pivots (the rows are fully reduced),
        zero elsewhere.
        """
        free = np.ones(self.cols, bool)
        free[self._piv] = False
        free = np.flatnonzero(free)
        ker = np.zeros((free.size, self.cols), np.int64)
        ker[np.arange(free.size), free] = 1
        if self.rank:
            ker[:, self._piv] = (-self._basis[: self.rank, free].T % self.p).astype(np.int64)
        return ker


def rank_of_rows(rows, p: int) -> int:
    """Rank of a stack of rows over GF(p)."""
    rows = _as_matrix(rows, p)
    if rows.shape[0] == 0 or rows.shape[1] == 0:
        return 0
    acc = Echelon(rows.shape[1], p)
    return acc.insert(rows, consume=True)


def warmup():
    """Run every kernel once on tiny inputs.

    There is nothing to compile; callers use this to touch each kernel
    entry point (and numpy's own lazy set-up) before timing starts.
    """
    demo = [[1, 1, 0], [0, 1, 1]]
    rref_array(demo, 2)
    acc = Echelon(3, 2)
    acc.insert(demo)
    acc.reduce([[1, 0, 1]])
