"""GF(p) elimination kernels.

One numpy implementation, vectorized one pivot column at a time: a
canonical reduced row echelon form and an incremental echelon
accumulator. Reduced row echelon form over a field is unique, and every
consumer of the accumulator depends only on ranks and row spans, never on
which echelon basis of the span was stored.

All matrices are C-contiguous int64 arrays of canonical residues; entries
stay below 2**16 so products fit comfortably in int64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "active_backend",
    "rref_array",
    "rank_of_rows",
    "Echelon",
    "warmup",
]


def _rref(a, p):
    # In-place reduced row echelon form, vectorized per pivot column.
    # Returns (rank, pivot columns).
    rows, cols = a.shape
    piv = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        sel = r + int(nz[0])
        if sel != r:
            a[[r, sel]] = a[[sel, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        f = a[:, c].copy()
        f[r] = 0
        nzr = np.nonzero(f)[0]
        if nzr.size:
            a[nzr] = (a[nzr] - np.outer(f[nzr], a[r])) % p
        piv.append(c)
        r += 1
    return r, np.asarray(piv, np.int64)


def _reduce_rows(basis, pivrow, rows, p):
    # Reduce each row (in place) against the accumulated echelon basis,
    # without inserting, eliminating existing pivots in increasing column
    # order. Stored basis rows are zero left of their pivot, so earlier
    # columns stay zero. A row reduces to zero iff it lies in the span.
    for c in np.nonzero(pivrow >= 0)[0]:
        f = rows[:, c]
        nz = np.nonzero(f)[0]
        if nz.size:
            rows[nz] = (rows[nz] - np.outer(f[nz], basis[pivrow[c]])) % p


def _echelon_insert(basis, pivrow, nbasis, rows, p, stop_rank):
    # Feed `rows` (destroyed) into a pivot-indexed echelon accumulator.
    # basis[0:nbasis] are normalized rows, pivrow[c] = basis row with pivot
    # at column c (or -1). Returns the new rank; stops consuming once it
    # reaches stop_rank.
    rank = nbasis
    nr, cols = rows.shape
    if rank >= stop_rank or nr == 0:
        return rank
    _reduce_rows(basis, pivrow, rows, p)
    # Forward-eliminate the block against itself, appending each new pivot.
    r = 0
    for c in range(cols):
        if rank >= stop_rank or r >= nr:
            break
        nz = np.nonzero(rows[r:, c])[0]
        if nz.size == 0:
            continue
        sel = r + int(nz[0])
        if sel != r:
            rows[[r, sel]] = rows[[sel, r]]
        inv = pow(int(rows[r, c]), -1, p)
        if inv != 1:
            rows[r] = (rows[r] * inv) % p
        below = rows[r + 1 :, c]
        nzb = np.nonzero(below)[0]
        if nzb.size:
            rows[r + 1 + nzb] = (rows[r + 1 + nzb] - np.outer(below[nzb], rows[r])) % p
        basis[rank] = rows[r]
        pivrow[c] = rank
        rank += 1
        r += 1
    return rank


def active_backend() -> str:
    """Name of the elimination kernel; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# Public wrappers.
# ---------------------------------------------------------------------------


def _as_matrix(rows, p) -> np.ndarray:
    a = np.array(rows, dtype=np.int64, copy=True, order="C")
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
    if m.shape[0] == 0 or m.shape[1] == 0:
        return m, 0, ()
    rank, piv = _rref(m, p)
    return m, int(rank), tuple(int(c) for c in piv)


class Echelon:
    """Incremental echelon accumulator for rows over GF(p).

    Keeps one normalized row per pivot column (zero left of the pivot, one
    at it); insertion order never changes ranks or spans, which is all
    callers may rely on. The row buffer grows geometrically up to `cols`.
    """

    def __init__(self, cols: int, p: int):
        self.cols = int(cols)
        self.p = int(p)
        self.rank = 0
        self._cap = 0
        self._basis = np.zeros((0, self.cols), np.int64)
        self._pivrow = np.full(self.cols, -1, np.int64)

    def _ensure_capacity(self, incoming: int):
        need = min(self.cols, self.rank + incoming)
        if need <= self._cap:
            return
        new_cap = min(self.cols, max(need, 2 * self._cap, 32))
        grown = np.zeros((new_cap, self.cols), np.int64)
        if self.rank:
            grown[: self.rank] = self._basis[: self.rank]
        self._basis = grown
        self._cap = new_cap

    def insert(self, rows, stop_rank: int | None = None, consume: bool = False) -> int:
        """Feed rows into the accumulator; returns the updated rank.

        Stops consuming once `stop_rank` is reached. With consume=True the
        caller hands over ownership of a fresh C-contiguous int64 residue
        array, which is destroyed in place.
        """
        if not consume:
            rows = _as_matrix(rows, self.p)
        if rows.shape[0] == 0:
            return self.rank
        stop = self.cols if stop_rank is None else min(stop_rank, self.cols)
        if self.rank >= stop:
            return self.rank
        self._ensure_capacity(rows.shape[0])
        self.rank = _echelon_insert(self._basis, self._pivrow, self.rank, rows, self.p, stop)
        return self.rank

    def reduce(self, rows) -> np.ndarray:
        """Reduce rows against the accumulated basis (copy; no insertion)."""
        rows = _as_matrix(rows, self.p)
        if rows.shape[0] and self.rank:
            _reduce_rows(self._basis, self._pivrow, rows, self.p)
        return rows

    def basis_rows(self):
        """Accumulated basis as (rows, pivots), ordered by pivot column."""
        piv_cols = np.nonzero(self._pivrow >= 0)[0]
        rows = self._basis[self._pivrow[piv_cols]].copy()
        return rows, tuple(int(c) for c in piv_cols)


def rank_of_rows(rows, p: int, stop_rank: int | None = None) -> int:
    """Rank of a stack of rows over GF(p), with optional early exit."""
    rows = _as_matrix(rows, p)
    if rows.shape[0] == 0 or rows.shape[1] == 0:
        return 0
    acc = Echelon(rows.shape[1], p)
    return acc.insert(rows, stop_rank=stop_rank, consume=True)


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
