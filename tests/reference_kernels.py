"""Loop-style GF(p) elimination, kept as the reference for coldec.kernels.

Plain Python, one scalar at a time, sharing no code with the vectorized
kernels; test_kernels requires the two to agree bit for bit wherever the
result is canonical.
"""

import numpy as np


def _inv_scalar(a, p):
    """Inverse of a nonzero residue modulo a prime, by extended Euclid."""
    r0, r1 = a, p
    s0, s1 = 1, 0
    while r1 != 0:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    return s0 % p


def _rref_loops(a, p):
    # In-place reduced row echelon form. Returns (rank, pivot columns).
    rows, cols = a.shape
    piv = np.empty(cols, np.int64)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sel = -1
        for i in range(r, rows):
            if a[i, c] != 0:
                sel = i
                break
        if sel < 0:
            continue
        if sel != r:
            for t in range(c, cols):
                tmp = a[r, t]
                a[r, t] = a[sel, t]
                a[sel, t] = tmp
        inv = _inv_scalar(a[r, c], p)
        if inv != 1:
            for t in range(c, cols):
                a[r, t] = (a[r, t] * inv) % p
        for i in range(rows):
            if i != r and a[i, c] != 0:
                f = a[i, c]
                for t in range(c, cols):
                    a[i, t] = (a[i, t] - f * a[r, t]) % p
        piv[r] = c
        r += 1
    return r, piv[:r].copy()


def _echelon_insert_loops(basis, pivrow, nbasis, rows, p):
    # Feed `rows` (destroyed) into a pivot-indexed echelon accumulator.
    # basis[0:nbasis] are normalized rows, pivrow[c] = basis row with pivot
    # at column c (or -1). Unused basis rows must be zero-filled. Returns
    # the new rank.
    rank = nbasis
    nr, cols = rows.shape
    for i in range(nr):
        c = 0
        while c < cols:
            v = rows[i, c]
            if v != 0:
                r = pivrow[c]
                if r >= 0:
                    for t in range(c, cols):
                        rows[i, t] = (rows[i, t] - v * basis[r, t]) % p
                else:
                    inv = _inv_scalar(v, p)
                    for t in range(c, cols):
                        basis[rank, t] = (rows[i, t] * inv) % p
                    pivrow[c] = rank
                    rank += 1
                    break
            c += 1
    return rank


def _reduce_rows_loops(basis, pivrow, rows, p):
    # Reduce each row (in place) against the accumulated echelon basis,
    # without inserting. A row reduces to zero iff it lies in the span.
    nr, cols = rows.shape
    for i in range(nr):
        for c in range(cols):
            v = rows[i, c]
            if v != 0:
                r = pivrow[c]
                if r >= 0:
                    for t in range(c, cols):
                        rows[i, t] = (rows[i, t] - v * basis[r, t]) % p
