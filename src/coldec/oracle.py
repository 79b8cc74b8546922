"""Exhaustive ground truth for small codes.

Everything here enumerates all q**k codewords, exactly and without
sampling, and refuses instances above a configurable enumeration
threshold. Messages run in odometer order (the last coordinate increments
fastest), so every answer and every returned listing is deterministic.
Answers are plain ints, a {weight: count} dict and int64 arrays.
"""

from __future__ import annotations

import operator

import numpy as np

from .code import LinearCode

__all__ = [
    "DEFAULT_THRESHOLD",
    "OracleThresholdError",
    "enumerate_min_distance",
    "weight_distribution",
    "projective_min_weight_count",
    "nearest_neighbors",
    "count_at_distance",
]

DEFAULT_THRESHOLD = 1 << 20

_CHUNK = 4096


class OracleThresholdError(RuntimeError):
    """The requested enumeration exceeds the oracle threshold."""


def _enumeration_size(C: LinearCode, threshold: int) -> int:
    total = C.field.p**C.k
    if total > threshold:
        raise OracleThresholdError(
            f"enumerating {total} codewords exceeds the oracle threshold {threshold}"
        )
    return total


def _iter_codewords(C: LinearCode):
    """Yield (messages, codewords) chunks over all of GF(p)**k, odometer order."""
    p, k = C.field.p, C.k
    total = p**k
    place = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        msgs = (idx[:, None] // place[None, :]) % p
        words = (msgs @ C.G.a) % p
        yield msgs, words


def enumerate_min_distance(C: LinearCode, threshold: int = DEFAULT_THRESHOLD) -> int:
    """Minimum weight over all nonzero codewords, by full enumeration."""
    _enumeration_size(C, threshold)
    best = C.n + 1
    for _, words in _iter_codewords(C):
        w = np.count_nonzero(words, axis=1)
        nz = w[w > 0]
        if nz.size:
            best = min(best, int(nz.min()))
    return best


def weight_distribution(C: LinearCode, threshold: int = DEFAULT_THRESHOLD) -> dict[int, int]:
    """Projective weight spectrum over all nonzero codewords.

    Returns {weight: number of scalar classes of that weight}, weights in
    increasing order and only those that occur. Raw per-weight counts are
    divided by q - 1 to count scalar classes, so the values sum to
    (q**k - 1) // (q - 1).
    """
    _enumeration_size(C, threshold)
    raw = np.zeros(C.n + 1, np.int64)
    for _, words in _iter_codewords(C):
        w = np.count_nonzero(words, axis=1)
        raw += np.bincount(w, minlength=C.n + 1)
    raw[0] -= 1  # drop the zero codeword
    q1 = C.field.p - 1
    counts = {}
    for u in range(1, C.n + 1):
        if raw[u]:
            if raw[u] % q1:
                raise RuntimeError("weight class size not divisible by q - 1")
            counts[u] = int(raw[u]) // q1
    return counts


def projective_min_weight_count(C: LinearCode, threshold: int = DEFAULT_THRESHOLD) -> int:
    """Number of scalar classes of codewords of minimum weight."""
    counts = weight_distribution(C, threshold)
    if not counts:
        raise ValueError("the zero-dimensional spectrum has no minimum weight")
    return counts[min(counts)]


def nearest_neighbors(C: LinearCode, w, threshold: int = DEFAULT_THRESHOLD):
    """All codewords at minimal Hamming distance from w.

    Returns (d_w, vectors) with vectors a (count, n) array in enumeration
    order. A word already in the code is its own unique neighbor at
    distance 0.
    """
    _enumeration_size(C, threshold)
    w = C.field.reduce(np.asarray(w))
    if w.ndim != 1 or w.shape[0] != C.n:
        raise ValueError(f"word must be a vector of length {C.n}")
    p = C.field.p
    best = C.n + 1
    found: list[np.ndarray] = []
    for _, words in _iter_codewords(C):
        dist = np.count_nonzero((w[None, :] - words) % p, axis=1)
        lo = int(dist.min())
        if lo < best:
            best = lo
            found = [words[dist == lo]]
        elif lo == best:
            found.append(words[dist == lo])
    vectors = np.concatenate(found, axis=0)
    return best, vectors


def count_at_distance(C: LinearCode, w, dist: int, threshold: int = DEFAULT_THRESHOLD) -> int:
    """Number of codewords at Hamming distance exactly `dist` from w.

    Whenever this count is nonzero and `dist` is the smallest distance
    from w to the code, these are w's nearest neighbors.
    """
    dist = operator.index(dist)
    _enumeration_size(C, threshold)
    w = C.field.reduce(np.asarray(w))
    if w.ndim != 1 or w.shape[0] != C.n:
        raise ValueError(f"word must be a vector of length {C.n}")
    p = C.field.p
    total = 0
    for _, words in _iter_codewords(C):
        d = np.count_nonzero((w[None, :] - words) % p, axis=1)
        total += int(np.count_nonzero(d == dist))
    return total

