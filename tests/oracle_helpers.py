"""Listings of projective codewords that only the tests use.

They enumerate through `coldec.oracle` and obey its threshold.
"""

import operator

import numpy as np

from coldec.code import LinearCode
from coldec.oracle import DEFAULT_THRESHOLD, _enumeration_size, _iter_codewords


def projective_words_of_weight(C: LinearCode, u: int, threshold: int = DEFAULT_THRESHOLD):
    """Scalar classes of weight-u codewords, deduplicated and normalized.

    Each class is represented by the codeword whose first nonzero
    coordinate is 1; rows appear in first-seen enumeration order.
    """
    u = operator.index(u)
    if u < 1:
        raise ValueError("weight must be at least 1")
    _enumeration_size(C, threshold)
    p = C.field.p
    seen = set()
    out = []
    for _, words in _iter_codewords(C):
        wt = np.count_nonzero(words, axis=1)
        for row in words[wt == u]:
            first = int(row[np.nonzero(row)[0][0]])
            if first != 1:
                row = (row * C.field.inv(first)) % p
            key = tuple(int(x) for x in row)
            if key not in seen:
                seen.add(key)
                out.append(np.asarray(key, np.int64))
    if not out:
        return np.zeros((0, C.n), np.int64)
    return np.stack(out)
