"""Differential decode fuzzing: random full-rank codes over small prime
fields, words at every coset weight, each answer checked against the
exhaustive oracle. Malformed words may raise only ValueError, the
documented "invalid input" (CLI exit 4)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from coldec import DecodeStatus, LinearCode, PrimeField, decode, min_distance, oracle
from coldec.kernels import rank_of_rows

# Largest k per field, so that q**k stays small enough for the oracle.
MAX_K = {2: 6, 3: 4, 5: 3, 7: 3, 251: 1}


@st.composite
def codes(draw):
    """A full-rank [n, k] code over GF(p); all-zero columns are allowed."""
    p = draw(st.sampled_from(sorted(MAX_K)))
    k = draw(st.integers(1, MAX_K[p]))
    n = draw(st.integers(k + 1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        G = rng.integers(0, p, size=(k, n))
        if rank_of_rows(G, p) == k:
            return LinearCode(PrimeField(p), G)


def expected(C, w, d):
    """(status, d, d_w, nearest, ambiguous count) as the oracle sees it."""
    d_w, vectors = oracle.nearest_neighbors(C, w)
    if d_w == 0:
        return (DecodeStatus.IN_CODE, d, 0, w.tolist(), None)
    if d_w >= d:
        return (DecodeStatus.UNCORRECTABLE, d, None, None, None)
    if vectors.shape[0] == 1:
        return (DecodeStatus.CORRECTED, d, d_w, vectors[0].tolist(), None)
    return (DecodeStatus.AMBIGUOUS, d, d_w, None, vectors.shape[0])


def summary(res):
    nearest = None if res.nearest is None else res.nearest.v.tolist()
    return (res.status, res.d, res.d_w, nearest, res.neighbor_count)


@given(C=codes(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=1000, suppress_health_check=[HealthCheck.too_slow])
def test_decode_matches_oracle(C, seed):
    p = C.field.p
    d = oracle.enumerate_min_distance(C)
    assert min_distance(C) == d
    rng = np.random.default_rng(seed)
    # An error of every weight 0..n, so the coset weights span 0 up to the
    # covering radius and every status occurs.
    e = int(rng.integers(0, C.n + 1))
    w = rng.integers(0, p, size=C.k) @ C.G.a % p
    pos = rng.choice(C.n, size=e, replace=False)
    w[pos] = (w[pos] + rng.integers(1, p, size=e)) % p
    want = expected(C, w, d)
    event(f"{want[0]} at coset weight {want[2]}")
    assert summary(decode(C, w)) == want


@pytest.mark.parametrize(
    "mangle",
    [
        lambda w: w[:-1],
        lambda w: np.append(w, 0),
        lambda w: w.reshape(1, -1),
        lambda w: w + 0.5,
        lambda w: np.array([str(x) for x in w]),
        lambda w: np.full(w.shape, np.nan),
    ],
    ids=["short", "long", "matrix", "fractional", "strings", "nan"],
)
@given(C=codes(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, suppress_health_check=[HealthCheck.too_slow])
def test_malformed_words_raise_only_value_error(mangle, C, seed):
    rng = np.random.default_rng(seed)
    w = mangle(rng.integers(0, C.field.p, size=C.n))
    with pytest.raises(ValueError):
        decode(C, w)
