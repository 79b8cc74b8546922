"""Shared fixtures: a worked demo code and a seeded random-code factory.

HYPOTHESIS_PROFILE=ci selects the `ci` hypothesis profile: examples are
derived from each test's name, so a failure in CI reproduces anywhere, and
there is no per-example deadline for a slow runner to trip.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from coldec import LinearCode, PrimeField
from coldec.kernels import rank_of_rows

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# A [6,3] binary code with minimum distance 3 and a received word one flip
# away from a codeword; every hand-checked value in the tests refers to it.
DEMO_G = [
    [1, 0, 0, 1, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1],
]
DEMO_W = [0, 1, 1, 1, 0, 0]

# Systematic [7,4,3] single-error-correcting binary code.
HAMMING_G = [
    [1, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1, 0],
    [0, 0, 0, 1, 1, 1, 1],
]


@pytest.fixture(scope="session")
def F2() -> PrimeField:
    return PrimeField(2)


@pytest.fixture(scope="session")
def demo_code(F2) -> LinearCode:
    return LinearCode(F2, DEMO_G)


@pytest.fixture(scope="session")
def demo_word() -> np.ndarray:
    return np.array(DEMO_W, dtype=np.int64)


@pytest.fixture(scope="session")
def hamming_code(F2) -> LinearCode:
    return LinearCode(F2, HAMMING_G)


def random_code(rng: np.random.Generator, p: int, k: int, n: int) -> LinearCode:
    """Random [n,k] code over GF(p): full-rank generator, no all-zero column."""
    field = PrimeField(p)
    while True:
        G = rng.integers(0, p, size=(k, n))
        if np.any(np.all(G == 0, axis=0)):
            continue
        if rank_of_rows(G, p) < k:
            continue
        return LinearCode(field, G)


def random_small_code(
    rng: np.random.Generator,
    primes=(2, 3, 5, 7),
    max_n: int = 12,
    max_k: int = 6,
    max_words: int = 4096,
) -> LinearCode:
    """Random code drawn from the small box with q**k bounded for the oracle."""
    while True:
        p = int(rng.choice(primes))
        k = int(rng.integers(1, max_k + 1))
        if p**k > max_words:
            continue
        n = int(rng.integers(k + 1, max_n + 1))
        return random_code(rng, p, k, n)
