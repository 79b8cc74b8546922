"""Exhaustive enumeration oracle: distributions, neighbors, thresholds."""

import numpy as np
import pytest

from coldec import LinearCode, PrimeField
from coldec.oracle import (
    OracleThresholdError,
    count_at_distance,
    enumerate_min_distance,
    nearest_neighbors,
    projective_min_weight_count,
    weight_distribution,
)
from conftest import random_code
from oracle_helpers import projective_words_of_weight


def test_enumerate_min_distance_demo(demo_code, hamming_code):
    assert enumerate_min_distance(demo_code) == 3
    assert enumerate_min_distance(hamming_code) == 3


def test_weight_distribution_repetition():
    # [3,1] repetition over GF(3): two nonzero words, both of weight 3
    C = LinearCode(PrimeField(3), [[1, 1, 1]])
    assert weight_distribution(C) == {3: 1}  # one projective class


def test_weight_distribution_demo(demo_code):
    # seven nonzero binary words: weights 3,3,3,3,4,4,4
    assert weight_distribution(demo_code) == {3: 4, 4: 3}


def test_projective_min_weight_count_demo(demo_code):
    assert projective_min_weight_count(demo_code) == 4


def test_nearest_neighbors_demo(demo_code, demo_word):
    d_w, vectors = nearest_neighbors(demo_code, demo_word)
    assert d_w == 1
    assert vectors.shape == (1, 6)
    assert vectors[0].tolist() == [0, 1, 1, 1, 1, 0]
    assert nearest_neighbors(demo_code, demo_word)[0] == 1


def test_nearest_neighbors_of_codeword(demo_code):
    d_w, vectors = nearest_neighbors(demo_code, [1, 1, 0, 0, 1, 1])
    assert d_w == 0
    assert vectors.shape == (1, 6)  # the word is its own neighbor


def test_nearest_neighbors_tie(demo_code):
    # equidistant from three codewords
    w = np.array([1, 1, 0, 1, 0, 0])
    d_w, vectors = nearest_neighbors(demo_code, w)
    assert d_w == 2
    assert vectors.shape[0] == 3
    for v in vectors:
        assert ((w - v) % 2).sum() == d_w
        inside, _ = demo_code.contains(v)
        assert inside


def test_count_at_distance(demo_code, demo_word):
    assert count_at_distance(demo_code, demo_word, 1) == 1
    assert count_at_distance(demo_code, demo_word, 0) == 0
    # distance-2 shell around the received word
    d2 = count_at_distance(demo_code, demo_word, 2)
    w = np.asarray(demo_word)
    brute = 0
    for m in range(2**3):
        msg = [(m >> i) & 1 for i in range(3)]
        v = demo_code.encode(msg).v
        if ((w - v) % 2 != 0).sum() == 2:
            brute += 1
    assert d2 == brute


def test_projective_words_of_weight(demo_code, demo_word):
    Cw = demo_code.augment(demo_word)
    words = projective_words_of_weight(Cw, 1)
    assert words.shape == (1, 6)
    assert words[0].tolist() == [0, 0, 0, 0, 1, 0]
    with pytest.raises(ValueError):
        projective_words_of_weight(Cw, 0)


def test_projective_dedup_over_gf5():
    # [4,1] over GF(5): four scalar multiples of the generator, one class
    C = LinearCode(PrimeField(5), [[1, 2, 0, 3]])
    words = projective_words_of_weight(C, 3)
    assert words.shape == (1, 4)
    assert words[0].tolist() == [1, 2, 0, 3]  # first nonzero scaled to one


def test_threshold_enforced():
    C = LinearCode(PrimeField(2), [[1, 0, 1], [0, 1, 1]])
    with pytest.raises(OracleThresholdError):
        enumerate_min_distance(C, threshold=3)
    with pytest.raises(OracleThresholdError):
        nearest_neighbors(C, [1, 1, 1], threshold=3)


def test_oracle_identities_randomized():
    # weight distribution total, minimum distance, and neighbor distances
    # agree with each other across random small codes
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = int(rng.choice([2, 3]))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 8))
        C = random_code(rng, p, k, n)
        counts = weight_distribution(C)
        assert sum(counts.values()) == (p**k - 1) // (p - 1)
        assert min(counts) == enumerate_min_distance(C)
        assert projective_min_weight_count(C) == counts[min(counts)]
        w = rng.integers(0, p, size=n)
        d_w, vectors = nearest_neighbors(C, w)
        assert d_w == nearest_neighbors(C, w)[0]
        assert count_at_distance(C, w, d_w) == vectors.shape[0]
        for v in vectors:
            assert ((w - v) % p != 0).sum() == d_w


# Each integer argument of the oracle and of the tests' word listing,
# called on the worked code and word with the integer that `x` makes of a
# Python int.
INTEGER_ARGUMENTS = {
    "count_at_distance": lambda C, w, x: count_at_distance(C, w, x(2)),
    "projective_words_of_weight": lambda C, w, x: projective_words_of_weight(C, x(3)).tolist(),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_floats(demo_code, demo_word, entry):
    # A float is refused, not truncated or compared (a distance of 3.5
    # would count no codeword), even when integral; a numpy integer is
    # accepted.
    call = INTEGER_ARGUMENTS[entry]
    want = call(demo_code, demo_word, int)
    assert call(demo_code, demo_word, np.int64) == want
    for bad in (lambda v: v + 0.5, float, str):
        with pytest.raises(TypeError):
            call(demo_code, demo_word, bad)
