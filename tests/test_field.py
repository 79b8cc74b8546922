"""Prime fields: modulus validation, canonical residues, and inverses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldec.field import PrimeField, is_prime

PRIMES = [2, 3, 5, 7, 11, 13, 251, 65521]


def test_is_prime_basics():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)
    assert is_prime(65521)
    assert not is_prime(65520)


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 100, 65536, 2**16 + 1])
def test_field_rejects_non_prime_or_out_of_range(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


@pytest.mark.parametrize("bad", [3.9, 2.5, 5.0, "5"])
def test_field_modulus_must_be_an_integer(bad):
    with pytest.raises(TypeError):  # 3.9 is not truncated to GF(3)
        PrimeField(bad)
    assert PrimeField(np.int64(5)) == PrimeField(5)
    assert type(PrimeField(np.int64(5)).p) is int


def test_reduce_canonicalizes():
    F = PrimeField(7)
    assert F.reduce(-1) == 6
    assert F.reduce(7) == 0
    assert F.reduce(23) == 2
    arr = F.reduce(np.array([[-1, 8], [14, -7]]))
    assert arr.dtype == np.int64
    assert arr.tolist() == [[6, 1], [0, 0]]


def test_reduce_accepts_only_integral_entries():
    F = PrimeField(5)
    assert F.reduce(np.eye(2)).tolist() == [[1, 0], [0, 1]]
    assert F.reduce(np.array([-1.0, 7.0])).tolist() == [4, 2]
    assert F.reduce([True, False]).tolist() == [1, 0]
    assert F.reduce(np.array([9], np.uint8)).tolist() == [4]
    too_big = np.array([2**64 - 1], np.uint64)
    for bad in ([0.9, 1], [np.nan], [np.inf], [1e30], ["1"], [2**70], too_big):
        with pytest.raises(ValueError):
            F.reduce(bad)


@given(p=st.sampled_from(PRIMES), a=st.integers(min_value=1, max_value=65520))
@settings(max_examples=200)
def test_inverse_is_two_sided(p, a):
    F = PrimeField(p)
    a = F.reduce(a)
    if a == 0:
        return
    inv = F.inv(a)
    assert (a * inv) % p == 1
    assert (inv * a) % p == 1


def test_zero_has_no_inverse():
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_field_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert hash(PrimeField(5)) == hash(PrimeField(5))
