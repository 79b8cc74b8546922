"""Linear code objects: encoding, membership, augmentation, row removal."""

import numpy as np
import pytest

from coldec import LinearCode, PrimeField, min_distance
from coldec.code import AlreadyCodewordError, Codeword, weight
from conftest import DEMO_W, random_code


def test_weight():
    assert weight(np.array([0, 0, 0])) == 0
    assert weight(np.array([1, 0, 2, 0, 3])) == 3


def test_constructor_keeps_generator_verbatim(demo_code):
    # rows are stored as given, not echelonized: row order is meaningful
    assert demo_code.G.a.tolist() == [
        [1, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1],
    ]
    assert (demo_code.n, demo_code.k) == (6, 3)


def test_constructor_refuses_non_integral_entries():
    F = PrimeField(2)
    with pytest.raises(ValueError):
        LinearCode(F, [[1.9, 0, 1], [0, 1, 1]])
    assert LinearCode(F, np.eye(2)) == LinearCode(F, [[1, 0], [0, 1]])


def test_constructor_rejects_rank_deficiency():
    F = PrimeField(2)
    with pytest.raises(ValueError):
        LinearCode(F, [[1, 0, 1], [1, 0, 1]])
    with pytest.raises(ValueError):
        LinearCode(F, [[0, 0, 0]])


def test_encode_and_contains(demo_code):
    cw = demo_code.encode([1, 1, 0])
    assert isinstance(cw, Codeword)
    assert cw.v.tolist() == [1, 1, 0, 0, 1, 1]
    assert cw.message.tolist() == [1, 1, 0]
    inside, msg = demo_code.contains(cw.v)
    assert inside and msg.tolist() == [1, 1, 0]
    inside, msg = demo_code.contains([0, 1, 1, 1, 0, 0])
    assert not inside and msg is None


def test_contains_validates_length(demo_code):
    with pytest.raises(ValueError):
        demo_code.contains([1, 0, 1])


def test_codeword_equality(demo_code):
    a = demo_code.encode([1, 0, 0])
    b = demo_code.encode([1, 0, 0])
    c = demo_code.encode([0, 1, 0])
    assert a == b and a != c


def test_augment_appends_received_word(demo_code, demo_word):
    Cw = demo_code.augment(demo_word)
    assert (Cw.n, Cw.k) == (6, 4)
    assert Cw.G.a[:3].tolist() == demo_code.G.a.tolist()
    assert Cw.G.a[3].tolist() == DEMO_W
    # augmented minimum distance is the coset weight: one flip away
    assert min_distance(Cw) == 1


def test_augment_rejects_codeword(demo_code):
    with pytest.raises(AlreadyCodewordError):
        demo_code.augment([1, 1, 0, 0, 1, 1])
    with pytest.raises(AlreadyCodewordError):
        demo_code.augment([0, 0, 0, 0, 0, 0])


def test_augment_enumeration_identity(demo_code, demo_word):
    # the augmented code is exactly {c + t*w : c in C, t in GF(p)}
    Cw = demo_code.augment(demo_word)
    p = demo_code.field.p
    base = set()
    for m in range(p**demo_code.k):
        msg = [(m >> i) & 1 for i in range(demo_code.k)]
        base.add(tuple(demo_code.encode(msg).v.tolist()))
    w = np.array(DEMO_W)
    expected = set()
    for t in range(p):
        for c in base:
            expected.add(tuple((np.array(c) + t * w) % p))
    got = set()
    for m in range(p**Cw.k):
        msg = [(m >> i) & 1 for i in range(Cw.k)]
        got.add(tuple(Cw.encode(msg).v.tolist()))
    assert got == expected


def test_remove_row(demo_code):
    Cj = demo_code.remove_row(0)
    assert (Cj.n, Cj.k) == (6, 2)
    assert Cj.G.a.tolist() == demo_code.G.a[1:].tolist()
    with pytest.raises(ValueError):
        demo_code.remove_row(3)
    F = PrimeField(2)
    single = LinearCode(F, [[1, 1]])
    with pytest.raises(ValueError):
        single.remove_row(0)  # a code needs at least one row


@pytest.mark.parametrize("j", [1.9, 1.0, "1"])
def test_remove_row_index_must_be_an_integer(demo_code, j):
    with pytest.raises(TypeError):  # not truncated to row 1
        demo_code.remove_row(j)
    assert demo_code.remove_row(np.int64(1)).G == demo_code.remove_row(1).G


def test_random_codes_roundtrip_messages():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = int(rng.choice([2, 3, 5]))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 9))
        C = random_code(rng, p, k, n)
        msg = rng.integers(0, p, size=k)
        cw = C.encode(msg)
        inside, back = C.contains(cw.v)
        assert inside
        assert cw.v.tolist() == ((back @ C.G.a) % p).tolist()
