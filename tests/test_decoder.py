"""End-to-end decoding: statuses, exact errors, neighbor counts."""

import numpy as np
import pytest

from coldec import DecodeStatus, LinearCode, PrimeField, decode, ideals, kernels, min_distance
from coldec.decoder import classify
from coldec.ideals import build_ideal, colon_linear_piece, ideal_degree, point_from_forms
from coldec.oracle import enumerate_min_distance, nearest_neighbors
from coldec.polybasis import monomial_basis
from conftest import random_code


def neighbor_count(C, w):
    """Nearest-codeword count of a word of coset weight d_w below d: the
    degree of the augmented code's ideal of (d_w+1)-fold products."""
    _, _, Cw, d_w = classify(C, np.asarray(w, np.int64))
    return ideal_degree(build_ideal(Cw, d_w + 1))


def test_demo_word_corrected(demo_code, demo_word):
    res = decode(demo_code, demo_word)
    assert res.status is DecodeStatus.CORRECTED
    assert res.d == 3
    assert res.d_w == 1
    assert res.error.tolist() == [0, 0, 0, 0, 1, 0]
    assert res.nearest.v.tolist() == [0, 1, 1, 1, 1, 0]
    assert res.message.tolist() == [0, 1, 1]
    assert res.point.coords.tolist() == [0, 1, 1, 1]
    assert res.colon_power == 1
    assert res.neighbor_count is None


def test_codeword_comes_back_in_code(demo_code):
    res = decode(demo_code, [0, 1, 0, 1, 0, 1])
    assert res.status is DecodeStatus.IN_CODE
    assert res.d_w == 0
    assert res.message.tolist() == [0, 1, 0]
    assert res.error.tolist() == [0] * 6
    assert res.nearest.v.tolist() == [0, 1, 0, 1, 0, 1]


def test_hamming_single_flips(hamming_code):
    # every single-coordinate flip of every codeword is corrected exactly
    p = 2
    for m in range(2**4):
        msg = np.array([(m >> i) & 1 for i in range(4)])
        v = hamming_code.encode(msg).v
        for pos in range(7):
            w = v.copy()
            w[pos] ^= 1
            res = decode(hamming_code, w)
            assert res.status is DecodeStatus.CORRECTED
            assert res.d_w == 1
            assert res.message.tolist() == msg.tolist()
            expect_err = np.zeros(7, dtype=int)
            expect_err[pos] = 1
            assert res.error.tolist() == expect_err.tolist()


def test_ambiguous_between_two_neighbors():
    # [4,1] repetition: 1100 sits exactly between 0000 and 1111
    C = LinearCode(PrimeField(2), [[1, 1, 1, 1]])
    res = decode(C, [1, 1, 0, 0])
    assert res.status is DecodeStatus.AMBIGUOUS
    assert res.d == 4 and res.d_w == 2
    assert res.neighbor_count == 2
    assert res.error is None and res.nearest is None


def test_uncorrectable_word():
    # coset weight equals the minimum distance: no augmented-code drop
    C = LinearCode(PrimeField(2), [[1, 1, 0], [0, 0, 1]])
    res = decode(C, [1, 0, 0])
    assert res.status is DecodeStatus.UNCORRECTABLE
    assert res.d == 1


def test_uncorrectable_scan_stops_at_level_d(monkeypatch):
    # [4,2,2] code 0000, 1010, 0101, 1111: 1100 is at distance 2 from each,
    # so C^w has distance d = 2 and its level 3 cannot change the answer
    C = LinearCode(PrimeField(2), [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert min_distance(C) == 2  # C's own scan ends at level d+1; cache it
    widths = []

    class Recording(kernels.Echelon):
        def __init__(self, cols, p):
            widths.append(cols)
            super().__init__(cols, p)

    monkeypatch.setattr(kernels, "Echelon", Recording)
    res = decode(C, [1, 1, 0, 0])
    assert res.status is DecodeStatus.UNCORRECTABLE and res.d == 2
    # the rank check of C^w's 3 x 4 generator, then the scan's levels 1
    # and 2 in C^w's 3 variables; a level 3 would add a width of 10
    assert widths == [4] + [monomial_basis(3, s).size for s in (1, 2)] == [4, 3, 6]


def test_beyond_radius_unique_neighbor_still_corrected():
    # codewords 00000, 11100, 00011, 11111: d = 2, so the guaranteed radius
    # is zero, yet 10000 has the unique nearest neighbor 00000 (distances
    # 1, 2, 3, 4) and is corrected through the degree-one product ideal
    C = LinearCode(PrimeField(2), [[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]])
    res = decode(C, [1, 0, 0, 0, 0])
    assert res.status is DecodeStatus.CORRECTED
    assert res.d_w == 1
    assert res.nearest.v.tolist() == [0, 0, 0, 0, 0]
    assert res.error.tolist() == [1, 0, 0, 0, 0]


def test_scalar_robustness_over_gf5():
    # scaling the received word scales error and nearest codeword alike
    C = LinearCode(PrimeField(5), [[1, 0, 2, 1, 0], [0, 1, 1, 0, 3]])
    base = C.encode([2, 3]).v
    w = base.copy()
    w[4] = (w[4] + 2) % 5
    res = decode(C, w)
    assert res.status is DecodeStatus.CORRECTED
    assert res.message.tolist() == [2, 3]
    for s in (2, 3, 4):
        scaled = (s * w) % 5
        res_s = decode(C, scaled)
        assert res_s.status is DecodeStatus.CORRECTED
        assert res_s.error.tolist() == [(s * e) % 5 for e in res.error.tolist()]
        assert res_s.nearest.v.tolist() == [(s * v) % 5 for v in res.nearest.v.tolist()]


def test_explicit_colon_power(demo_code, demo_word):
    res = decode(demo_code, demo_word, colon_power=1)
    assert res.status is DecodeStatus.CORRECTED
    assert res.colon_power == 1
    # higher powers of an already-saturated colon give the same point
    res5 = decode(demo_code, demo_word, colon_power=5)
    assert res5.status is DecodeStatus.CORRECTED
    assert res5.colon_power == 5
    assert res5.point == res.point


def test_explicit_colon_power_below_generating_degree():
    # [5,1] repetition, double flip: the product ideal is generated in
    # degree 3, so exponents below 2 cannot even pose the membership test
    C = LinearCode(PrimeField(2), [[1, 1, 1, 1, 1]])
    w = [1, 1, 0, 0, 0]
    good = decode(C, w, colon_power=2)
    assert good.status is DecodeStatus.CORRECTED
    assert good.error.tolist() == [1, 1, 0, 0, 0]
    with pytest.raises(ValueError):
        decode(C, w, colon_power=1)


def test_every_power_from_d_w_on_gives_the_colon_point():
    # the colon has saturated from T^d_w on, so decode's point at any
    # U >= d_w is the point of the colon taken at U itself, within the
    # radius and beyond it; U = d_w - 1 poses no membership test
    rng = np.random.default_rng(2021)
    seen = {False: 0, True: 0}
    while min(seen.values()) < 12:
        p = int(rng.choice([2, 3, 5, 7]))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 2, 9))
        C = random_code(rng, p, k, n)
        err = np.zeros(n, np.int64)
        where = rng.choice(n, int(rng.integers(1, 4)), replace=False)
        err[where] = rng.integers(1, p, where.size)
        w = (C.encode(rng.integers(0, p, k)).v + err) % p
        base = decode(C, w)
        if base.status is not DecodeStatus.CORRECTED or base.d_w == 0:
            continue
        d_w = base.d_w
        seen[d_w > (base.d - 1) // 2] += 1
        _, _, Cw, _ = classify(C, w)
        I = build_ideal(Cw, d_w + 1)
        for U in (d_w, d_w + 1, d_w + 2):
            res = decode(C, w, colon_power=U)
            assert res.point == point_from_forms(colon_linear_piece(I, k, U))
            assert res.colon_power == U
            assert res.error.tolist() == base.error.tolist()
            assert res.message.tolist() == base.message.tolist()
        with pytest.raises(ValueError, match="degree mismatch"):
            decode(C, w, colon_power=d_w - 1)


def test_word_length_validated(demo_code):
    with pytest.raises(ValueError):
        decode(demo_code, [1, 0])


NEGATIVE_POWER_WORDS = [
    # (generator rows over GF(2), word, its status)
    ([[1, 1, 1, 1]], [1, 1, 1, 1], DecodeStatus.IN_CODE),
    ([[1, 1, 1, 1]], [1, 1, 0, 0], DecodeStatus.AMBIGUOUS),
    ([[1, 1, 0], [0, 0, 1]], [1, 0, 0], DecodeStatus.UNCORRECTABLE),
    ([[1, 1, 1, 1]], [1, 0, 0, 0], DecodeStatus.CORRECTED),
]


@pytest.mark.parametrize(
    "rows,word,status", NEGATIVE_POWER_WORDS, ids=[s.value for *_, s in NEGATIVE_POWER_WORDS]
)
def test_negative_colon_power_is_refused_for_every_word(monkeypatch, rows, word, status):
    # refused before classification, whatever the word's status would be;
    # U = 0 is a valid power and decodes a codeword as in_code
    C = LinearCode(PrimeField(2), rows)
    assert decode(C, word).status is status
    with monkeypatch.context() as m:
        m.setattr("coldec.decoder.classify", lambda *args: pytest.fail("classified"))
        with pytest.raises(ValueError, match="colon power must be 0 or more"):
            decode(C, word, colon_power=-1)
    if status is DecodeStatus.IN_CODE:
        assert decode(C, word, colon_power=0).status is DecodeStatus.IN_CODE


@pytest.mark.parametrize("colon_power", [2.5, 1.0, "1"])
def test_colon_power_must_be_an_integer(demo_code, demo_word, colon_power):
    # refused up front, on a fresh code and on one with a cached distance
    fresh = LinearCode(demo_code.field, demo_code.G.a)
    with pytest.raises(TypeError):
        decode(fresh, demo_word, colon_power=colon_power)
    min_distance(fresh)
    with pytest.raises(TypeError):
        decode(fresh, demo_word, colon_power=colon_power)
    assert decode(fresh, demo_word, colon_power=np.int64(1)).colon_power == 1


def test_non_integral_word_is_refused(demo_code, demo_word):
    with pytest.raises(ValueError):
        decode(demo_code, [0.9, 1, 1, 1, 0, 0])
    res = decode(demo_code, np.asarray(demo_word, np.float64))
    assert res.error.tolist() == decode(demo_code, demo_word).error.tolist()


def test_decode_matches_oracle_randomized():
    rng = np.random.default_rng(23)
    hits = {status: 0 for status in DecodeStatus}
    for _ in range(60):
        p = int(rng.choice([2, 3, 5]))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 9))
        C = random_code(rng, p, k, n)
        w = rng.integers(0, p, size=n)
        res = decode(C, w)
        d_w, vectors = nearest_neighbors(C, w)
        hits[res.status] += 1
        if res.status is DecodeStatus.IN_CODE:
            assert d_w == 0
        elif res.status is DecodeStatus.CORRECTED:
            assert res.d_w == d_w == ((w - res.nearest.v) % p != 0).sum()
            assert res.colon_power == res.d_w  # one colon, at the smallest power
            assert vectors.shape[0] == 1
            assert vectors[0].tolist() == res.nearest.v.tolist()
        elif res.status is DecodeStatus.AMBIGUOUS:
            assert res.d_w == d_w
            assert res.neighbor_count == vectors.shape[0] > 1
        else:
            assert d_w >= res.d
    # the sweep must actually exercise every branch
    assert all(hits[s] > 0 for s in DecodeStatus), hits


def test_nearest_neighbor_count_demo(demo_code, demo_word):
    assert neighbor_count(demo_code, demo_word) == 1
    # three-way tie, counted through the product ideal's degree
    assert neighbor_count(demo_code, [1, 1, 0, 1, 0, 0]) == 3
    # a codeword has no augmented code to count with
    assert classify(demo_code, np.zeros(6, np.int64))[2:] == (None, 0)


def test_nearest_neighbor_count_row_removal(demo_code):
    # the removed first generator row, against the remaining [6,2] code
    # (which has an all-zero column): it sits at distance d = 3, so its
    # nearest codewords are the weight-3 words of C^w outside C_j, counted
    # by the row-removal identity
    Cj = demo_code.remove_row(0)
    w = demo_code.G.a[0]
    d, _, Cw, d_w = classify(Cj, w)
    assert d == 3 and d_w is None  # coset weight d or more
    assert min_distance(Cw) == d
    assert ideal_degree(build_ideal(Cw, d + 1)) - ideal_degree(build_ideal(Cj, d + 1)) == 2


def test_nearest_neighbor_count_matches_oracle_randomized():
    rng = np.random.default_rng(41)
    counted = 0
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 8))
        C = random_code(rng, p, k, n)
        w = rng.integers(0, p, size=n)
        inside, _ = C.contains(w)
        if inside:
            continue
        d_w, vectors = nearest_neighbors(C, w)
        if d_w >= min_distance(C):
            continue  # no degree count at coset weight d or more
        assert neighbor_count(C, w) == vectors.shape[0]
        counted += 1
    assert counted >= 15


def test_degree_is_read_off_the_generating_piece(demo_code, monkeypatch):
    # an ideal of g-fold products of linear forms has a linear resolution,
    # so its degree is HF(g) and no piece above g is eliminated; a decode
    # reads that value off the distance scan of C^w instead
    asked = []
    real = ideals.IdealPiece.piece

    def recording(self, m):
        asked.append(int(m))
        return real(self, m)

    monkeypatch.setattr(ideals.IdealPiece, "piece", recording)
    assert ideal_degree(build_ideal(demo_code, 4)) == 4
    assert asked == [4]
    asked.clear()
    res = decode(demo_code, [1, 1, 0, 1, 0, 0])
    assert res.status is DecodeStatus.AMBIGUOUS and res.neighbor_count == 3
    assert asked == []
    # beyond the radius the point is read off the same scan at every
    # colon power, and no piece of the product ideal is built
    asked.clear()
    C = LinearCode(PrimeField(2), [[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]])
    res = decode(C, [1, 0, 0, 0, 0])
    assert res.status is DecodeStatus.CORRECTED and res.colon_power == res.d_w == 1
    assert asked == []
    assert decode(C, [1, 0, 0, 0, 0], colon_power=1).point == res.point
    assert asked == []
    # within it an explicit power past d_w still takes the colon at d_w,
    # from the piece of degree d_w + 1 alone
    res = decode(demo_code, [0, 1, 1, 1, 0, 0], colon_power=4)
    assert res.status is DecodeStatus.CORRECTED and res.colon_power == res.d_w + 3 == 4
    assert asked == [res.d_w + 1]


# Generator polynomial of the cyclic [23,12,7] binary Golay code,
# 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11, lowest degree first.
GOLAY_POLY = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]


def golay_code():
    """The extended binary Golay [24,12,8] code: the 12 shifts of the
    cyclic generator polynomial, plus an overall parity column."""
    G = np.zeros((12, 24), np.int64)
    for i in range(12):
        G[i, i : i + 12] = GOLAY_POLY
    G[:, 23] = G[:, :23].sum(axis=1) % 2
    return LinearCode(PrimeField(2), G)


def test_golay_words_decode_exactly_at_455_and_1820_columns():
    # The widest GF(2) levels tier-1 eliminates. A 2-error word's scan of
    # C^w stops at level 3, whose monomials in 13 variables number 455; a
    # 3-error word's stops at level 4, with 1,820. The distance comes from
    # the oracle: the rank criterion would build level 9 of C.
    C = golay_code()
    assert enumerate_min_distance(C) == 8
    C._dmin = 8
    assert [monomial_basis(C.k + 1, s).size for s in (3, 4)] == [455, 1820]
    rng = np.random.default_rng(2416)
    for t in (2, 2, 3):
        c = C.encode(rng.integers(0, 2, C.k)).v
        e = np.zeros(C.n, np.int64)
        e[rng.choice(C.n, t, replace=False)] = 1
        w = (c + e) % 2
        d_w, vectors = nearest_neighbors(C, w)
        assert d_w == t and vectors.tolist() == [c.tolist()]
        res = decode(C, w)
        assert (res.status, res.d, res.d_w) == (DecodeStatus.CORRECTED, 8, t)
        assert res.nearest.v.tolist() == c.tolist() and res.error.tolist() == e.tolist()
