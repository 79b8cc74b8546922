"""Graded ideal engine: pieces, Hilbert functions, degrees, colons, the
saturation identity, and the rank criterion for minimum distance."""

import itertools

import numpy as np
import pytest

from coldec import LinearCode, PrimeField, decode, min_distance
from coldec.decoder import DecodeStatus, classify
from coldec import ideals, kernels
from coldec.ideals import (
    IdealPiece,
    LinearFormSpace,
    NotSinglePointError,
    ProjectivePoint,
    StabilizationError,
    build_ideal,
    colon_degree,
    colon_linear_piece,
    hilbert_function,
    ideal_degree,
    min_weight_count,
    min_weight_point,
    point_from_forms,
    verify_power_containment,
    verify_saturation_identity,
)
from coldec.linalg import MatrixGF
from coldec.oracle import (
    enumerate_min_distance,
    nearest_neighbors,
    projective_min_weight_count,
)
from coldec.polybasis import checked_binomial, monomial_basis, product_of_linear_forms
from conftest import random_code


@pytest.fixture(scope="module")
def demo_augmented(demo_code, demo_word):
    return demo_code.augment(demo_word)


@pytest.fixture(scope="module")
def demo_ideal(demo_augmented):
    # products of pairs of the augmented code's column forms in GF(2)[x,y,z,T]
    return build_ideal(demo_augmented, 2)


class TestLinearFormSpace:
    def test_canonical_basis(self):
        F = PrimeField(2)
        sp = LinearFormSpace(F, 3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert sp.dim == 2  # third row is the sum of the first two
        assert sp == LinearFormSpace(F, 3, [[1, 1, 0], [1, 0, 1]])

    def test_basis_rows_are_normalized(self):
        F = PrimeField(3)
        sp = LinearFormSpace(F, 2, [[2, 1]])
        assert sp.basis.tolist() == [[1, 2]]  # normalized leading one

    def test_refuses_fractions(self):
        F = PrimeField(5)
        with pytest.raises(ValueError):  # not truncated to [[0, 1, 0]]
            LinearFormSpace(F, 3, [[0.5, 1.7, 0]])
        assert LinearFormSpace(F, 3, [[1.0, True, 0]]) == LinearFormSpace(F, 3, [[1, 1, 0]])

    def test_refuses_tables_of_another_width(self):
        F = PrimeField(5)
        with pytest.raises(ValueError, match="table"):  # not re-cut into three forms
            LinearFormSpace(F, 2, [[1, 2, 3], [4, 0, 1]])
        with pytest.raises(ValueError, match="table"):  # not re-cut into two forms
            LinearFormSpace(F, 3, [1, 2, 3, 4, 0, 1])
        assert LinearFormSpace(F, 3, np.zeros((0, 3), np.int64)).dim == 0


class TestProjectivePoint:
    def test_scaling_representative(self):
        F = PrimeField(5)
        # scaled so the last nonzero coordinate becomes one
        assert ProjectivePoint(F, [2, 4, 0]).coords.tolist() == [3, 1, 0]
        assert ProjectivePoint(F, [0, 0, 3]).coords.tolist() == [0, 0, 1]

    def test_scalar_multiples_agree(self):
        F = PrimeField(7)
        a = ProjectivePoint(F, [1, 2, 3])
        b = ProjectivePoint(F, [4, 1, 5])  # 4 * (1,2,3) mod 7
        assert a == b and hash(a) == hash(b)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint(PrimeField(2), [0, 0, 0])


class TestIdealPiece:
    def test_generator_width_validated(self):
        F = PrimeField(2)
        with pytest.raises(ValueError):
            IdealPiece(F, 2, 2, [[1, 0]])  # needs 3 columns

    def test_outside_generators_keep_the_input_rule(self):
        # Lists, integral floats and out-of-range values are reduced into a
        # fresh C-contiguous array; fractions are refused; the input is
        # left as it was.
        F = PrimeField(3)
        src = np.array([[4, -1, 3], [0, 7, 5]], np.int64)
        for gens in (src.tolist(), src.astype(float), np.asfortranarray(src)):
            I = IdealPiece(F, 3, 1, gens)
            assert I.gens.tolist() == [[1, 2, 0], [0, 1, 2]]
            assert I.gens.flags.c_contiguous and not I.gens.flags.writeable
            assert len(I.piece(1)) == 2
        assert src.tolist() == [[4, -1, 3], [0, 7, 5]]
        with pytest.raises(ValueError):
            IdealPiece(F, 3, 1, [[0.5, 1, 0]])

    def test_graded_pieces_grow_consistently(self, demo_ideal):
        assert demo_ideal.gen_degree == 2
        assert demo_ideal.gens.shape == (15, 10)  # all pairs from six columns
        assert demo_ideal.gens.dtype == np.int64 and not demo_ideal.gens.flags.writeable
        assert len(demo_ideal.piece(2)) == 9
        assert len(demo_ideal.piece(3)) == 19
        with pytest.raises(ValueError):
            demo_ideal.piece(1)

    def test_an_ideal_with_no_generators_has_empty_pieces(self):
        I = IdealPiece(PrimeField(3), 3, 2, np.zeros((0, 6), np.int64))
        assert I.piece(2).shape == (0, 6)
        assert I.piece(3).shape == (0, 10)
        assert hilbert_function(I, 2) == 6
        assert hilbert_function(I, 3) == 10


def test_build_ideal_validates_s(demo_code):
    with pytest.raises(ValueError):
        build_ideal(demo_code, 0)
    with pytest.raises(ValueError):
        build_ideal(demo_code, 7)  # only six columns to multiply


def test_hilbert_function_demo(demo_ideal):
    # one point, multiplicity one: the quotient has constant dimension 1
    assert hilbert_function(demo_ideal, 2) == 1
    assert hilbert_function(demo_ideal, 3) == 1


def test_ideal_degree_single_point():
    # forms x, y in GF(5)[x,y,z] cut out one projective point
    F = PrimeField(5)
    I = IdealPiece(F, 3, 1, [[1, 0, 0], [0, 1, 0]])
    assert ideal_degree(I) == 1


def test_ideal_degree_demo(demo_ideal, demo_code):
    assert ideal_degree(demo_ideal) == 1  # unique nearest neighbor
    assert ideal_degree(build_ideal(demo_code, 4)) == 4  # four minimal words


def test_colon_degree_positive_dimensional_raises():
    # (x^2) : y = (x^2) in three variables: the quotient keeps growing, no
    # stable value
    F = PrimeField(2)
    I = IdealPiece(F, 3, 2, [[1, 0, 0, 0, 0, 0]])
    with pytest.raises(StabilizationError):
        colon_degree(I, 1)


def test_min_distance_known_codes(demo_code, hamming_code, demo_augmented):
    assert min_distance(demo_code) == 3
    assert min_distance(hamming_code) == 3
    assert min_distance(demo_augmented) == 1


def test_min_distance_skips_zero_column():
    # codewords 101, 001, 100: the zero middle coordinate carries no weight
    F = PrimeField(2)
    C = LinearCode(F, [[1, 0, 1], [0, 0, 1]])
    assert min_distance(C) == enumerate_min_distance(C) == 1


def test_min_distance_matches_oracle_randomized():
    rng = np.random.default_rng(100)
    for _ in range(30):
        p = int(rng.choice([2, 3, 5]))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 10))
        C = random_code(rng, p, k, n)
        assert min_distance(C) == enumerate_min_distance(C)


def test_capped_min_distance_is_min_of_distance_and_cap():
    rng = np.random.default_rng(101)
    for p in (2, 3, 5, 7):
        for _ in range(6):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k + 1, 9))
            C = random_code(rng, p, k, n)
            d = enumerate_min_distance(C)
            for cap in range(1, n + 1):
                fresh = LinearCode(C.field, C.G.a)
                assert min_distance(fresh, cap=cap) == min(d, cap)
                assert fresh._dmin in (None, d)
            assert min_distance(C) == d
            assert [min_distance(C, cap=c) for c in range(1, n + 1)] == [
                min(d, c) for c in range(1, n + 1)
            ]


def test_capped_stop_on_a_full_level_caches_nothing(demo_code):
    C = LinearCode(demo_code.field, demo_code.G.a)  # d = 3
    assert min_distance(C, cap=2) == 2
    assert C._dmin is None
    assert min_distance(C, cap=3) == 3
    assert C._dmin is None
    assert min_distance(C) == enumerate_min_distance(C) == 3
    assert C._dmin == 3


def test_min_weight_count_is_recorded_by_the_scan():
    rng = np.random.default_rng(13)
    codes = [
        LinearCode(PrimeField(3), [[1, 0, 2, 1, 0], [0, 1, 1, 2, 0]]),  # a zero column
        LinearCode(PrimeField(5), [[1, 2, 3, 4]]),  # k = 1, d = n
        LinearCode(PrimeField(2), [[1, 1, 0]]),  # k = 1 with a zero column: d < n
    ]
    for p in (2, 3, 5, 7):
        for _ in range(6):
            k = int(rng.integers(1, 4))
            codes.append(random_code(rng, p, k, int(rng.integers(k + 1, 9))))
    for C in codes:
        d = min_distance(C)
        assert C._min_level is not None
        want = projective_min_weight_count(C)
        assert min_weight_count(C) == want, C.G.a.tolist()
        if d < C.n:
            assert ideal_degree(build_ideal(C, d + 1)) == want


def test_capped_min_distance_records_no_count(demo_code):
    C = LinearCode(demo_code.field, demo_code.G.a)  # d = 3, four weight-3 codewords
    assert min_distance(C, cap=3) == 3
    assert C._min_level is None
    assert min_weight_count(C) == 4
    assert C._dmin == 3 and C._min_level is not None


def test_min_weight_count_of_a_supplied_distance_is_refused(demo_code):
    # no scan ran, so there is no level d+1 to read the count off
    C = LinearCode(demo_code.field, demo_code.G.a)
    C._dmin = 3
    with pytest.raises(ValueError, match="supplied"):
        min_weight_count(C)
    K = LinearCode(PrimeField(5), [[1, 2, 3, 4]])  # k = 1, d = n
    K._dmin = 4
    with pytest.raises(ValueError, match="supplied"):
        min_weight_count(K)


def _check_min_weight_point(C):
    # The point read off the scan's last level spans the one minimum-weight
    # codeword, and is the one the colon of that level extracts.
    d = min_distance(C)
    P = min_weight_point(C)
    codeword = (P.coords @ C.G.a) % C.field.p
    assert np.count_nonzero(codeword) == d == enumerate_min_distance(C)
    if d < C.n:
        j = int(np.flatnonzero(P.coords)[-1])
        space = colon_linear_piece(build_ideal(C, d + 1), j, d)
        assert point_from_forms(space) == P
    return P


def _words_within_the_radius(rng, p, count):
    # (C, w) with 1 <= d_w <= (d-1)//2: a codeword plus t such errors.
    while count:
        k = int(rng.integers(2, 4))
        C = random_code(rng, p, k, int(rng.integers(k + 4, 10)))
        d = min_distance(C)
        if d < 3:
            continue
        t = int(rng.integers(1, (d - 1) // 2 + 1))
        w = C.encode(rng.integers(0, p, size=k)).v
        pos = rng.choice(C.n, size=t, replace=False)
        w[pos] = (w[pos] + rng.integers(1, p, size=t)) % p
        yield C, w
        count -= 1


def test_min_weight_point_is_the_colon_point():
    # With one projective minimum-weight codeword, the point read off the
    # scan's last level is the one the colon of that level extracts. The
    # inputs are random codes, whose scans run uncapped, and the augmented
    # codes C^w of words within the unique-decoding radius, whose scans
    # classify runs with cap=d; on those the point is also decode's.
    rng = np.random.default_rng(29)
    seen = 0
    for p in (2, 3, 5, 7):
        for _ in range(25):
            k = int(rng.integers(1, 4))
            C = random_code(rng, p, k, int(rng.integers(k + 1, 9)))
            if min_weight_count(C) != 1:
                with pytest.raises(ValueError, match="not one"):
                    min_weight_point(C)
                continue
            seen += 1
            _check_min_weight_point(C)
    assert seen >= 20
    for p in (2, 3, 5, 7):
        for C, w in _words_within_the_radius(rng, p, 4):
            d, _, Cw, d_w = classify(C, w)
            assert 1 <= d_w <= (d - 1) // 2
            assert Cw._dmin == d_w and Cw._min_level is not None  # from the capped scan
            assert min_weight_count(Cw) == 1
            assert _check_min_weight_point(Cw) == decode(C, w).point


def test_min_weight_point_of_a_supplied_distance_is_refused(demo_code):
    C = LinearCode(demo_code.field, demo_code.G.a)
    C._dmin = 3
    with pytest.raises(ValueError, match="supplied"):
        min_weight_point(C)


@pytest.mark.parametrize("cap", [0, -1])
def test_min_distance_cap_below_one_rejected(demo_code, cap):
    with pytest.raises(ValueError, match="cap"):
        min_distance(demo_code, cap=cap)


@pytest.mark.parametrize("cap", [1.5, 3.0, "2"])
def test_min_distance_cap_must_be_an_integer(demo_code, cap):
    # both on a fresh code (the scan) and on one with a cached distance
    fresh = LinearCode(demo_code.field, demo_code.G.a)
    with pytest.raises(TypeError):
        min_distance(fresh, cap=cap)
    assert min_distance(fresh) == 3
    with pytest.raises(TypeError):
        min_distance(fresh, cap=cap)
    assert min_distance(fresh, cap=np.int64(2)) == 2


# Each public integer argument of the ideal engine, called on the worked
# code with the integer that `x` makes of a Python int.
INTEGER_ARGUMENTS = {
    "build_ideal": lambda Cw, I, x: build_ideal(Cw, x(2)),
    "IdealPiece.gen_degree": lambda Cw, I, x: IdealPiece(I.field, I.nvars, x(2), I.gens),
    "IdealPiece.nvars": lambda Cw, I, x: IdealPiece(I.field, x(4), 2, I.gens),
    "IdealPiece.piece": lambda Cw, I, x: I.piece(x(3)),
    "hilbert_function": lambda Cw, I, x: hilbert_function(I, x(3)),
    "colon_degree": lambda Cw, I, x: colon_degree(I, x(3)),
    "colon_linear_piece.var": lambda Cw, I, x: colon_linear_piece(I, x(3), 1),
    "colon_linear_piece.u": lambda Cw, I, x: colon_linear_piece(I, 3, x(1)),
    "LinearFormSpace.nvars": lambda Cw, I, x: LinearFormSpace(I.field, x(4), [[1, 0, 1, 1]]),
}


def _plain(result):
    if isinstance(result, IdealPiece):
        return result.gens.tolist()
    if isinstance(result, tuple):
        return tuple(_plain(x) for x in result)
    return result.tolist() if isinstance(result, np.ndarray) else result


@pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_floats(demo_augmented, demo_ideal, entry):
    # A float is refused, not truncated (4.7 would build degree 4), even
    # when integral; a numpy integer is accepted.
    call = INTEGER_ARGUMENTS[entry]
    want = _plain(call(demo_augmented, demo_ideal, int))
    assert _plain(call(demo_augmented, demo_ideal, np.int64)) == want
    for bad in (lambda v: v + 0.7, float, str):
        with pytest.raises(TypeError):
            call(demo_augmented, demo_ideal, bad)


def test_full_rank_pieces_below_min_distance(demo_code):
    # i-fold products are linearly independent in degree i for i up to d
    k, d = demo_code.k, min_distance(demo_code)
    for i in range(1, d + 1):
        expect = checked_binomial(k + i - 1, i, "test")
        assert len(build_ideal(demo_code, i).piece(i)) == expect


def test_colon_degree_small_examples():
    F3 = PrimeField(3)
    # (x^2) : x = (x) in GF(3)[x,y]: one point with multiplicity one
    I = IdealPiece(F3, 2, 2, [[1, 0, 0]])
    assert colon_degree(I, 0) == 1
    # (x,y)^2 : x = (x,y) in GF(2)[x,y,z]
    F2 = PrimeField(2)
    sq = IdealPiece(
        F2, 3, 2, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]]
    )
    assert colon_degree(sq, 0) == 1


def test_colon_degree_demo(demo_code):
    # removing generator row 1 drops the minimal-word count from 4 to 2
    I = build_ideal(demo_code, 4)
    assert colon_degree(I, 0) == 2
    Cj = demo_code.remove_row(0)
    assert ideal_degree(build_ideal(demo_code, 4)) - ideal_degree(build_ideal(Cj, 4)) == 2


def test_colon_linear_piece_demo(demo_ideal):
    space = colon_linear_piece(demo_ideal, 3, 1)
    assert space.dim == 3
    # x, y + T, z + T in GF(2)[x,y,z,T]
    assert space.basis.tolist() == [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
    point = point_from_forms(space)
    assert point.coords.tolist() == [0, 1, 1, 1]


def test_colon_linear_piece_stable_under_higher_powers(demo_ideal):
    # the saturation is reached at the first power; higher powers agree
    assert colon_linear_piece(demo_ideal, 3, 1) == colon_linear_piece(demo_ideal, 3, 2)


def test_colon_linear_piece_rejects_low_power(demo_ideal):
    with pytest.raises(ValueError):
        colon_linear_piece(demo_ideal, 3, 0)


def test_point_from_forms_needs_codimension_one():
    F = PrimeField(2)
    sp = LinearFormSpace(F, 3, [[1, 0, 0]])
    with pytest.raises(NotSinglePointError):
        point_from_forms(sp)


def test_verify_identities_demo(demo_ideal):
    space = colon_linear_piece(demo_ideal, 3, 1)
    assert verify_saturation_identity(demo_ideal, space)
    assert verify_power_containment(demo_ideal, space)


def test_verify_saturation_identity_fails_off_pipeline(demo_ideal):
    # forms of a different point: the identity must come back false
    F = PrimeField(2)
    other = LinearFormSpace(F, 4, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert not verify_saturation_identity(demo_ideal, other)


def test_verify_power_containment_fails_off_pipeline(demo_ideal):
    # the squares of forms of a different point do not vanish at the
    # ideal's point, so they leave its generating piece
    F = PrimeField(2)
    other = LinearFormSpace(F, 4, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert not verify_power_containment(demo_ideal, other)


def test_verify_saturation_identity_is_the_evaluation_test():
    # At every point P of the projective plane over GF(3) the span test
    # agrees with the identity's definition: the generating piece has
    # codimension 1 and all its rows vanish at P.
    F = PrimeField(3)
    points = [
        P for P in itertools.product(range(3), repeat=3)
        if any(P) and P[max(i for i in range(3) if P[i])] == 1
    ]
    rng = np.random.default_rng(29)
    held = 0
    for _ in range(12):
        C = random_code(rng, 3, 2, 6)
        w = rng.integers(0, 3, size=6)
        if C.contains(w)[0]:
            continue
        Cw = C.augment(w)
        I = build_ideal(Cw, min_distance(Cw) + 1)
        rows = I.piece(I.gen_degree)
        exps = monomial_basis(3, I.gen_degree).exponents()
        for P in points:
            space = LinearFormSpace(F, 3, MatrixGF(F, [P]).nullspace())
            vals = np.prod(np.array(P) ** exps, axis=1) % 3
            expect = len(rows) == exps.shape[0] - 1 and not (rows @ vals % 3).any()
            assert verify_saturation_identity(I, space) == expect, (Cw.G.a.tolist(), P)
            held += expect
    assert held >= 3


def test_hilbert_function_stabilizes_at_ideal_degree():
    # the reported degree is the stable value of the Hilbert function
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(20):
        C = random_code(rng, 2, 2, 7)
        w = rng.integers(0, 2, size=7)
        inside, _ = C.contains(w)
        if inside:
            continue
        Cw = C.augment(w)
        dw = min_distance(Cw)
        if dw == 0 or dw >= min_distance(C):
            continue
        I = build_ideal(Cw, dw + 1)
        deg = ideal_degree(I)
        assert deg >= 1
        high = dw + 1 + Cw.k + 4  # past the scan cap, well into the stable range
        assert hilbert_function(I, high) == deg
        assert hilbert_function(I, high + 1) == deg
        checked += 1
    assert checked >= 5


def _product_blocks(forms, s, p, size):
    # The distance scan's product rows of level s, in blocks of `size`:
    # each run of `_stems` made into rows by `_product_rows`, as soon as
    # the run is complete.
    cols = monomial_basis(forms.shape[1], s).size
    forms = list(forms)
    for run in ideals._runs(ideals._stems(forms, s, p), size):
        yield ideals._product_rows(run, forms, s, p, cols)


@pytest.mark.parametrize("p", [2, 3])
def test_product_blocks_are_the_products_of_column_subsets(p):
    # Concatenated blocks equal the products over the column subsets taken
    # by largest column, then lexicographically; every block is a fresh
    # C-contiguous int64 array of `size` rows, the last one possibly shorter.
    # build_ideal's generators are those products in that order.
    rng = np.random.default_rng(100 + p)
    forms = rng.integers(0, p, size=(9, 4))
    C = LinearCode(PrimeField(p), forms.T)
    for s in (1, 3, 9):
        combos = [c + (m,) for m in range(9) for c in itertools.combinations(range(m), s - 1)]
        assert combos == sorted(itertools.combinations(range(9), s), key=lambda c: (c[-1], c))
        want = np.stack([product_of_linear_forms(forms[list(c)], p) for c in combos])
        for size in (1, 64, len(combos)):
            blocks = list(_product_blocks(forms, s, p, size))
            assert [len(b) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
            assert 1 <= len(blocks[-1]) <= size
            for b in blocks:
                assert b.dtype == np.int64 and b.flags.c_contiguous and b.flags.owndata
            assert np.concatenate(blocks).tolist() == want.tolist()
        gens = build_ideal(C, s).gens
        assert gens.dtype == np.int64 and gens.flags.c_contiguous and not gens.flags.writeable
        assert gens.tolist() == want.tolist()
        # The witness search walks the same subsets, multiplied out a factor at a time.
        subsets = list(ideals._subsets(9, s))
        assert subsets == combos
        assert ideals._subset_products(forms[np.array(subsets)], p).tolist() == want.tolist()


def test_product_blocks_compute_no_row_ahead(monkeypatch):
    # A block is yielded as soon as its last row is written: the first
    # subset costs one product per position, and each later row of level
    # 3 of 5 forms costs one product per node of the prefix tree it opens.
    # The largest column is the first factor, so a new largest column
    # opens three nodes.
    calls = []
    real = ideals.multiply_by_form

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(ideals, "multiply_by_form", counting)
    forms = np.eye(5, 3, dtype=np.int64)
    gen = _product_blocks(forms, 3, 2, 1)
    seen = []
    for block in gen:  # (2,0,1) (3,0,1) (3,0,2) (3,1,2) (4,0,1) ...
        seen.append(len(calls))
    assert seen == [3, 6, 7, 9, 12, 13, 14, 16, 17, 19]
    assert calls[:3] == [0, 1, 2]


def test_one_level_multiplies_once_per_prefix(monkeypatch):
    # The prefix tree of the 4-subsets of 14 columns has sum over d = 1..4
    # of C(14-4+d, d) = 11 + 66 + 286 + 1001 = 1,364 nodes, one product each.
    calls = []
    real = ideals.multiply_by_form

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(ideals, "multiply_by_form", counting)
    C = random_code(np.random.default_rng(14), 3, 6, 14)
    I = build_ideal(C, 4)
    assert I.gens.shape == (1001, monomial_basis(6, 4).size)
    assert len(calls) == sum(checked_binomial(10 + d, d) for d in range(1, 5)) == 1364
    assert [calls.count(d) for d in range(4)] == [11, 66, 286, 1001]


# The seeded [14,6,4] GF(3) code of the gf3-channel benchmark workload.
GF3_14_6 = [
    [1, 1, 2, 0, 0, 0, 2, 0, 0, 2, 0, 1, 0, 0],
    [0, 2, 2, 0, 0, 2, 2, 0, 2, 2, 0, 1, 0, 0],
    [1, 2, 2, 2, 1, 0, 2, 1, 1, 0, 2, 0, 1, 0],
    [1, 0, 0, 0, 0, 2, 2, 0, 0, 1, 1, 1, 2, 0],
    [0, 0, 2, 2, 0, 1, 2, 0, 0, 1, 1, 1, 2, 1],
    [0, 0, 0, 1, 1, 2, 0, 0, 2, 1, 1, 2, 1, 2],
]


# A [12,4,5] GF(3) code with three projective minimum-weight codewords.
GF3_12_4 = [
    [0, 0, 2, 2, 2, 0, 1, 2, 2, 1, 1, 1],
    [0, 2, 1, 1, 2, 2, 2, 0, 2, 1, 1, 1],
    [0, 2, 1, 0, 2, 1, 0, 1, 0, 1, 2, 0],
    [2, 1, 0, 0, 0, 0, 0, 2, 1, 0, 2, 1],
]


def _prefix_tree(n, s):
    # Products that level s of n columns costs when every subset is made.
    return sum(checked_binomial(n - s + d, d) for d in range(1, s + 1))


def _spy_short_points(monkeypatch):
    # Record (kernel dimension, short points found) at each reading of a
    # scan level's kernel.
    seen = []
    real = ideals._short_points

    def spying(ker, forms, s, p):
        points = real(ker, forms, s, p)
        seen.append((ker.shape[0], len(points)))
        return points

    monkeypatch.setattr(ideals, "_short_points", spying)
    return seen


def test_distance_scan_agrees_with_the_oracle_on_multi_block_levels(monkeypatch):
    # Levels of 10 to 14 columns run over several 64-row blocks, and the
    # scan settles many of them by reading their kernel once it has at
    # most 64 projective elements, full ones and the last one alike. Such
    # a last level's echelon need not be the whole level, but the
    # distance, the count and, for a count of 1, the point must be those
    # of whole levels.
    decided = _spy_short_points(monkeypatch)
    rng = np.random.default_rng(2025)
    full = short = 0
    for p, ks in ((2, (4, 5, 6)), (3, (3, 4, 5)), (5, (3, 4)), (7, (3,))):
        for _ in range(6):
            C = random_code(rng, p, int(rng.choice(ks)), int(rng.integers(10, 15)))
            decided.clear()
            d = min_distance(C)
            assert d == enumerate_min_distance(C), C.G.a.tolist()
            count = min_weight_count(C)
            assert count == projective_min_weight_count(C), C.G.a.tolist()
            full += sum(found == 0 for _, found in decided)
            short += sum(found > 0 for _, found in decided)
            if count == 1:
                _check_min_weight_point(C)
    assert full >= 10 and short >= 5


def test_scan_stops_a_level_its_kernel_vector_decides(monkeypatch):
    # On the seeded [14,6,4] GF(3) code level 4 (1,001 products, 126
    # columns) is full and level 5 (2,002 products, 252 columns) has count
    # 1. The first block leaves a kernel of at most 64 dimensions (62 and
    # 54), so the rest of each level is paired with it in an echelon of
    # that width. Each is decided at the first block that leaves at most 4
    # kernel dimensions, (3^4 - 1)/2 = 40 projective elements: level 4
    # jumps to 1 there, and level 5 stops at 4, where a whole level would
    # be 1 short. Fewer products are made than the level's prefix tree
    # holds.
    C = LinearCode(PrimeField(3), GF3_14_6)
    made, calls = [], []

    class Recording(kernels.Echelon):
        def __init__(self, cols, p):
            super().__init__(cols, p)
            made.append(self)

    real = ideals.multiply_by_form

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(kernels, "Echelon", Recording)
    monkeypatch.setattr(ideals, "multiply_by_form", counting)
    for s, full, widths, codims in ((4, True, [126, 62], [62, 1]), (5, False, [252, 54], [54, 4])):
        made.clear()
        calls.clear()
        level = ideals._short_level(C.G.a.T, s, 3)
        assert (level is None) == full
        assert [acc.cols for acc in made] == widths
        assert [acc.cols - acc.rank for acc in made] == codims
        assert 0 < len(calls) < _prefix_tree(14, s)
    count, kernel = level
    ker = kernel()
    assert count == 1 and ker.shape == (4, 252)
    assert len(ideals._short_points(ker, C.G.a.T, 5, 3)) == 1
    assert min_distance(C) == 4 and min_weight_count(C) == 1
    _check_min_weight_point(C)


def test_levels_decided_from_a_kernel_of_dimension_two_or_more(monkeypatch):
    # A kernel of c >= 2 dimensions decides its level too: as full when no
    # element reads as a short point, as the last level with count m when
    # m of them do. Cold scans of codes with 10 to 13 columns, and the
    # scans of C^w capped at d that classify words, meet both, with counts
    # of 2 or more; every count, and every ambiguous word's neighbor count,
    # is the oracle's.
    decided = _spy_short_points(monkeypatch)
    rng = np.random.default_rng(11)
    cold, capped = set(), set()
    for p, k, n in ((2, 5, 12), (3, 4, 11), (5, 3, 10), (2, 4, 13)):
        for _ in range(3):
            C = random_code(rng, p, k, n)
            decided.clear()
            assert min_weight_count(C) == projective_min_weight_count(C), C.G.a.tolist()
            cold.update(min(found, 2) for c, found in decided if c >= 2)
            for _ in range(8):
                w = rng.integers(0, p, n)
                decided.clear()
                res = decode(C, w)
                if res.status is DecodeStatus.AMBIGUOUS:
                    d_w, vectors = nearest_neighbors(C, w)
                    assert (res.d_w, res.neighbor_count) == (d_w, vectors.shape[0])
                    capped.update(min(found, 2) for c, found in decided if c >= 2)
    assert {0, 2} <= cold and capped == {0, 2}
    # The [12,4,5] GF(3) code: its level 6 (924 products, 84 columns) is
    # decided from a 4-dimensional kernel holding its 3 short points.
    C = LinearCode(PrimeField(3), GF3_12_4)
    decided.clear()
    assert (min_distance(C), min_weight_count(C)) == (5, 3) == (5, projective_min_weight_count(C))
    assert decided[-1] == (4, 3)


def _spy_quotient(monkeypatch):
    # How the scan decided each level that it finished in the quotient by a
    # kernel, which makes a second echelon, of the kernel's width, or
    # worked wholly there from a kernel it was given: "rank" when the
    # pairings reached that width, "kernel" when a kernel check ran, "rows"
    # when the products ran out. The given-kernel levels, those an
    # augmented code splits over its parent's full level, are also listed
    # apart.
    ways, split, events = [], [], []

    class Recording(kernels.Echelon):
        def __init__(self, cols, p):
            super().__init__(cols, p)
            events.append("echelon")

    real_points, real_level = ideals._short_points, ideals._short_level

    def points(*args):
        events.append("points")
        return real_points(*args)

    def level(forms, s, p, K=None):
        events.clear()
        got = real_level(forms, s, p, K)
        if K is not None or events.count("echelon") == 2:
            ways.append("kernel" if "points" in events else "rank" if got is None else "rows")
            if K is not None:
                split.append(ways[-1])
        return got

    monkeypatch.setattr(kernels, "Echelon", Recording)
    monkeypatch.setattr(ideals, "_short_points", points)
    monkeypatch.setattr(ideals, "_short_level", level)
    return ways, split


def test_levels_finished_in_the_quotient_agree_with_the_oracle(monkeypatch):
    # Levels of 10 to 14 columns span several 64-row blocks, and once a
    # block leaves a kernel of at most 64 dimensions the scan pairs the
    # rest of the level with it. Cold scans and the capped scans of C^w
    # that classify words decide such levels in each of the three ways,
    # and d, the count, the point, every decode's nearest codeword and
    # every ambiguous word's neighbor count are the oracle's.
    ways, _ = _spy_quotient(monkeypatch)
    rng = np.random.default_rng(4242)
    for p, ks in ((2, (4, 5, 6)), (3, (3, 4, 5)), (5, (3, 4)), (7, (3,))):
        for _ in range(6):
            n = int(rng.integers(10, 15))
            C = random_code(rng, p, int(rng.choice(ks)), n)
            d = min_distance(C)
            assert d == enumerate_min_distance(C), C.G.a.tolist()
            count = min_weight_count(C)
            assert count == projective_min_weight_count(C), C.G.a.tolist()
            if count == 1:
                _check_min_weight_point(C)
            for _ in range(4):
                w = rng.integers(0, p, n)
                res = decode(C, w)
                d_w, vectors = nearest_neighbors(C, w)
                if res.status is DecodeStatus.UNCORRECTABLE:
                    assert d_w >= d
                    continue
                assert res.d_w == d_w, (C.G.a.tolist(), w.tolist())
                if res.status is DecodeStatus.AMBIGUOUS:
                    assert res.neighbor_count == vectors.shape[0] > 1
                else:
                    assert vectors.shape[0] == 1 and res.nearest.v.tolist() == vectors[0].tolist()
    assert set(ways) == {"rank", "kernel", "rows"}, ways


def _zero_column_code(rng, p, k, n, at):
    # A random [n+1, k] code over GF(p) whose column `at` is zero.
    C = random_code(rng, p, k, n)
    return LinearCode(C.field, np.insert(C.G.a, at, 0, axis=1))


def test_split_levels_of_augmented_codes_agree_with_the_oracle(monkeypatch):
    # The scan of C^w = C + <w> starts each multi-block level s <= d(C) in
    # the quotient by the kernel of its parent's witnesses. Those levels
    # are decided in each of the three ways; d_w, the count, the point,
    # the nearest codeword and the neighbor count are the oracle's, and
    # the same code without its parent scans to the same d_w. Among the
    # codes is one with a zero column, which most words fill: C^w then has
    # one form more than the parent's scan, and the witnesses are mapped
    # through the column indices.
    ways, split = _spy_quotient(monkeypatch)
    rng = np.random.default_rng(31)
    codes = [
        random_code(rng, p, int(rng.choice(ks)), int(rng.integers(10, 15)))
        for p, ks in ((2, (4, 5, 6)), (3, (3, 4, 5)), (5, (3, 4)), (7, (3,)))
        for _ in range(3)
    ]
    codes.append(_zero_column_code(rng, 3, 4, 11, 3))
    for C in codes:
        d = min_distance(C)
        for _ in range(4):
            w = rng.integers(0, C.field.p, C.n)
            before = len(split)
            res = decode(C, w)
            d_w, vectors = nearest_neighbors(C, w)
            if res.status is DecodeStatus.IN_CODE:
                continue
            Cw = C.augment(w)
            alone = LinearCode(Cw.field, Cw.G.a)  # no parent: every level whole
            assert min_distance(Cw, cap=d) == min_distance(alone, cap=d) == min(d_w, d)
            if C is codes[-1] and w[3]:
                assert len(split) > before  # a split level over the filled zero column
            if res.status is DecodeStatus.UNCORRECTABLE:
                # Uncapped, the scan passes d, where the parent has no full level.
                assert d_w >= d and min_distance(Cw) == enumerate_min_distance(Cw)
                continue
            assert res.d_w == d_w, (C.G.a.tolist(), w.tolist())
            count = min_weight_count(Cw)
            assert count == projective_min_weight_count(Cw) == min_weight_count(alone)
            if count == 1:
                assert _check_min_weight_point(Cw) == min_weight_point(alone)
            if res.status is DecodeStatus.AMBIGUOUS:
                assert res.neighbor_count == vectors.shape[0] == count > 1
            else:
                assert vectors.shape[0] == 1 and res.nearest.v.tolist() == vectors[0].tolist()
    assert set(split) == {"rank", "kernel", "rows"}, split


def test_witnesses_are_the_first_independent_products():
    # On the seeded [14,6,4] GF(3) code level 4 has 126 columns, and only
    # the first 423 of its 1,001 products span it, so the witness search
    # takes two chunks of 252. The witnesses are the products that raise
    # the rank, in _stems order, and B^-1 inverts their matrix. A zero
    # column is skipped, and the witnesses name the code's own columns.
    for G, at in ((GF3_14_6, None), (np.insert(GF3_14_6, 5, 0, axis=1), 5)):
        C = LinearCode(PrimeField(3), G)
        assert min_distance(C) == 4
        cols, Binv = ideals._witnesses(C, 4)
        assert ideals._witnesses(C, 4)[0] is cols  # computed once
        nonzero = [j for j in range(C.n) if j != at]
        acc, greedy = kernels.Echelon(126, 3), []
        for subset in ideals._subsets(14, 4):
            rank = acc.rank
            if acc.insert([product_of_linear_forms(C.G.a.T[[nonzero[j] for j in subset]], 3)]) > rank:
                greedy.append([nonzero[j] for j in subset])
        assert cols.tolist() == greedy and len(greedy) == 126
        last = tuple(nonzero.index(j) for j in greedy[-1])
        assert list(ideals._subsets(14, 4)).index(last) == 422  # product 423
        B = ideals._subset_products(C.G.a.T[cols], 3)
        assert (B @ Binv % 3).tolist() == np.eye(126, dtype=np.int64).tolist()


def test_witness_inverse_times_a_word_part_is_exact(monkeypatch):
    # B^-1 X_w at p = 2039 with residues near p: 40 terms of up to 2038^2
    # pass float32's 2^24, so the product runs in float64, as
    # _float_type(40, 2039) says; forced into float32 it is wrong.
    rng = np.random.default_rng(2039)
    p, m, c = 2039, 40, 12
    Binv = rng.integers(p - 30, p, size=(m, m))
    X = rng.integers(p - 30, p, size=(m, c))
    want = (Binv.astype(object) @ X.astype(object) % p).tolist()
    assert ideals._times(Binv, X, p).tolist() == want
    monkeypatch.setattr(kernels, "_float_type", lambda cols, p: np.float32)
    assert ideals._times(Binv, X, p).tolist() != want


def test_witness_kernel_is_the_kernel_of_the_witness_products():
    # Over GF(2039), K_w has one row per monomial that T divides, with 1
    # there, and the C^w-products of the parent's witnesses vanish on it.
    rng = np.random.default_rng(7)
    C = random_code(rng, 2039, 3, 12)
    assert min_distance(C) >= 3
    w = rng.integers(2000, 2039, 12)
    Cw = C.augment(w)
    for s in (2, 3):
        K = ideals._witness_kernel(Cw, s)
        T = monomial_basis(4, s).exponents()[:, -1] > 0
        assert K.shape == (monomial_basis(4, s - 1).size, monomial_basis(4, s).size)
        assert K[:, T].tolist() == np.eye(len(K), dtype=np.int64).tolist()
        cols, _ = ideals._witnesses(C, s)
        R = np.stack([product_of_linear_forms(Cw.G.a.T[c], 2039) for c in cols])
        assert not (R.astype(object) @ K.T.astype(object) % 2039).any()


def test_a_level_decided_in_its_first_block_reads_no_kernel(demo_code, monkeypatch):
    # The worked code's levels are single blocks: the last one keeps its
    # echelon, and its kernel is computed only when the point is asked for.
    kernel_calls = []
    real = kernels.Echelon.kernel

    def counting(self):
        kernel_calls.append(self.cols)
        return real(self)

    monkeypatch.setattr(kernels.Echelon, "kernel", counting)
    C = LinearCode(demo_code.field, demo_code.G.a)
    assert min_distance(C) == 3 and min_weight_count(C) == 4
    res = decode(C, [0, 1, 1, 1, 0, 0])
    assert res.status is DecodeStatus.CORRECTED and kernel_calls == []


@pytest.mark.parametrize("s", [1, 2, 3])
def test_pairings_with_a_kernel_are_exact(s):
    # Each product's pairing row equals the product's coefficient row times
    # the kernel basis, at p = 2039 in five variables, with residues near p.
    # At s = 1 a stem is the constant 1, and the sums over the five
    # coefficients of the last form pass what float32 holds exactly.
    rng = np.random.default_rng(7 + s)
    p = 2039
    forms = rng.integers(p - 40, p, size=(7, 5))
    K = rng.integers(p - 40, p, size=(3, monomial_basis(5, s).size))
    (products,) = _product_blocks(forms, s, p, 64)
    (run,) = ideals._runs(ideals._stems(list(forms), s, p), 64)
    assert ideals._pairing(K, forms, s, p)(run).tolist() == (products @ K.T % p).tolist()
