"""Monomial bookkeeping and exact polynomial products."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldec import kernels
from coldec.code import LinearCode
from coldec.field import PrimeField
from coldec.ideals import build_ideal
from coldec.polybasis import (
    BinomialOverflowError,
    MonomialBasis,
    checked_binomial,
    monomial_basis,
    multiply_by_form,
    product_of_linear_forms,
)


def index_of(basis, e) -> int:
    """Position of one exponent vector, through the table index."""
    return int(basis.index([e])[0])


def unrank(basis, i: int) -> tuple:
    """Exponent vector at basis position i: the loop reference that the
    table `exponents` and the closed form of `index` are checked against.
    The vectors with first exponent a come in one block of C(r-a+t-1, t-1)
    positions, a = r first, for r the degree left and t the variables
    still to fill after this one."""
    assert 0 <= i < basis.size
    rem = basis.degree
    out = []
    for t in range(basis.nvars - 1, 0, -1):
        for a in range(rem, -1, -1):
            block = math.comb(rem - a + t - 1, t - 1)
            if i < block:
                out.append(a)
                rem -= a
                break
            i -= block
    out.append(rem)
    return tuple(out)


def test_checked_binomial_values():
    assert checked_binomial(5, 2, "test") == 10
    assert checked_binomial(0, 0, "test") == 1
    assert checked_binomial(3, 5, "test") == 0
    assert checked_binomial(-1, 2, "test") == 0


def test_checked_binomial_overflow():
    with pytest.raises(BinomialOverflowError):
        checked_binomial(1000, 500, "test")


def test_basis_size_is_stars_and_bars():
    assert monomial_basis(3, 2).size == 6  # C(4,2)
    assert monomial_basis(4, 3).size == 20  # C(6,3)
    assert monomial_basis(1, 5).size == 1
    assert monomial_basis(2, 0).size == 1


def test_graded_order_two_vars():
    # degree-2 monomials in (x, y), largest lexicographically first
    basis = monomial_basis(2, 2)
    assert index_of(basis, (2, 0)) == 0
    assert index_of(basis, (1, 1)) == 1
    assert index_of(basis, (0, 2)) == 2
    assert tuple(unrank(basis, 1)) == (1, 1)


def test_exponents_table_matches_unrank():
    basis = monomial_basis(3, 3)
    table = basis.exponents()
    assert table.shape == (basis.size, 3)
    for i in range(basis.size):
        assert tuple(table[i]) == tuple(unrank(basis, i))
        assert index_of(basis, table[i]) == i
    # table rows all sum to the degree
    assert (table.sum(axis=1) == 3).all()


@pytest.mark.parametrize(
    "nvars,degree", [(1, 0), (1, 4), (2, 0), (2, 5), (4, 0), (4, 6), (6, 3)]
)
def test_exponents_table_is_the_unrank_table(nvars, degree):
    basis = monomial_basis(nvars, degree)
    expect = [unrank(basis, i) for i in range(basis.size)]
    table = basis.exponents()
    assert table.dtype == np.int64 and table.shape == (basis.size, nvars)
    assert [tuple(row) for row in table.tolist()] == expect
    assert not table.flags.writeable


def test_rank_validates_input():
    basis = monomial_basis(2, 2)
    with pytest.raises(ValueError):
        index_of(basis, (1, 0))  # wrong total degree
    with pytest.raises(ValueError):
        index_of(basis, (-1, 3))
    with pytest.raises(ValueError):
        index_of(basis, (1, 1, 0))
    with pytest.raises(ValueError):  # not truncated to (1, 1)
        index_of(basis, (1.5, 1.5))
    assert basis.index([[1.0, 1.0], [True, True]]).tolist() == [1, 1]


@given(nvars=st.integers(1, 5), degree=st.integers(0, 6))
@settings(max_examples=60)
def test_rank_unrank_bijection(nvars, degree):
    basis = monomial_basis(nvars, degree)
    seen = set()
    for i in range(basis.size):
        e = tuple(unrank(basis, i))
        assert index_of(basis, e) == i
        seen.add(e)
    assert len(seen) == basis.size


def test_mult_map_is_multiplication_by_variable():
    basis = monomial_basis(3, 2)
    up = monomial_basis(3, 3)
    maps = basis.power_maps(1)
    assert maps.shape == (3, basis.size)
    for var in range(3):
        idx = maps[var]
        for i in range(basis.size):
            e = list(unrank(basis, i))
            e[var] += 1
            assert index_of(up, e) == idx[i]
        assert len(set(idx.tolist())) == basis.size  # injective


def test_power_map_shifts_by_u():
    basis = monomial_basis(2, 1)
    idx = basis.power_maps(3)[1]  # multiply by y^3, degree 1 -> 4
    up = monomial_basis(2, 4)
    assert [index_of(up, (1, 3)), index_of(up, (0, 4))] == idx.tolist()


def test_index_and_power_maps_agree_with_unrank():
    # unrank is the loop reference; index and the maps share one closed form
    positions = {}

    def position(nvars, degree):
        if (nvars, degree) not in positions:
            basis = monomial_basis(nvars, degree)
            positions[nvars, degree] = {unrank(basis, j): j for j in range(basis.size)}
        return positions[nvars, degree]

    for nvars in range(1, 9):
        for degree in range(7):
            basis = monomial_basis(nvars, degree)
            exps = basis.exponents()
            assert basis.index(exps).tolist() == list(range(basis.size))
            for u in range(1, 4):
                maps = basis.power_maps(u)
                assert maps.shape == (nvars, basis.size) and not maps.flags.writeable
                up = position(nvars, degree + u)
                for v in range(nvars):
                    shifted = exps.copy()
                    shifted[:, v] += u
                    assert maps[v].tolist() == [up[tuple(e)] for e in shifted.tolist()]
    with pytest.raises(ValueError):
        monomial_basis(2, 1).power_maps(-1)
    with pytest.raises(ValueError):
        monomial_basis(2, 2).index([[2, 0], [1, 0]])  # second row has degree 1
    with pytest.raises(ValueError):
        monomial_basis(2, 2).index([[3, -1]])
    with pytest.raises(ValueError):
        monomial_basis(2, 2).index([[1, 1, 0], [0, 1, 1]])  # three variables


def poly_from_terms(p, nvars, degree, terms):
    basis = monomial_basis(nvars, degree)
    coeffs = np.zeros(basis.size, dtype=np.int64)
    for exps, c in terms.items():
        coeffs[index_of(basis, exps)] = c % p
    return coeffs


def multiply(f, f_degree, g, g_degree, nvars, p):
    """Reference product of two homogeneous coefficient arrays, term by term."""
    out_basis = monomial_basis(nvars, f_degree + g_degree)
    bf = monomial_basis(nvars, f_degree).exponents()
    bg = monomial_basis(nvars, g_degree).exponents()
    out = np.zeros(out_basis.size, np.int64)
    for i in np.nonzero(f)[0]:
        for j in np.nonzero(g)[0]:
            r = index_of(out_basis, bf[i] + bg[j])
            out[r] = (out[r] + int(f[i]) * int(g[j])) % p
    return out


def test_multiply_known_product():
    # (x + y)^2 = x^2 + 2xy + y^2 over GF(5)
    f = poly_from_terms(5, 2, 1, {(1, 0): 1, (0, 1): 1})
    sq = multiply(f, 1, f, 1, 2, 5)
    expect = poly_from_terms(5, 2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert sq.tolist() == expect.tolist()


def test_multiply_freshman_dream_gf2():
    # (x + y)^2 = x^2 + y^2 over GF(2)
    f = poly_from_terms(2, 2, 1, {(1, 0): 1, (0, 1): 1})
    sq = multiply(f, 1, f, 1, 2, 2)
    expect = poly_from_terms(2, 2, 2, {(2, 0): 1, (0, 2): 1})
    assert sq.tolist() == expect.tolist()


def test_multiply_by_form_matches_generic_multiply():
    rng = np.random.default_rng(5)
    for _ in range(10):
        deg = int(rng.integers(1, 4))
        v = rng.integers(0, 7, size=monomial_basis(3, deg).size)
        form = rng.integers(0, 7, size=3)
        got = multiply_by_form(v, deg, form, 7)
        assert got.dtype == np.int64
        assert got.tolist() == multiply(v, deg, form, 1, 3, 7).tolist()
    # every field size up to the largest modulus, degree 0 included, and
    # the zero form, each single-variable form and a full form
    for p in (2, 3, 5, 251, 65521):
        for nvars in range(1, 6):
            forms = [np.zeros(nvars, np.int64)]
            for v in range(nvars):
                single = np.zeros(nvars, np.int64)
                single[v] = p - 1
                forms.append(single)
            forms.append(rng.integers(0, p, size=nvars))
            forms.append(np.full(nvars, p - 1))
            for deg in range(5):
                size = monomial_basis(nvars, deg).size
                for f in (rng.integers(0, p, size=size), np.full(size, p - 1)):
                    for form in forms:
                        want = multiply(f, deg, form, 1, nvars, p)
                        assert multiply_by_form(f, deg, form, p).tolist() == want.tolist()


def test_multiply_by_form_validates_length():
    with pytest.raises(ValueError):
        multiply_by_form(np.zeros(5, np.int64), 2, np.array([1, 1]), 2)  # size is 3


def test_multiply_by_form_refuses_fractions():
    with pytest.raises(ValueError):  # not the float array [0.5, 1.5, 1.0]
        multiply_by_form(np.array([1, 1]), 1, np.array([0.5, 1.0]), 5)
    with pytest.raises(ValueError):
        multiply_by_form(np.array([0.5, 1.0]), 1, np.array([1, 1]), 5)
    want = multiply_by_form(np.array([1, 1]), 1, np.array([1, 1]), 5)
    for f, form in (([1, 1], [1.0, 1.0]), ([1.0, 6.0], [6, 1]), ([1, 1], [True, True])):
        got = multiply_by_form(np.array(f), 1, np.array(form), 5)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist() == [1, 2, 1]


def test_divisor_maps_invert_the_variable_maps():
    for nvars in range(1, 6):
        for degree in range(1, 6):
            basis = monomial_basis(nvars, degree)
            lower = monomial_basis(nvars, degree - 1)
            inv = basis.divisor_maps()
            assert inv.shape == (nvars, basis.size) and inv.dtype == np.int64
            assert not inv.flags.writeable
            assert basis.divisor_maps() is inv
            maps = lower.power_maps(1)
            exps = basis.exponents()
            for v in range(nvars):
                assert inv[v][maps[v]].tolist() == list(range(lower.size))
                sentinel = inv[v] == lower.size
                assert sentinel.tolist() == (exps[:, v] == 0).tolist()
    with pytest.raises(ValueError):
        monomial_basis(3, 0).divisor_maps()


def test_product_of_linear_forms_demo():
    # x * (x + y) = x^2 + xy over GF(2)
    prod = product_of_linear_forms([[1, 0], [1, 1]], 2)
    expect = poly_from_terms(2, 2, 2, {(2, 0): 1, (1, 1): 1})
    assert prod.tolist() == expect.tolist()
    # one form is its own product
    assert product_of_linear_forms([[4, 1]], 3).tolist() == [1, 1]


def test_product_of_linear_forms_refuses_fractions():
    with pytest.raises(ValueError):  # not truncated to [[1, 2], [1, 1]]
        product_of_linear_forms([[1.5, 2.9], [1, 1]], 5)
    as_ints = product_of_linear_forms([[1, 2], [1, 0]], 5)
    assert product_of_linear_forms([[1.0, 2.0], [True, False]], 5).tolist() == as_ints.tolist()


def test_product_of_linear_forms_rejects_empty():
    with pytest.raises(ValueError):
        product_of_linear_forms([], 2)
    with pytest.raises(ValueError):
        product_of_linear_forms(np.zeros((0, 2), np.int64), 2)


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_build_ideal_rows_are_products_of_column_subsets(p):
    # row i of build_ideal(C, s) is the product of the columns in the i-th
    # s-subset, subsets ordered by largest column and then
    # lexicographically, for every s in 1..n
    rng = np.random.default_rng(p)
    F = PrimeField(p)
    for k, n in ((1, 3), (2, 5), (3, 6)):
        while True:
            G = rng.integers(0, p, size=(k, n))
            if kernels.rank_of_rows(G, p) == k:
                break
        C = LinearCode(F, G)
        cols = C.G.a.T
        for s in range(1, n + 1):
            gens = build_ideal(C, s).gens
            combos = sorted(itertools.combinations(range(n), s), key=lambda c: (c[-1], c))
            assert gens.shape == (len(combos), monomial_basis(k, s).size)
            for row, combo in zip(gens, combos):
                want = np.ones(1, np.int64)
                for degree, j in enumerate(combo):
                    want = multiply(want, degree, cols[j], 1, k, p)
                assert row.tolist() == want.tolist()
                assert product_of_linear_forms(cols[list(combo)], p).tolist() == want.tolist()


# Each integer argument of a monomial basis, with the integer that `x`
# makes of a Python int; every call builds a fresh basis, so no cached
# basis or map answers in its place.
INTEGER_ARGUMENTS = {
    "MonomialBasis.nvars": lambda x: MonomialBasis(x(3), 2).exponents().tolist(),
    "MonomialBasis.degree": lambda x: MonomialBasis(3, x(2)).exponents().tolist(),
    "MonomialBasis.power_maps": lambda x: MonomialBasis(3, 2).power_maps(x(2)).tolist(),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_floats(entry):
    # A float is refused, not truncated (power_maps(2.7) would shift by
    # 2), even when integral; a numpy integer is accepted.
    call = INTEGER_ARGUMENTS[entry]
    want = call(int)
    assert call(np.int64) == want
    for bad in (lambda v: v + 0.7, float, str):
        with pytest.raises(TypeError):
            call(bad)


def test_cached_basis_refuses_floats_whatever_ran_before():
    # An integral float is refused on a cold cache, and still refused once
    # the equal int has cached its basis.
    monomial_basis.cache_clear()
    with pytest.raises(TypeError):
        monomial_basis(3.0, 2)
    basis = monomial_basis(3, 2)
    for args in ((3.0, 2), (3, 2.0)):
        with pytest.raises(TypeError):
            monomial_basis(*args)
    assert monomial_basis(3, 2) is basis


def test_product_table_refuses_a_float_degree_after_an_int_call():
    # multiply_by_form's cached per-(nvars, degree) table is typed too: a
    # float degree never finds the table the equal int cached.
    f, form = np.array([1, 2, 0]), np.array([1, 1, 2])
    want = multiply_by_form(f, 1, form, 3)
    with pytest.raises(TypeError):
        multiply_by_form(f, 1.0, form, 3)
    assert multiply_by_form(f, np.int64(1), form, 3).tolist() == want.tolist()


# Each polynomial helper, with the modulus it is given.
MODULUS_CALLS = {
    "multiply_by_form": lambda p: multiply_by_form(np.array([1, 1]), 1, np.array([1, 2]), p),
    "product_of_linear_forms": lambda p: product_of_linear_forms([[1, 1], [1, 2]], p),
}


@pytest.mark.parametrize("entry", sorted(MODULUS_CALLS))
def test_polynomial_helpers_validate_the_modulus(entry):
    # A float modulus is refused, not used as a float (product_of_linear_forms
    # would return float64 residues), and one below 2 has no field.
    call = MODULUS_CALLS[entry]
    assert call(np.int64(3)).tolist() == call(3).tolist() == [1, 0, 2]
    for bad in (3.0, 3.5):
        with pytest.raises(TypeError):
            call(bad)
    for bad in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            call(bad)
