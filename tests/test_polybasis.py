"""Monomial bookkeeping and exact polynomial products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldec.field import FieldMismatchError, PrimeField
from coldec.polybasis import (
    BinomialOverflowError,
    LinearForm,
    PolyVector,
    checked_binomial,
    monomial_basis,
    multiply_by_form,
    product_of_linear_forms,
)


def index_of(basis, e) -> int:
    """Position of one exponent vector, through the table index."""
    return int(basis.index([e])[0])


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
    assert tuple(basis.unrank(1)) == (1, 1)


def test_exponents_table_matches_unrank():
    basis = monomial_basis(3, 3)
    table = basis.exponents()
    assert table.shape == (basis.size, 3)
    for i in range(basis.size):
        assert tuple(table[i]) == tuple(basis.unrank(i))
        assert index_of(basis, table[i]) == i
    # table rows all sum to the degree
    assert (table.sum(axis=1) == 3).all()


@pytest.mark.parametrize(
    "nvars,degree", [(1, 0), (1, 4), (2, 0), (2, 5), (4, 0), (4, 6), (6, 3)]
)
def test_exponents_table_is_the_unrank_table(nvars, degree):
    basis = monomial_basis(nvars, degree)
    expect = [basis.unrank(i) for i in range(basis.size)]
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


@given(nvars=st.integers(1, 5), degree=st.integers(0, 6))
@settings(max_examples=60)
def test_rank_unrank_bijection(nvars, degree):
    basis = monomial_basis(nvars, degree)
    seen = set()
    for i in range(basis.size):
        e = tuple(basis.unrank(i))
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
            e = list(basis.unrank(i))
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
            positions[nvars, degree] = {basis.unrank(j): j for j in range(basis.size)}
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


def poly_from_terms(field, nvars, degree, terms):
    basis = monomial_basis(nvars, degree)
    coeffs = np.zeros(basis.size, dtype=np.int64)
    for exps, c in terms.items():
        coeffs[index_of(basis, exps)] = c % field.p
    return PolyVector(field, nvars, degree, coeffs)


def multiply(f: PolyVector, g: PolyVector) -> PolyVector:
    """Reference product of two homogeneous polynomials, term by term."""
    if f.field != g.field:
        raise FieldMismatchError("operands live over different fields")
    if f.nvars != g.nvars:
        raise ValueError("operands use different variable counts")
    p = f.field.p
    out_basis = monomial_basis(f.nvars, f.degree + g.degree)
    bf = monomial_basis(f.nvars, f.degree).exponents()
    bg = monomial_basis(g.nvars, g.degree).exponents()
    out = np.zeros(out_basis.size, np.int64)
    for i in np.nonzero(f.coeffs)[0]:
        for j in np.nonzero(g.coeffs)[0]:
            r = index_of(out_basis, bf[i] + bg[j])
            out[r] = (out[r] + int(f.coeffs[i]) * int(g.coeffs[j])) % p
    return PolyVector(f.field, f.nvars, f.degree + g.degree, out)


def test_multiply_known_product():
    # (x + y)^2 = x^2 + 2xy + y^2 over GF(5)
    F = PrimeField(5)
    f = poly_from_terms(F, 2, 1, {(1, 0): 1, (0, 1): 1})
    sq = multiply(f, f)
    assert sq.degree == 2
    expect = poly_from_terms(F, 2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert sq == expect


def test_multiply_freshman_dream_gf2():
    # (x + y)^2 = x^2 + y^2 over GF(2)
    F = PrimeField(2)
    f = poly_from_terms(F, 2, 1, {(1, 0): 1, (0, 1): 1})
    sq = multiply(f, f)
    expect = poly_from_terms(F, 2, 2, {(2, 0): 1, (0, 2): 1})
    assert sq == expect


def test_products_refuse_operands_over_different_fields():
    f2 = poly_from_terms(PrimeField(2), 2, 1, {(1, 0): 1, (0, 1): 1})
    g3 = poly_from_terms(PrimeField(3), 2, 1, {(1, 0): 1, (0, 1): 2})
    with pytest.raises(FieldMismatchError):
        multiply(f2, g3)
    with pytest.raises(FieldMismatchError):
        multiply_by_form(f2, LinearForm(PrimeField(3), [1, 2]))
    with pytest.raises(FieldMismatchError):
        multiply_by_form(g3, LinearForm(PrimeField(2), [1, 1]))


def test_multiply_by_form_matches_generic_multiply():
    F = PrimeField(7)
    rng = np.random.default_rng(5)
    for _ in range(10):
        deg = int(rng.integers(1, 4))
        basis = monomial_basis(3, deg)
        v = PolyVector(F, 3, deg, rng.integers(0, 7, size=basis.size))
        coeffs = rng.integers(0, 7, size=3)
        form = LinearForm(F, coeffs)
        as_poly = form.as_poly()
        assert multiply_by_form(v, form) == multiply(v, as_poly)
    # every field size up to the largest modulus, degree 0 included, and
    # the zero form, each single-variable form and a full form
    for p in (2, 3, 5, 251, 65521):
        F = PrimeField(p)
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
                    poly = PolyVector(F, nvars, deg, f)
                    for coeffs in forms:
                        form = LinearForm(F, coeffs)
                        assert multiply_by_form(poly, form) == multiply(poly, form.as_poly())


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
    F = PrimeField(2)
    prod = product_of_linear_forms([LinearForm(F, [1, 0]), LinearForm(F, [1, 1])])
    expect = poly_from_terms(F, 2, 2, {(2, 0): 1, (1, 1): 1})
    assert prod == expect


def test_product_of_linear_forms_rejects_empty():
    with pytest.raises(ValueError):
        product_of_linear_forms([])


def test_polyvector_validates_length():
    F = PrimeField(2)
    with pytest.raises(ValueError):
        PolyVector(F, 2, 2, np.zeros(5, dtype=np.int64))  # size is 3


def test_zero_and_one():
    F = PrimeField(3)
    z = PolyVector(F, 2, 2, np.zeros(3, np.int64))
    assert not z.coeffs.any()
    one = PolyVector.one(F, 2)
    assert one.degree == 0 and one.coeffs.any()
    assert not LinearForm(F, [0, 0]).coeffs.any()
