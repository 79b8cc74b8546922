"""An oracle that shares no linear algebra with coldec: sympy Groebner bases.

For tiny codes and their augmented codes, the ideal of g-fold products of
column forms is handed to `sympy.groebner` over GF(p) in grevlex order. The
standard monomials of degree m (those divisible by no leading monomial of
the basis) are a basis of (S/I)_m, so counting them gives the Hilbert
function without any of coldec's eliminations. That count must equal
coldec's graded ranks at g and g+1, the degree `ideal_degree` reads off
degree g, and the enumeration oracle's codeword count.
"""

import itertools

import numpy as np
import sympy

from coldec.decoder import classify
from coldec.ideals import build_ideal, hilbert_function, ideal_degree, min_distance
from coldec.oracle import projective_min_weight_count
from coldec.polybasis import monomial_basis
from conftest import random_code
from oracle_helpers import projective_words_of_weight


def groebner_hilbert_function(C, g):
    """m -> dim (S/I)_m for the ideal of g-fold column-form products of C,
    from the leading monomials of a grevlex Groebner basis over GF(p)."""
    xs = sympy.symbols(f"x0:{C.k}")
    forms = [sum(int(a) * x for a, x in zip(col, xs)) for col in C.G.a.T]
    gens = [sympy.Mul(*combo) for combo in itertools.combinations(forms, g)]
    basis = sympy.groebner(gens, *xs, modulus=C.field.p, order="grevlex")
    leading = np.array([f.monoms(order="grevlex")[0] for f in basis.polys], np.int64)

    def value(m):
        monomials = monomial_basis(C.k, m).exponents()
        divisible = (monomials[:, None, :] >= leading[None, :, :]).all(axis=2).any(axis=1)
        return int((~divisible).sum())

    return value


def check_against_groebner(C, g, expected_count):
    I = build_ideal(C, g)
    hf = groebner_hilbert_function(C, g)
    assert hilbert_function(I, g) == hf(g), C.G.a.tolist()
    assert hilbert_function(I, g + 1) == hf(g + 1), C.G.a.tolist()
    # the linear resolution: the Hilbert function is constant from g on
    assert hf(g) == hf(g + 1) == hf(g + C.k + 4)
    assert ideal_degree(I) == hf(g) == expected_count, C.G.a.tolist()
    return expected_count


def test_degree_matches_groebner_basis_on_worked_code(demo_code):
    # four minimum-weight codewords; a word with three nearest codewords
    check_against_groebner(demo_code, 4, 4)
    check_against_groebner(demo_code.augment([1, 1, 0, 1, 0, 0]), 3, 3)


def test_degree_matches_groebner_basis_on_tiny_codes():
    rng = np.random.default_rng(5)
    counts = {"code": [], "augmented": []}
    for _ in range(20):
        p = int(rng.choice([2, 3, 5]))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 7))
        C = random_code(rng, p, k, n)
        d = min_distance(C)
        if d < n:  # a [n,1,n] code has no products of n+1 columns
            count = projective_min_weight_count(C)
            counts["code"].append(check_against_groebner(C, d + 1, count))
        w = rng.integers(0, p, size=n)
        _, _, Cw, d_w = classify(C, w)
        if Cw is not None and d_w is not None:
            count = len(projective_words_of_weight(Cw, d_w))
            counts["augmented"].append(check_against_groebner(Cw, d_w + 1, count))
    assert len(counts["code"]) >= 10 and len(counts["augmented"]) >= 5, counts
    assert max(counts["code"]) > 1 and max(counts["augmented"]) > 1, counts
