"""Ideals of products of linear forms, handled as graded linear algebra.

A generator matrix column (a_1j, ..., a_kj) dualizes to the linear form
L_j = a_1j x_1 + ... + a_kj x_k. The ideal generated by all products of s
distinct column forms is represented by the coefficient matrix of those
products in the degree-s monomial basis. Every question asked here reduces
to ranks of such matrices:

* the code's minimum distance is the largest s for which the degree-s
  products span the full degree-s space;
* Hilbert function values are codimensions of graded pieces; for an
  ideal of products of linear forms with finitely many projective zeros,
  the value at the generating degree is already the degree (the zero
  set's point count, with multiplicity);
* the colon of the ideal by a variable power, restricted to linear forms,
  is a column-space preimage problem, and for a uniquely decodable word it
  cuts out one projective point carrying the error.

Graded pieces above the generating degree are accumulated iteratively:
the degree-(m+1) piece is spanned by the variable multiples of a cached
echelon basis of the degree-m piece. Ideals here are generated in a single
degree, which makes that iteration exact.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .field import PrimeField, int64_entries
from .linalg import MatrixGF, preimage_of_colspace
from .polybasis import (
    checked_binomial,
    monomial_basis,
    multiply_by_form,
    multiply_rows_by_forms,
    product_of_linear_forms,
)

if TYPE_CHECKING:  # pragma: no cover
    from .code import LinearCode

_BLOCK = 64  # products per block of a scan level

__all__ = [
    "StabilizationError",
    "NotSinglePointError",
    "LinearFormSpace",
    "ProjectivePoint",
    "IdealPiece",
    "build_ideal",
    "min_distance",
    "min_weight_count",
    "min_weight_point",
    "colon_linear_piece",
    "point_from_forms",
    "hilbert_function",
    "ideal_degree",
    "colon_degree",
    "verify_saturation_identity",
    "verify_power_containment",
]


class StabilizationError(RuntimeError):
    """A colon ideal's Hilbert function failed to stabilize below the scan cap."""


class NotSinglePointError(ValueError):
    """A form space expected to cut out one projective point does not."""


class LinearFormSpace:
    """A space of linear forms, stored as a canonical echelon basis."""

    __slots__ = ("field", "nvars", "basis")

    def __init__(self, field: PrimeField, nvars: int, rows):
        nvars = operator.index(nvars)
        rows = int64_entries(rows)
        if rows.ndim != 2 or rows.shape[1] != nvars:
            raise ValueError(
                f"linear forms in {nvars} variables need an (m, {nvars}) table, "
                f"got shape {rows.shape}"
            )
        basis = kernels.rref_array(rows, field.p)[0]
        basis.flags.writeable = False
        self.field = field
        self.nvars = nvars
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearFormSpace):
            return NotImplemented
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and bool(np.array_equal(self.basis, other.basis))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"LinearFormSpace(GF({self.field.p}), nvars={self.nvars}, dim={self.dim})"


class ProjectivePoint:
    """A projective point, normalized so its last nonzero coordinate is 1."""

    __slots__ = ("field", "coords")

    def __init__(self, field: PrimeField, coords):
        arr = field.reduce(coords)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError("projective coordinates must form a nonempty vector")
        nz = np.nonzero(arr)[0]
        if nz.size == 0:
            raise ValueError("the zero vector does not define a projective point")
        scale = field.inv(int(arr[nz[-1]]))
        if scale != 1:
            arr = (arr * scale) % field.p
        arr.flags.writeable = False
        self.field = field
        self.coords = arr

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.field == other.field and bool(np.array_equal(self.coords, other.coords))

    def __hash__(self) -> int:
        return hash((self.field.p, tuple(int(x) for x in self.coords)))

    def __repr__(self) -> str:
        return f"ProjectivePoint(GF({self.field.p}), {self.coords.tolist()})"


class IdealPiece:
    """An ideal generated in one degree, as a generator coefficient matrix.

    `gens` is a read-only int64 array of canonical residues with one row
    per generator in the degree-`gen_degree` monomial basis. A graded piece
    is its echelon rows, and its rank is their count; the pieces are
    cached as they are computed.
    """

    __slots__ = ("field", "nvars", "gen_degree", "gens", "_pieces")

    def __init__(self, field: PrimeField, nvars: int, gen_degree: int, gens):
        gen_degree = operator.index(gen_degree)
        if gen_degree < 1:
            raise ValueError("generators must have degree at least 1")
        size = monomial_basis(nvars, gen_degree).size
        gens = np.ascontiguousarray(field.reduce(gens))
        if gens.ndim != 2 or gens.shape[1] != size:
            raise ValueError(
                f"degree-{gen_degree} generators in {nvars} variables need "
                f"{size} columns, got shape {gens.shape}"
            )
        self._fill(field, operator.index(nvars), gen_degree, gens)

    @classmethod
    def _of_residues(cls, field: PrimeField, nvars: int, gen_degree: int, gens: np.ndarray):
        # An ideal over a fresh C-contiguous int64 array of canonical
        # residues with the right shape, taken over unchecked and uncopied.
        ideal = cls.__new__(cls)
        ideal._fill(field, nvars, gen_degree, gens)
        return ideal

    def _fill(self, field, nvars, gen_degree, gens):
        gens.flags.writeable = False
        self.field = field
        self.nvars = nvars
        self.gen_degree = gen_degree
        self.gens = gens
        self._pieces: dict[int, np.ndarray] = {}

    def piece(self, m: int) -> np.ndarray:
        """Echelon basis rows of the degree-m graded piece; the rank is their count."""
        m = operator.index(m)
        if m < self.gen_degree:
            raise ValueError(
                f"graded piece degree {m} is below the generating degree {self.gen_degree}"
            )
        cached = self._pieces.get(m)
        if cached is not None:
            return cached
        p = self.field.p
        size = monomial_basis(self.nvars, m).size
        acc = kernels.Echelon(size, p)
        if m == self.gen_degree:
            acc.insert(self.gens, consume=True)  # canonical, and only read
        else:
            prev_rows = self.piece(m - 1)
            maps = monomial_basis(self.nvars, m - 1).power_maps(1)
            for v in range(self.nvars):
                block = np.zeros((prev_rows.shape[0], size), np.int64)
                block[:, maps[v]] = prev_rows
                acc.insert(block, consume=True)
        rows, _ = acc.basis_rows()
        self._pieces[m] = rows
        return rows

    def __repr__(self) -> str:
        return (
            f"IdealPiece(GF({self.field.p}), nvars={self.nvars}, "
            f"gen_degree={self.gen_degree}, gens={self.gens.shape[0]})"
        )


def _stems(forms: list, s: int, p: int):
    """The column subsets of s of `forms` (a list of rows), walked as stems.

    A stem is a subset's first s - 1 factors; each is yielded as (g, lo,
    hi), g the stem's product and forms[lo:hi] the last factors that
    complete it, so the subsets of (g, lo, hi) are the hi - lo products g
    L_j. Subsets come by their largest row m, smallest m first, and with
    the same m in lexicographic order of the other s - 1 rows. m is a
    stem's first factor, so the stems of one m share it: the loops run
    over m, an (s-2)-subset `inner` of the rows below m - 1, and then over
    a last row between inner's and m. A stack keeps the products of each
    stem's prefixes; only those from the first position that changed are
    recomputed, so each prefix costs one linear-form multiplication, as
    many as in lexicographic order. For s = 1 one pseudo-stem with the
    empty product runs over every row.
    """
    prefix = [np.ones(1, np.int64)] + [None] * (s - 1)  # product of a stem's first d factors
    if s == 1:
        yield prefix[0], 0, len(forms)
        return
    for m in range(s - 1, len(forms)):
        prefix[1] = multiply_by_form(prefix[0], 0, forms[m], p)
        prev = None
        for inner in itertools.combinations(range(m - 1), s - 2):
            i = 0
            if prev is not None:
                while inner[i] == prev[i]:
                    i += 1
            for d in range(i, s - 2):
                prefix[d + 2] = multiply_by_form(prefix[d + 1], d + 1, forms[inner[d]], p)
            yield prefix[s - 1], (inner[-1] + 1 if inner else 0), m
            prev = inner


def _runs(stems, size: int):
    # The stems' products in runs of `size` (the last one may be shorter):
    # lists of (g, lo, hi), a stem split where a run ends. A run is yielded
    # before the next stem is taken, so no stem is multiplied out ahead.
    run, room = [], size
    for g, lo, hi in stems:
        while hi - lo >= room:
            run.append((g, lo, lo + room))
            yield run
            lo += room
            run, room = [], size
        if lo < hi:
            run.append((g, lo, hi))
            room -= hi - lo
    if run:
        yield run


def _product_rows(run, forms: list, s: int, p: int, cols: int) -> np.ndarray:
    # The coefficient rows of a run's products, one multiplication each, in
    # a fresh C-contiguous int64 array.
    block = np.empty((sum(hi - lo for _, lo, hi in run), cols), np.int64)
    r = 0
    for g, lo, hi in run:
        for j in range(lo, hi):
            block[r] = multiply_by_form(g, s - 1, forms[j], p)
            r += 1
    return block


def build_ideal(C: "LinearCode", s: int) -> IdealPiece:
    """The ideal generated by all products of s distinct column forms of C.

    Generators come one row per column subset, in the order of the
    distance scan (`_stems`): by largest column, smallest first, and with
    the same largest column in lexicographic order of the others.
    """
    s = operator.index(s)
    if not 1 <= s <= C.n:
        raise ValueError(f"product size must satisfy 1 <= s <= {C.n}, got {s}")
    checked_binomial(C.n, s, "generator count")
    p, forms = C.field.p, list(C.G.a.T)
    rows = _product_rows(list(_stems(forms, s, p)), forms, s, p, monomial_basis(C.k, s).size)
    return IdealPiece._of_residues(C.field, C.k, s, rows)


def min_distance(C: "LinearCode", cap: int | None = None) -> int:
    """Minimum distance of a code, by graded ranks of column-form products.

    The distance is the largest s for which the products of s distinct
    column forms span the whole degree-s space; s is probed upward with
    early exit as soon as a piece fills up. Only nonzero columns are
    scanned: a zero coordinate never carries weight, and every product
    through its (zero) form vanishes.

    Each level's product rows are eliminated in blocks of 64, in the
    subset order of `_stems`, and no block is generated after the level is
    decided. It is decided when it fills up, when its rows run out, or
    after a block that leaves, with rows still to come, a kernel of
    dimension c with at most 64 projective elements, (p^c - 1)/(p - 1)
    <= 64 (so only c = 1 at p >= 64). Call a point P short when its
    codeword P G has weight at most s - 1. Every product of s distinct
    forms has a factor vanishing at a short P, so P's evaluation vector
    lies in the kernel, whatever rows are still to come. Each kernel
    element, a combination of the kernel basis with last nonzero
    coefficient 1, is read as a point the way `min_weight_point` reads
    one (see `_short_points`). The levels below are full, so d >= s - 1,
    and a level that is not full has d = s - 1 and exactly HF(s) short
    points, the projective minimum-weight codewords. So if no element
    reads as a short point the level is full, and if m of them do it is
    the last level, with count m.

    Once a block leaves, with rows still to come, a kernel K of c <= 64
    dimensions, one block's width, the rest of the level is worked in the
    quotient by the rows so far. With R those rows and F the rest,
    rank(R + F) = rank R + rank <F, K>: a product adds to the span exactly
    when its pairing with K is nonzero. So each further product is one
    row of c pairings, eliminated in c columns, and made from its stem
    (see `_stems`) by one product per block with K gathered through the
    variable maps, not multiplied out. The level fills up when the
    pairings reach rank c; the kernel check above runs on the level's
    kernel, the pairings' kernel mapped through K; where the rows run
    out, the count is c minus their rank. Full, count and kernel are
    those of the whole level.

    The scan of an augmented code C^w = C + <w> (see `LinearCode.augment`)
    starts each level s <= d(C) of more than one block in the quotient.
    Its forms are L_j + w_j T, and C's level s is full, so some m =
    size_s(C) products of C, the first independent ones in subset order,
    have an invertible matrix B; they are found, with B^-1, once per C
    and level. Their C^w-products R are B at the monomials free of T and
    some X_w at the c_w others, so R has the kernel K_w = (-(B^-1
    X_w)^T | I) of c_w dimensions, and the whole level is eliminated as
    pairings with K_w, in c_w columns instead of size_s(C^w), with the
    same fullness, kernel check and count as above.

    The scan stops at level d+1, the first level that is not full, and
    caches its count HF(d+1) on the code next to d, with what gives the
    level's kernel, computed only when read: the count is the number of
    projective minimum-weight codewords (see `ideal_degree`), and the
    kernel holds the point of `min_weight_point` when that number is 1.
    Where the rows ran out, the count is the level's codimension.

    With an integer `cap` (at least 1) the scan also returns once level
    `cap` is full, so the result is min(d, cap) and no level above `cap` is
    built. The distance and its level are cached on the code only when the
    distance is exact, that is when a level at or below the cap is not
    full.
    """
    if cap is not None:
        cap = operator.index(cap)
        if cap < 1:
            raise ValueError(f"distance cap must be at least 1, got {cap}")
    if C._dmin is not None:
        return C._dmin if cap is None else min(C._dmin, cap)
    p = C.field.p
    forms = C.G.a[:, C.G.a.any(axis=0)].T
    parent = C._parent
    for s in range(1, C.n + 2):  # products of more than n factors cannot span
        K = None
        if parent is not None and s <= (parent._dmin or 0) and math.comb(len(forms), s) > _BLOCK:
            K = _witness_kernel(C, s)
        level = _short_level(forms, s, p, K)
        if level is not None:
            C._min_level = level
            C._dmin = s - 1
            return C._dmin
        if s == cap:  # d >= cap; the exact value is not known, so not cached
            return s
    raise RuntimeError("minimum-distance scan failed to terminate")


def _short_level(forms: np.ndarray, s: int, p: int, K: np.ndarray | None = None):
    # (count, kernel) of level s of the distance scan when that level is
    # not full, else None, with `kernel` a callable giving a basis of the
    # level's kernel; the levels below it must be full. A kernel K of at
    # most _BLOCK dimensions moves the rest of the level into the quotient
    # by the rows so far (see min_distance and _pairing). A K given is the
    # kernel of rows in the level's span, and the level starts there.
    target = monomial_basis(forms.shape[1], s).size
    acc = kernels.Echelon(target, p)
    kernel, pairing = acc.kernel, None
    left = math.comb(forms.shape[0], s)
    form_list = list(forms)  # a list index is cheaper than a fresh view per product
    c = target  # no products at all leave the whole space
    for run in _runs(_stems(form_list, s, p), _BLOCK):
        if K is not None and pairing is None:
            quotient = kernels.Echelon(len(K), p)
            kernel = lambda: quotient.kernel() @ K % p
            pairing = _pairing(K, forms, s, p)
        left -= sum(hi - lo for _, lo, hi in run)
        if pairing is None:
            c = target - acc.insert(_product_rows(run, form_list, s, p, target), consume=True)
        else:
            c = quotient.cols - quotient.insert(pairing(run), consume=True)
        if not c:
            return None
        # c > 6 never qualifies (2^7 - 1 > 64): skip a large p^c
        if left and c <= 6 and (p**c - 1) // (p - 1) <= 64:
            count = len(_short_points(kernel(), forms, s, p))
            return (count, kernel) if count else None
        if left and pairing is None and c <= _BLOCK:
            K = acc.kernel()
    return c, kernel


def _pairing(K: np.ndarray, forms: np.ndarray, s: int, p: int):
    # The pairings <g L_j, K_t> of a run's products with the rows K_t of a
    # degree-s kernel basis, as a function of the run giving a fresh int64
    # array of one row per product. W is K gathered through the maps of
    # the x_v, so one product G @ W over the run's stems gives U_g[v, t] =
    # <g x_v, K_t>, and <g L_j, K_t> = sum_v L_j[v] U_g[v, t]. Those sums
    # have at most max(size_(s-1), nvars) terms, which fixes the float type.
    nvars = forms.shape[1]
    lower = monomial_basis(nvars, s - 1)
    dtype = kernels._float_type(max(lower.size, nvars), p)
    W = K[:, lower.power_maps(1)].transpose(2, 1, 0).reshape(lower.size, -1).astype(dtype)
    F = forms.astype(dtype)

    def pairing(run):
        U = np.array([g for g, _, _ in run], dtype) @ W
        U = kernels._mod(U, p).reshape(len(run), nvars, -1)
        stem = np.repeat(np.arange(len(run)), [hi - lo for _, lo, hi in run])
        last = np.concatenate([np.arange(lo, hi) for _, lo, hi in run])
        return kernels._mod((F[last, None] @ U[stem])[:, 0], p).astype(np.int64)

    return pairing


def _subsets(n: int, s: int):
    # The s-subsets of range(n), as tuples, in the order of _stems.
    return (c + (top,) for top in range(s - 1, n) for c in itertools.combinations(range(top), s - 1))


def _subset_products(forms: np.ndarray, p: int) -> np.ndarray:
    # Row i: the product of the s forms forms[i], an (r, s, nvars) stack.
    g = np.ones((forms.shape[0], 1), np.int64)
    for d in range(forms.shape[1]):
        g = multiply_rows_by_forms(g, d, forms[:, d], p)
    return g


def _witnesses(C: "LinearCode", s: int):
    # (cols, B^-1) of C's full level s, kept on C: cols (m x s) the column
    # indices of the first m = size_s subsets, in _stems order, whose
    # products are independent, and B the matrix of those products. The
    # rref of [P^T | I] over all products P has its pivots in P^T at those
    # subsets and B^-T as its right block E. P^T comes 2m columns Q at a
    # time: the rows of E without a pivot yet are brought to rref in E Q
    # (with their part of E), and the others cleared at the new pivots.
    hit = C._full_levels.get(s)
    if hit is None:
        p, m = C.field.p, monomial_basis(C.k, s).size
        nonzero = np.flatnonzero(C.G.a.any(axis=0))
        subsets, found, E = _subsets(len(nonzero), s), [], np.eye(m, dtype=np.int64)
        while len(found) < m:
            chunk = np.array(list(itertools.islice(subsets, 2 * m)), np.int64).reshape(-1, s)
            if not len(chunk):
                raise RuntimeError(f"level {s} of {C!r} is not full")
            chunk, r = nonzero[chunk], len(found)
            A = _times(E, _subset_products(C.G.a.T[chunk], p).T, p)
            R, _, piv = kernels.rref_array(np.hstack([A[r:], E[r:]]), p)
            new = [c for c in piv if c < len(chunk)]
            E[:r] = (E[:r] - _times(A[:r, new], R[: len(new), len(chunk) :], p)) % p
            E[r:] = R[:, len(chunk) :]
            found += [chunk[c] for c in new]
        hit = C._full_levels[s] = (np.array(found), E.T)
    return hit


def _times(X: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    # X @ Y mod p for int64 residues, as one float product, exact in the
    # type that _float_type picks for the inner dimension.
    dtype = kernels._float_type(X.shape[1], p)
    return kernels._mod(X.astype(dtype) @ Y.astype(dtype), p).astype(np.int64)


def _witness_kernel(Cw: "LinearCode", s: int) -> np.ndarray:
    # K_w = (-(B^-1 X)^T | I), the kernel of the products (B | X) of the
    # parent's witnesses of level s among Cw's forms L_j + w_j T, with X
    # at the columns of the monomials that T divides.
    cols, Binv = _witnesses(Cw._parent, s)
    R = _subset_products(Cw.G.a.T[cols], Cw.field.p)
    T = monomial_basis(Cw.k, s).exponents()[:, -1] > 0
    K = np.zeros((np.count_nonzero(T), T.size), np.int64)
    K[:, ~T] = -_times(Binv, R[:, T], Cw.field.p).T % Cw.field.p
    K[np.arange(len(K)), np.flatnonzero(T)] = 1
    return K


def _short_points(ker: np.ndarray, forms: np.ndarray, s: int, p: int) -> set:
    # The distinct points P, as tuples with last nonzero coordinate 1, whose
    # codeword forms @ P has weight at most s - 1, read off the projective
    # elements of the span of `ker`, a basis of a degree-s kernel. An
    # evaluation vector v = c P^a is read by j, the last index with
    # v[x_j^s] != 0, so P_j != 0, and P_i = v[x_i x_j^(s-1)] = c P_j^(s-1)
    # P_i; only those entries of each element are computed. Elements zero
    # at every x_j^s, as no evaluation vector is, are skipped.
    nvars = forms.shape[1]
    c = ker.shape[0]
    combos = [  # last nonzero coefficient 1: one per projective element
        head + (1,) + (0,) * (c - 1 - i)
        for i in range(c)
        for head in itertools.product(range(p), repeat=i)
    ]
    maps = monomial_basis(nvars, 1).power_maps(s - 1)  # maps[j, i]: x_i x_j^(s-1)
    vs = np.array(combos, np.int64) @ ker[:, maps.ravel()] % p
    vs = vs.reshape(-1, nvars, nvars)
    at = vs[:, np.arange(nvars), np.arange(nvars)] != 0
    P = vs[np.arange(vs.shape[0]), nvars - 1 - np.argmax(at[:, ::-1], axis=1)]
    P = P[at.any(axis=1) & (np.count_nonzero(P @ forms.T % p, axis=1) < s)]
    return {tuple(row * pow(int(row[np.flatnonzero(row)[-1]]), -1, p) % p) for row in P}


def min_weight_count(C: "LinearCode") -> int:
    """Number of projective minimum-weight codewords of C.

    This is the degree of the ideal of (d+1)-fold column-form products,
    HF(d+1), which the distance scan of `min_distance` records when it
    finds d: the number of short points of level d+1's kernel, or that
    level's codimension where its rows ran out, counted in the quotient
    by a kernel when the level ended there. A distance supplied
    without a scan leaves no count and raises ValueError: the codes that
    need one are too large to build level d+1 for.
    """
    min_distance(C)
    level = C._min_level
    if level is None:
        raise ValueError("no count was recorded: the distance was supplied")
    return level[0]


def min_weight_point(C: "LinearCode") -> ProjectivePoint:
    """The message of the single projective minimum-weight codeword of C.

    Requires a count of 1 (see `min_weight_count`); raises ValueError
    otherwise. The ideal of (d+1)-fold column-form products then has one
    projective zero P, the point whose codeword P G has weight d. Its
    evaluation vector v[x^a] = c P^a lies in the kernel of the level the
    distance scan stopped at, and P_i = v[x_i x_j^d] for any j with
    v[x_j^(d+1)] != 0: the colon of the level by x_j^d, read off by
    duality. That kernel, the echelon's own or the pairings' kernel mapped
    through the kernel of a level finished in the quotient (see
    `min_distance`), is computed only here, when the point is asked for;
    its at most 64 projective elements are read, and P is the one that
    reads as a short point.
    """
    count = min_weight_count(C)
    if count != 1:
        raise ValueError(f"{count} projective minimum-weight codewords, not one")
    kernel = C._min_level[1]()
    (P,) = _short_points(kernel, C.G.a.T, C._dmin + 1, C.field.p)  # a zero column adds no weight
    return ProjectivePoint(C.field, P)


def hilbert_function(ideal: IdealPiece, m: int) -> int:
    """dim (S/I)_m, the codimension of the degree-m piece."""
    m = operator.index(m)
    if m < 0:
        raise ValueError("degree must be nonnegative")
    size = monomial_basis(ideal.nvars, m).size
    if m < ideal.gen_degree:
        return size
    return size - len(ideal.piece(m))


def ideal_degree(ideal: IdealPiece) -> int:
    """Degree of the zero scheme, read off the generating piece: HF(g).

    Precondition: the ideal is generated by g-fold products of linear forms
    and has finitely many projective zeros. Such an ideal has a linear free
    resolution (Anzis, Garrousian, Tohaneanu, "Generalized star
    configurations and the Tutte polynomial", J. Algebraic Combin. 2017),
    so reg(S/I) = g - 1, and the Hilbert function equals the (constant)
    Hilbert polynomial from degree reg(S/I) + 1 = g on. For the ideal of
    (d+1)-fold column-form products this counts the projective
    minimum-weight codewords. The precondition is not checked; an ideal
    outside it gets HF(g), which is then not its degree.
    """
    return hilbert_function(ideal, ideal.gen_degree)


def colon_degree(ideal: IdealPiece, var: int) -> int:
    """Degree of the colon ideal (I : x_var), by its stabilized Hilbert values.

    The degree-m piece of the colon is {f in S_m : f * x_var in I}; via the
    injective multiplication map its dimension equals rank (I)_{m+1} minus
    the rank of the piece projected onto the monomials not divisible by
    x_var. The colon is not an ideal of products of linear forms, so its
    Hilbert function is scanned until two consecutive values agree. The
    scan starts at gen_degree - 1 (the colon piece is zero below), is
    capped at gen_degree + nvars + 4, and raises StabilizationError when
    it has not stabilized by then.
    """
    var = operator.index(var)
    if not 0 <= var < ideal.nvars:
        raise ValueError(f"variable index {var} out of range")
    cap = ideal.gen_degree + ideal.nvars + 4
    prev = None
    for m in range(max(ideal.gen_degree - 1, 0), cap + 1):
        rows = ideal.piece(m + 1)
        exps = monomial_basis(ideal.nvars, m + 1).exponents()
        nondiv = np.nonzero(exps[:, var] == 0)[0]
        colon_dim = len(rows) - kernels.rank_of_rows(rows[:, nondiv], ideal.field.p)
        value = monomial_basis(ideal.nvars, m).size - colon_dim
        if value == prev:
            return value
        prev = value
    raise StabilizationError(
        f"Hilbert function failed to stabilize by degree {cap}; the zero "
        "set looks positive-dimensional or a graded piece is wrong"
    )


def _degree_mismatch(var: int, u: int, gen_degree: int) -> ValueError:
    # A colon by x_var**u posed below the generating degree; `decode`
    # raises it too, for a colon power under d_w, before building an ideal.
    return ValueError(
        f"degree mismatch: forms times x_{var}^{u} land in degree {u + 1}, "
        f"below the generating degree {gen_degree}"
    )


def colon_linear_piece(ideal: IdealPiece, var: int, u: int) -> LinearFormSpace:
    """Linear forms L with L * x_var**u inside the ideal's graded piece.

    Requires u >= gen_degree - 1 so the membership happens in a nonzero
    piece (below that the answer is trivially zero). The defining
    condition is a column-space preimage: the candidate L ranges over
    degree-1 coefficient vectors, x_var**u times L is a fixed injective
    index map, and membership is against the degree-(u+1) piece.
    """
    var = operator.index(var)
    u = operator.index(u)
    if not 0 <= var < ideal.nvars:
        raise ValueError(f"variable index {var} out of range")
    if u < ideal.gen_degree - 1:
        raise _degree_mismatch(var, u, ideal.gen_degree)
    rows = ideal.piece(u + 1)
    targets = monomial_basis(ideal.nvars, 1).power_maps(u)[var]
    b = np.zeros((rows.shape[1], ideal.nvars), np.int64)
    b[targets, np.arange(ideal.nvars)] = 1
    basis = preimage_of_colspace(ideal.field, rows.T, b)
    return LinearFormSpace(ideal.field, ideal.nvars, basis)


def point_from_forms(space: LinearFormSpace) -> ProjectivePoint:
    """The single projective point cut out by a codimension-1 form space."""
    if space.dim != space.nvars - 1:
        raise NotSinglePointError(
            f"a form space of dimension {space.dim} in {space.nvars} variables "
            "does not cut out a single point"
        )
    ns = MatrixGF(space.field, space.basis).nullspace()
    return ProjectivePoint(space.field, ns[0])


def _inside(basis: np.ndarray, rows: np.ndarray, p: int) -> bool:
    """Whether every row lies in the span of the rows of `basis`."""
    acc = kernels.Echelon(basis.shape[1], p)
    acc.insert(basis)
    return not acc.reduce(rows).any()


def verify_saturation_identity(ideal: IdealPiece, space: LinearFormSpace) -> bool:
    """Check that the ideal's generating piece equals the point ideal's piece.

    `space` must cut out a single projective point P. Its forms generate
    the homogeneous vanishing ideal of P, whose degree-g piece (g =
    gen_degree) is spanned by the degree-(g-1) multiples of those forms
    and has codimension exactly 1. The check is two-sided: the ideal's
    generating piece must have that rank and lie inside that piece, which
    together force equality of the two pieces.
    """
    if space.field != ideal.field or space.nvars != ideal.nvars:
        raise ValueError("form space and ideal live in different rings")
    if space.dim != ideal.nvars - 1:
        raise ValueError("the form space must cut out a single projective point")
    g = ideal.gen_degree
    rows = ideal.piece(g)
    if len(rows) != monomial_basis(ideal.nvars, g).size - 1:
        return False
    point_piece = IdealPiece(space.field, space.nvars, 1, space.basis).piece(g)
    return _inside(point_piece, rows, ideal.field.p)


def verify_power_containment(ideal: IdealPiece, space: LinearFormSpace) -> bool:
    """Check that every gen_degree-fold product of the space's basis forms
    lies in the ideal's generating piece.

    This is the piece-level containment of the point ideal's power: with g
    = gen_degree, all products of g basis forms (repetition allowed) must
    lie in the span of the ideal's degree-g piece, the same span test
    `verify_saturation_identity` makes.
    """
    if space.field != ideal.field or space.nvars != ideal.nvars:
        raise ValueError("form space and ideal live in different rings")
    g = ideal.gen_degree
    rows = ideal.piece(g)
    products = [
        product_of_linear_forms(combo, ideal.field.p)
        for combo in itertools.combinations_with_replacement(space.basis, g)
    ]
    return not products or _inside(rows, np.stack(products), ideal.field.p)
