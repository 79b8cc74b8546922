"""Exact error correction for linear codes over prime fields.

A received word is corrected by realizing its error as a minimum-weight
codeword of the augmented code and extracting that codeword from the
colon of an ideal of products of linear forms. Every step is exact
arithmetic over GF(p): ranks of graded coefficient matrices, Hilbert
function stabilization, and one column-space preimage.
"""

from .code import AlreadyCodewordError, Codeword, LinearCode, weight
from .decoder import DecodeResult, DecodeStatus, decode, nearest_neighbor_count
from .field import FieldMismatchError, PrimeField, is_prime
from .ideals import (
    IdealPiece,
    LinearFormSpace,
    NotSinglePointError,
    ProjectivePoint,
    StabilizationError,
    build_ideal,
    colon_degree,
    colon_linear_piece,
    graded_piece_rank,
    hilbert_function,
    ideal_degree,
    min_distance,
    point_from_forms,
    verify_power_containment,
    verify_saturation_identity,
)
from .linalg import MatrixGF, preimage_of_colspace, solve
from .oracle import (
    DEFAULT_THRESHOLD,
    OracleThresholdError,
    WeightDistribution,
    count_at_distance,
    enumerate_min_distance,
    nearest_neighbors,
    projective_min_weight_count,
    projective_words_of_weight,
    weight_distribution,
)
from .polybasis import (
    BinomialOverflowError,
    LinearForm,
    MonomialBasis,
    PolyVector,
    monomial_basis,
    multiply,
    multiply_by_form,
    product_of_linear_forms,
)

__version__ = "0.1.0"

__all__ = [
    "AlreadyCodewordError",
    "BinomialOverflowError",
    "Codeword",
    "DecodeResult",
    "DecodeStatus",
    "DEFAULT_THRESHOLD",
    "FieldMismatchError",
    "IdealPiece",
    "LinearCode",
    "LinearForm",
    "LinearFormSpace",
    "MatrixGF",
    "MonomialBasis",
    "NotSinglePointError",
    "OracleThresholdError",
    "PolyVector",
    "PrimeField",
    "ProjectivePoint",
    "StabilizationError",
    "WeightDistribution",
    "build_ideal",
    "colon_degree",
    "colon_linear_piece",
    "count_at_distance",
    "decode",
    "enumerate_min_distance",
    "graded_piece_rank",
    "hilbert_function",
    "ideal_degree",
    "is_prime",
    "min_distance",
    "monomial_basis",
    "multiply",
    "multiply_by_form",
    "nearest_neighbor_count",
    "nearest_neighbors",
    "point_from_forms",
    "preimage_of_colspace",
    "product_of_linear_forms",
    "projective_min_weight_count",
    "projective_words_of_weight",
    "solve",
    "verify_power_containment",
    "verify_saturation_identity",
    "weight",
    "weight_distribution",
]
