"""Exact error correction for linear codes over prime fields.

A received word is corrected by realizing its error as a minimum-weight
codeword of the augmented code and extracting that codeword from the
colon of an ideal of products of linear forms. Every step is exact
arithmetic over GF(p): ranks of graded coefficient matrices, a Hilbert
function value read at the generating degree, and one column-space
preimage.

The package exports the decoding API; the layers under it are importable
from their modules (`coldec.ideals`, `coldec.oracle`, `coldec.polybasis`,
...).
"""

from .code import LinearCode
from .decoder import DecodeResult, DecodeStatus, decode
from .field import PrimeField
from .ideals import min_distance

__version__ = "0.1.0"

__all__ = [
    "DecodeResult",
    "DecodeStatus",
    "LinearCode",
    "PrimeField",
    "decode",
    "min_distance",
]
