"""End-to-end decoding through colon ideals.

A received word w either lies in the code, or its nearest codewords
correspond one-to-one to the projective minimum-weight codewords of the
augmented code that use the appended row. When that nearest codeword is
unique, the colon of the product ideal by a power of the last variable
cuts out a single projective point whose affine representative spells out
the error vector, and the decoder never searches anything: every step is
a rank computation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .code import Codeword, LinearCode, weight
from .ideals import (
    ProjectivePoint,
    _degree_mismatch,
    build_ideal,
    colon_linear_piece,
    min_distance,
    min_weight_count,
    min_weight_point,
    point_from_forms,
)

__all__ = ["DecodeStatus", "DecodeResult", "classify", "decode"]


class DecodeStatus(str, Enum):
    """How a word decoded; the value is its form in JSON and CSV output."""

    IN_CODE = "in_code"
    CORRECTED = "corrected"
    AMBIGUOUS = "ambiguous"
    UNCORRECTABLE = "uncorrectable"

    def __str__(self) -> str:  # keep printed form equal to the wire form
        return self.value


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one received word.

    Fields beyond `status` and `d` are populated when they are defined:
    coset weight `d_w` once the word is classified, `error`, `nearest`,
    `message`, `point` and `colon_power` for a unique correction (and for
    words already in the code, with a zero error), `neighbor_count` when
    the nearest codeword is ambiguous.
    """

    status: DecodeStatus
    d: int
    d_w: int | None = None
    error: np.ndarray | None = None
    nearest: Codeword | None = None
    message: np.ndarray | None = None
    neighbor_count: int | None = None
    point: ProjectivePoint | None = None
    colon_power: int | None = None


def classify(C: LinearCode, w: np.ndarray):
    """Coset classification of a validated word: (d, message, C^w, d_w).

    A codeword gives its message, d_w = 0 and no augmented code. Otherwise
    the message is None, C^w is the code augmented by w, and d_w is the
    minimum distance of C^w, or None when that reaches d (the coset weight
    is then d or more).

    C is a subcode of C^w, so d(C^w) <= d, and only whether it falls below
    d matters: the scan of C^w stops at level d and never builds the
    products of level d+1.
    """
    d = min_distance(C)
    inside, msg = C.contains(w)
    if inside:
        return d, msg, None, 0
    Cw = C.augment(w)
    d_w = min_distance(Cw, cap=d)
    return d, None, Cw, (d_w if d_w < d else None)


def decode(C: LinearCode, w, colon_power: int | None = None) -> DecodeResult:
    """Decode a received word against C.

    Classification: words in the code come back as in_code; otherwise the
    coset weight d_w is the minimum distance of the augmented code when
    that drops below d, and d_w within the unique-decoding radius (or a
    degree-1 product ideal beyond it) yields corrected with the exact
    error vector. Degree > 1 is ambiguous (count reported, no extraction);
    coset weight d or larger is uncorrectable. The degree is the count of
    projective minimum-weight codewords of C^w, which the distance scan of
    classification recorded, so an ambiguous word builds no ideal. The
    scan may have counted short points in a kernel of at most 64
    projective elements, before the level was whole, or finished the
    level in the quotient by a kernel of at most 64 dimensions, pairing
    each remaining product with it. Each level s <= d of C^w of more than
    one block is paired from its start, with the kernel of the
    C^w-products of the products that span C's level s (see
    `min_distance`).

    Extraction reads the point off the colon of the product ideal by
    T^u. The colon has saturated from u = d_w on, so every u >= d_w cuts
    out the same point; `colon_power` only sets the reported u (d_w by
    default). A negative u raises ValueError for every word, before
    classification; a u from 0 to d_w - 1 raises it only where a point is
    extracted. Within the radius the colon is taken at d_w, and its linear
    piece must have dimension k, the point ideal's. Beyond it the point is
    read off the kernel of the scan's last level, which gave the count 1
    (`min_weight_point`): of that kernel's at most 64 projective elements,
    the one that reads as the point of a weight-d_w codeword of C^w. That
    kernel is computed only then, and no ideal is built there either.
    """
    w = C._vector(w, C.n, "received word")
    if colon_power is not None:
        colon_power = operator.index(colon_power)
        if colon_power < 0:
            raise ValueError(f"the colon power must be 0 or more, not {colon_power}")
    p = C.field.p
    d, msg, Cw, d_w = classify(C, w)
    if msg is not None:
        return DecodeResult(
            status=DecodeStatus.IN_CODE,
            d=d,
            d_w=0,
            error=np.zeros(C.n, np.int64),
            nearest=Codeword(v=w.copy(), message=msg),
            message=msg,
        )
    if d_w is None:
        return DecodeResult(status=DecodeStatus.UNCORRECTABLE, d=d)
    beyond = d_w > (d - 1) // 2
    if beyond:
        count = min_weight_count(Cw)
        if count > 1:
            return DecodeResult(
                status=DecodeStatus.AMBIGUOUS, d=d, d_w=d_w, neighbor_count=count
            )
    u = d_w if colon_power is None else colon_power
    if u < d_w:
        raise _degree_mismatch(C.k, u, d_w + 1)
    if beyond:
        point = min_weight_point(Cw)
    else:
        space = colon_linear_piece(build_ideal(Cw, d_w + 1), C.k, d_w)
        if space.dim != C.k:
            raise RuntimeError(
                f"colon power {d_w} leaves a form space of dimension {space.dim}, "
                f"expected {C.k}; the unique-neighbor hypothesis is violated"
            )
        point = point_from_forms(space)
    if int(point.coords[C.k]) == 0:
        raise RuntimeError(
            "extracted point does not use the appended row; "
            "it cannot encode an error for this word"
        )
    coeffs = point.coords[: C.k]
    error = (coeffs @ C.G.a + w) % p
    if weight(error) != d_w:
        raise RuntimeError(
            f"reconstructed error has weight {weight(error)}, expected {d_w}"
        )
    nearest_v = (w - error) % p
    inside, message = C.contains(nearest_v)
    if not inside:
        raise RuntimeError("reconstructed nearest word is not a codeword")
    return DecodeResult(
        status=DecodeStatus.CORRECTED,
        d=d,
        d_w=d_w,
        error=error,
        nearest=Codeword(v=nearest_v, message=message),
        message=message,
        point=point,
        colon_power=u,
    )

