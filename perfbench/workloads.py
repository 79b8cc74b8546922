"""The benchmark's workloads; BENCHMARK.json names the ones its runs use.

Each workload builds its codes in `setup`, turns (seed, index) into one
op's input in `make_input`, runs the op through the public API in `run`,
and checks the op's summary against `coldec.oracle` in `check`. Only
`setup` and `run` are timed. Every call into coldec goes through a module
attribute (`decoder.decode`, `ideals.min_distance`, ...) so that the
tracer's patched boundaries see it.
"""

from __future__ import annotations

import numpy as np

from coldec import code, decoder, ideals, kernels, oracle, simrng
from coldec.field import PrimeField
from tracer import Patches

# The worked [6,3,3] binary example of the README.
WORKED_G = [
    [1, 0, 0, 1, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1],
]

# Generator polynomial of the cyclic [23,12,7] binary Golay code,
# 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11, lowest degree first.
GOLAY_POLY = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
GOLAY_D = 8

# Every cold rank-criterion scan generates product rows or eliminates.
COLD_SCAN_BOUNDARIES = (
    ("polybasis", "multiply_by_form"),
    ("kernels", "Echelon.insert"),
    ("kernels", "rank_of_rows"),
    ("kernels", "rref_array"),
)


class SetupError(RuntimeError):
    """A workload cannot be set up safely at this commit."""


def golay_matrix() -> np.ndarray:
    """Extended Golay [24,12] generator: 12 shifts of g(x) plus a parity column."""
    rows = np.zeros((12, 24), np.int64)
    for i in range(12):
        rows[i, i : i + 12] = GOLAY_POLY
    rows[:, 23] = rows[:, :23].sum(axis=1) % 2
    return rows


def gf3_matrix() -> np.ndarray:
    """The seeded [14,6] GF(3) code: first full-rank draw with no zero column."""
    rng = np.random.default_rng(424242)
    while True:
        G = rng.integers(0, 3, size=(6, 14))
        if np.any(np.all(G == 0, axis=0)):
            continue
        if kernels.rank_of_rows(G, 3) == 6:
            return G


def random_generator(rng: np.random.Generator, p: int, k: int, n: int) -> np.ndarray:
    """Random full-rank k x n generator over GF(p) with no all-zero column."""
    while True:
        G = rng.integers(0, p, size=(k, n))
        if np.any(np.all(G == 0, axis=0)):
            continue
        if kernels.rank_of_rows(G, p) == k:
            return G


def supply_distance(C: code.LinearCode, d: int) -> None:
    """Make `d` the cached distance of C, or raise SetupError.

    The rank criterion must never run on such a code: for the extended
    Golay code its degree-8 piece needs an echelon buffer of about 45 GB.
    So the supplied value is proven to take effect by calling
    `min_distance` while every product-row and elimination boundary
    raises on entry.
    """
    try:
        C._dmin = d
    except AttributeError as exc:
        raise SetupError(f"cannot supply d={d} to {C!r}: {exc}") from None

    class ColdScan(Exception):
        pass

    def refuse(original):
        def refused(*args, **kwargs):
            raise ColdScan

        return refused

    guard = Patches()
    try:
        for module, qualname in COLD_SCAN_BOUNDARIES:
            guard.replace(module, qualname, refuse)
        got = ideals.min_distance(C)
    except ColdScan:
        raise SetupError(
            f"the supplied distance d={d} did not take effect on {C!r}; "
            "min_distance started a cold rank-criterion scan"
        ) from None
    finally:
        guard.restore()
    if got != d:
        raise SetupError(f"min_distance returned {got} after supplying d={d}")


class DecodeWorkload:
    """Closed-loop decoding of seeded channel words against one code."""

    slots: tuple = ()  # (error weight, required (status, d_w) or None), cycled
    warmup_ops = 1  # words decoded in set-up
    trace_ops = 1  # ops in the traced run's fixed corpus

    def __init__(self):
        self._oracle: dict[bytes, tuple] = {}  # word bytes -> expected summary
        self._oracle_d: int | None = None

    def build(self) -> tuple[code.LinearCode, int | None]:
        raise NotImplementedError

    def setup(self) -> None:
        C, supplied = self.build()
        if supplied is not None:
            supply_distance(C, supplied)
        self.C = C
        ideals.min_distance(C)
        for i in range(self.warmup_ops):  # the oracle stays out of set-up
            weight = self.slots[i % len(self.slots)][0]
            self.run(self.channel_word(simrng.trial_rng(-1, i), weight))

    def channel_word(self, rng, weight: int) -> np.ndarray:
        """A random codeword plus `weight` errors at random positions."""
        C, p = self.C, self.C.field.p
        msg = np.asarray(rng.vector(C.k, p), np.int64)
        w = (msg @ C.G.a) % p
        for pos in rng.distinct_positions(C.n, weight):
            w[pos] = (w[pos] + rng.nonzero_residue(p)) % p
        return w

    def make_input(self, seed: int, i: int) -> np.ndarray:
        """Word i of the seed, for slot i of the cycle.

        When the slot names a status and coset weight d_w, words are drawn
        from the same stream until the oracle gives one that pair.
        """
        weight, want = self.slots[i % len(self.slots)]
        rng = simrng.trial_rng(seed, i)
        while True:
            w = self.channel_word(rng, weight)
            status, _, d_w, _, _ = self.expected(w)
            if want is None or (status, d_w) == want:
                return w

    def run(self, w):
        res = decoder.decode(self.C, w)
        nearest = None if res.nearest is None else tuple(int(x) for x in res.nearest.v)
        return (str(res.status), res.d, res.d_w, nearest, res.neighbor_count)

    def expected(self, w) -> tuple:
        key = w.tobytes()
        hit = self._oracle.get(key)
        if hit is None:
            if self._oracle_d is None:
                self._oracle_d = oracle.enumerate_min_distance(self.C)
            d_w, vectors = oracle.nearest_neighbors(self.C, w)
            d, count = self._oracle_d, vectors.shape[0]
            if d_w == 0:
                hit = ("in_code", d, 0, tuple(int(x) for x in w), None)
            elif d_w >= d:
                hit = ("uncorrectable", d, None, None, None)
            elif count == 1:
                hit = ("corrected", d, d_w, tuple(int(x) for x in vectors[0]), None)
            else:
                hit = ("ambiguous", d, d_w, None, count)
            self._oracle[key] = hit
        return hit

    def check(self, w, summary) -> str | None:
        want = self.expected(w)
        if summary != want:
            return f"word {w.tolist()}: got {summary}, oracle says {want}"
        return None

    @staticmethod
    def status(summary) -> str:
        return summary[0]


class SmallStream(DecodeWorkload):
    """Single-error words on the worked [6,3,3] GF(2) example."""

    name = "small-stream"
    slots = ((1, None),)
    trace_ops = 400

    def build(self):
        return code.LinearCode(PrimeField(2), WORKED_G), None


class Gf3Channel(DecodeWorkload):
    """The seeded [14,6,4] GF(3) code at error weights 0, 1, 2, 3, 4 in turn.

    A decode's cost is set by the word's status and coset weight d_w, which
    random weight-3 and weight-4 errors spread over 1 to 4 and every status.
    With those left to chance, the cost mix of a 25 s run moved by over 20%
    from seed to seed. So each weight-3 and weight-4 slot names the (status,
    d_w) its word must have: weight 3 alternates corrected and ambiguous
    words at d_w = 3, weight 4 is uncorrectable. Every status occurs.
    """

    name = "gf3-channel"
    slots = (
        (0, None), (1, None), (2, None), (3, ("corrected", 3)), (4, ("uncorrectable", None)),
        (0, None), (1, None), (2, None), (3, ("ambiguous", 3)), (4, ("uncorrectable", None)),
    )
    warmup_ops = 5
    trace_ops = len(slots)

    def build(self):
        return code.LinearCode(PrimeField(3), gf3_matrix()), None


class GolayT2(DecodeWorkload):
    """Two-error words on the extended binary Golay code, d supplied."""

    name = "golay-t2"
    slots = ((2, None),)
    trace_ops = 4

    def build(self):
        C = code.LinearCode(PrimeField(2), golay_matrix())
        if C.k != 12:
            raise SetupError(f"extended Golay generator has rank {C.k}, expected 12")
        d = oracle.enumerate_min_distance(C)
        if d != GOLAY_D:
            raise SetupError(f"oracle finds d={d} for the extended Golay code, expected 8")
        return C, d


class CodeAnalysis:
    """Cold distance plus min-weight count of fresh random codes.

    One op is `min_distance(C)` on a new code object followed by
    `ideal_degree(build_ideal(C, d + 1))`. The classes run in a fixed
    cycle and the seed draws each generator. An op's cost is set mostly by
    its class, so every run sees the same mix of costs; d is held fixed
    within a class because the scan depth, and with it the cost, grows
    steeply with d.
    """

    name = "code-analysis"
    # (p, k, n, d); q**k stays far below the oracle threshold.
    classes = (
        (2, 6, 13, 3),
        (3, 5, 11, 4),
        (5, 4, 11, 5),
        (7, 4, 11, 5),
        (3, 6, 12, 3),
        (2, 8, 16, 2),
        (2, 5, 12, 4),
    )
    cycle = len(classes)
    trace_ops = len(classes)

    def setup(self) -> None:
        for i, (p, k, n, _) in enumerate(self.classes):  # warm-up, oracle-free
            self.run((p, random_generator(np.random.default_rng([2**63 - 1, i]), p, k, n)))

    def make_input(self, seed: int, i: int) -> tuple[int, np.ndarray]:
        p, k, n, d = self.classes[i % self.cycle]
        rng = np.random.default_rng([seed & (2**63 - 1), i])
        while True:
            G = random_generator(rng, p, k, n)
            if oracle.enumerate_min_distance(code.LinearCode(PrimeField(p), G)) == d:
                return p, G

    def run(self, code_input):
        p, G = code_input
        C = code.LinearCode(PrimeField(p), G)  # a fresh object: no cached distance
        d = ideals.min_distance(C)
        return (d, ideals.ideal_degree(ideals.build_ideal(C, d + 1)))

    def check(self, code_input, summary) -> str | None:
        C = code.LinearCode(PrimeField(code_input[0]), code_input[1])
        want = (oracle.enumerate_min_distance(C), oracle.projective_min_weight_count(C))
        if summary != want:
            return f"{C!r} G={C.G.a.tolist()}: got (d, count)={summary}, oracle says {want}"
        return None

    @staticmethod
    def status(summary) -> str:
        return f"d={summary[0]}"


WORKLOADS = {w.name: w for w in (SmallStream, Gf3Channel, GolayT2, CodeAnalysis)}
