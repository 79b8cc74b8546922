"""Reproducible simulation randomness.

The channel simulator derives one independent SplitMix64 stream per trial
from (seed, trial index), so a trial's draws depend on those two alone,
not on the trials run before it. SplitMix64 state update: add the 64-bit
golden gamma 0x9E3779B97F4A7C15, then finalize with the xor-shift-multiply
mix (30/0xBF58476D1CE4E5B9, 27/0x94D049BB133111EB, 31). Bounded draws use
rejection sampling on the top of the range, so they are unbiased.
"""

from __future__ import annotations

__all__ = ["SplitMix64", "trial_rng"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


class SplitMix64:
    """The SplitMix64 generator over 64-bit state."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def below(self, n: int) -> int:
        """Uniform draw from [0, n) by rejection on the top partial block."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def nonzero_residue(self, p: int) -> int:
        """Uniform draw from [1, p)."""
        return 1 + self.below(p - 1)

    def distinct_positions(self, n: int, t: int) -> list[int]:
        """t distinct indices from range(n), by partial Fisher-Yates."""
        if not 0 <= t <= n:
            raise ValueError(f"cannot pick {t} distinct positions from {n}")
        pool = list(range(n))
        for i in range(t):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:t]

    def vector(self, length: int, p: int) -> list[int]:
        """Uniform vector over GF(p)**length."""
        return [self.below(p) for _ in range(length)]


def trial_rng(seed: int, trial: int) -> SplitMix64:
    """Independent stream for one simulation trial.

    The stream's initial state is mix(seed + (trial + 1) * gamma), so
    trial streams are decorrelated and depend only on (seed, trial).
    """
    return SplitMix64(_mix((int(seed) + (int(trial) + 1) * _GAMMA) & _MASK))
