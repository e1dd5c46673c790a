"""Pinned deterministic PRNG: SplitMix64.

Pinned by algorithm so experiments reproduce bit-for-bit across runs and
across language ports. Reference outputs for seed 0:
    0x80B76C41CDD67260, 0x742D7B0686A972BD, 0xBBF2FC2E0635CF40

Uniform doubles take the top 53 bits; exponentials use inverse-transform
sampling, so the whole generation chain is pinned too.

The k-th output is a pure function of seed + k * gamma (Steele, Lea &
Flood 2014), so `uint64_block` computes a run of outputs as one uint64
array, bit-identical to as many `next_uint64` calls, and `exponential_block`
maps one such block to the draws of as many `exponential` calls, checking
the mean once; the scalar methods stay as the reference form.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1F4EE2B9
_MIX2 = 0x94D049BB133111EB
_U_MAX = 1.0 - 2.0**-53  # the largest float below 1.0


def check_mean(mean: float, name: str = "mean") -> None:
    """Raise ValueError, naming `name`, unless every exponential draw of `mean` is > 0."""
    if not 0 < mean < math.inf:  # NaN is not > 0
        raise ValueError(f"{name} must be positive and finite")
    if not -mean * math.log(_U_MAX) > 0:  # the smallest draw, at the largest u
        raise ValueError(f"{name} {mean!r} is so small that a draw rounds to 0.0")


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uint64_block(self, k: int) -> np.ndarray:
        """The next k outputs as a uint64 array, in wrapping arithmetic.

        The stream then continues as if `next_uint64` had been called k
        times.
        """
        if k < 0:
            raise ValueError("block length must be >= 0")
        z = np.arange(1, k + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + k * _GAMMA) & _MASK
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        return (self.next_uint64() >> 11) * (1.0 / (1 << 53))

    def exponential(self, mean: float) -> float:
        """Exponential draw via inverse transform; always > 0."""
        check_mean(mean)
        # Centring in the ulp keeps u > 0; u = 1.0, as (2**53 - 1) + 0.5 rounds, takes _U_MAX.
        u = min(((self.next_uint64() >> 11) + 0.5) * (1.0 / (1 << 53)), _U_MAX)
        return -mean * math.log(u)

    def exponential_block(self, k: int, mean: float) -> list[float]:
        """The next k `exponential(mean)` draws, from one `uint64_block(k)`."""
        check_mean(mean)
        u = ((self.uint64_block(k) >> np.uint64(11)) + 0.5) * (1.0 / (1 << 53))
        return [-mean * math.log(x) for x in np.minimum(u, _U_MAX).tolist()]


def derive_seed(seed: int, stream: int) -> int:
    """Split one user seed into independent per-purpose streams."""
    rng = SplitMix64((seed ^ (stream * _GAMMA)) & _MASK)
    return rng.next_uint64()
