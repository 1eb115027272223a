"""Deterministic random streams used by every property suite.

The generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter is
advanced by the odd constant 0x9E3779B97F4A7C15 and each output is a fixed
avalanche mix of the counter.  Because the k-th output is a pure function of
``seed + (k+1)*gamma`` the stream can be produced in vectorized blocks that
match the sequential definition bit for bit, and any implementation of the
same two-line algorithm reproduces identical test vectors from a seed.

Gaussian variates come from the Box-Muller transform applied to consecutive
output pairs, so they are equally reproducible.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1

# FNV-1a, used only to fold label strings into derived seeds.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _mix(block: np.ndarray) -> np.ndarray:
    z = block
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Seeded SplitMix64 stream with uniform and Gaussian block output."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._pos = 0
        # the second variate of a Box-Muller pair that the last block left over
        self._spare_gauss: float | None = None

    def uint64_block(self, count: int) -> np.ndarray:
        idx = np.arange(self._pos + 1, self._pos + count + 1, dtype=np.uint64)
        self._pos += count
        return _mix(np.uint64(self.seed) + idx * _GAMMA)

    def uniform_block(self, count: int) -> np.ndarray:
        """Uniform doubles in (0, 1], from the top 53 bits of each output."""
        z = self.uint64_block(count)
        return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def gaussian_block(self, count: int) -> np.ndarray:
        out = np.empty(count)
        have = 0
        if count and self._spare_gauss is not None:
            out[0], self._spare_gauss = self._spare_gauss, None
            have = 1
        need = count - have
        if need > 0:
            pairs = (need + 1) // 2
            u = self.uniform_block(2 * pairs)
            u1, u2 = u[0::2], u[1::2]
            r = np.sqrt(-2.0 * np.log(u1))
            both = np.empty(2 * pairs)
            both[0::2] = r * np.cos(2.0 * np.pi * u2)
            both[1::2] = r * np.sin(2.0 * np.pi * u2)
            out[have:] = both[:need]
            if need < both.size:
                self._spare_gauss = float(both[-1])
        return out

    def gaussian(self) -> float:
        return float(self.gaussian_block(1)[0])

    def uniform(self) -> float:
        return float(self.uniform_block(1)[0])

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection on the top bits."""
        # past 2**64 no draw lies below the rejection limit, which is then 0
        if not 0 < bound <= _MASK64 + 1:
            raise ValueError(f"bound must lie in 1..2**64, got {bound}")
        while True:
            z = int(self.uint64_block(1)[0])
            limit = (_MASK64 + 1) - ((_MASK64 + 1) % bound)
            if z < limit:
                return z % bound

    def derive(self, *labels: object) -> "SplitMix64":
        """Independent child stream keyed by the labels (order sensitive)."""
        key = "/".join(str(label) for label in labels)
        folded = np.array([self.seed ^ _fnv1a(key)], dtype=np.uint64)
        return SplitMix64(int(_mix(folded)[0]))
