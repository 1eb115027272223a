"""Deterministic random streams used by every property suite.

The generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter is
advanced by the odd constant 0x9E3779B97F4A7C15 and each output is a fixed
avalanche mix of the counter.  Because the k-th output is a pure function of
``seed + (k+1)*gamma`` the stream can be produced in vectorized blocks that
match the sequential definition bit for bit, and any implementation of the
same two-line algorithm reproduces identical test vectors from a seed.

Gaussian variates come from the Box-Muller transform applied to consecutive
output pairs, so they are equally reproducible.

A fixed per-trial list of draws fixes every stream position, so
:meth:`SplitMix64.recipe_block` serves many trials of Gaussian, uniform and
integer draws from one output block, bit for bit as the draws one after
another would give them.
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


def _uniforms(z: np.ndarray) -> np.ndarray:
    """Uniform doubles in (0, 1], from the top 53 bits of each output."""
    return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def _box_muller(u: np.ndarray) -> np.ndarray:
    """The two Gaussians of each consecutive pair (u1, u2) of uniforms, in order."""
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    both = np.empty(u.size)
    both[0::2] = r * np.cos(2.0 * np.pi * u2)
    both[1::2] = r * np.sin(2.0 * np.pi * u2)
    return both


def _check_bound(bound: int) -> None:
    # past 2**64 no draw lies below the rejection limit, which is then 0
    if not 0 < bound <= _MASK64 + 1:
        raise ValueError(f"bound must lie in 1..2**64, got {bound}")


def _rejection_limit(bound: int) -> int:
    """The integer draw keeps an output z below this limit, as z % bound."""
    return (_MASK64 + 1) - ((_MASK64 + 1) % bound)


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
        return _uniforms(self.uint64_block(count))

    def gaussian_block(self, count: int) -> np.ndarray:
        out = np.empty(count)
        have = 0
        if count and self._spare_gauss is not None:
            out[0], self._spare_gauss = self._spare_gauss, None
            have = 1
        need = count - have
        if need > 0:
            both = _box_muller(self.uniform_block(2 * ((need + 1) // 2)))
            out[have:] = both[:need]
            if need < both.size:
                self._spare_gauss = float(both[-1])
        return out

    def recipe_block(self, trials: int, recipe) -> list[np.ndarray]:
        """``trials`` runs of the per-trial ``recipe`` of draws, served from one
        output block, bit for bit as the draws one after another give them.

        A recipe is a sequence of items ``("gaussian", count)``, ``("uniform",
        count)`` and ``("integer", bound)``, which a trial draws in order as
        ``gaussian_block(count)``, ``uniform_block(count)`` and
        ``integer(bound)`` would.  Returns one array per item: (trials, count)
        for Gaussians and uniforms, (trials,) uint64 for integers.

        The plan walks the recipe over all trials in integer arithmetic: the
        spare Gaussian is held exactly where an odd number of Gaussians has
        been consumed, counting the spare held at the start, so every item's
        stream position is known before any output is drawn.  One
        ``uint64_block`` then serves the whole run.  Uniforms are formed as
        ``uniform_block`` forms them; the Gaussians come from Box-Muller on the
        output pairs that ``gaussian_block`` would use, with the spare carried
        across uniform and integer items; an integer is ``z % bound``.  The
        stream is left at the position and spare that the draws one after
        another would leave.  An integer output at or above the rejection
        limit (probability at most bound 2**-64 per draw) is redrawn with
        :meth:`integer` after the block, in trial order.  An unknown kind, a
        negative count or a bound outside 1..2**64 raises ValueError before any
        output is drawn.
        """
        if trials < 0:
            raise ValueError(f"trials must be >= 0, got {trials}")
        for kind, size in recipe:
            if kind == "integer":
                _check_bound(size)
            elif kind not in ("gaussian", "uniform"):
                raise ValueError(f"unknown draw kind {kind!r}, expected gaussian, uniform or integer")
            elif size < 0:
                raise ValueError(f"a {kind} count must be >= 0, got {size}")
        # the walk: every item's first output, and the outputs that each
        # Gaussian item draws, in Python integers.  A spare is held exactly
        # where an odd number of Gaussians has been consumed, counting the
        # spare held at the start.
        spare = self._spare_gauss
        held = spare is not None
        starts = [[] for _ in recipe]
        runs = []
        pos = 0
        for _ in range(trials):
            for i, (kind, size) in enumerate(recipe):
                starts[i].append(pos)
                if kind == "gaussian":
                    # a held spare is taken first, then whole pairs are drawn
                    need = max(size - held, 0)
                    runs.append((pos, pos + need + need % 2))
                    pos += need + need % 2
                    held = (held + size) % 2
                else:
                    pos += size if kind == "uniform" else 1
        z = self.uint64_block(pos)
        u = _uniforms(z)

        # the outputs of the Gaussian items, in stream order, are the pairs that
        # the gaussian_block calls one after another would draw
        fresh = _box_muller(np.concatenate([u[a:b] for a, b in runs])) if runs else np.empty(0)
        stream = fresh if spare is None else np.concatenate([[spare], fresh])
        per_trial = sum(size for kind, size in recipe if kind == "gaussian")
        used = trials * per_trial
        self._spare_gauss = float(stream[-1]) if stream.size > used else None
        gaussians = stream[:used].reshape(trials, per_trial)

        out, rejected = [], []
        offset = 0
        for i, (kind, size) in enumerate(recipe):
            if kind == "gaussian":
                out.append(gaussians[:, offset:offset + size])
                offset += size
            elif kind == "uniform":
                out.append(u[np.array(starts[i], dtype=np.intp)[:, None] + np.arange(size)])
            else:
                drawn = z[starts[i]].tolist()
                limit = _rejection_limit(size)
                rejected += [(t, i) for t, value in enumerate(drawn) if value >= limit]
                out.append(np.array([value % size for value in drawn], dtype=np.uint64))
        for t, i in sorted(rejected):
            out[i][t] = self.integer(recipe[i][1])
        return out

    def gaussian(self) -> float:
        return float(self.gaussian_block(1)[0])

    def uniform(self) -> float:
        return float(self.uniform_block(1)[0])

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection on the top bits."""
        _check_bound(bound)
        limit = _rejection_limit(bound)
        while True:
            z = int(self.uint64_block(1)[0])
            if z < limit:
                return z % bound

    def derive(self, *labels: object) -> "SplitMix64":
        """Independent child stream keyed by the labels (order sensitive)."""
        key = "/".join(str(label) for label in labels)
        folded = np.array([self.seed ^ _fnv1a(key)], dtype=np.uint64)
        return SplitMix64(int(_mix(folded)[0]))
