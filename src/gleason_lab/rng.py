"""Deterministic random streams used by every property suite.

The generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter is
advanced by the odd constant 0x9E3779B97F4A7C15 and each output is a fixed
avalanche mix of the counter.  Because the k-th output is a pure function of
``seed + (k+1)*gamma`` the stream can be produced in vectorized blocks that
match the sequential definition bit for bit, and any implementation of the
same two-line algorithm reproduces identical test vectors from a seed.

Gaussian variates come from the Box-Muller transform applied to consecutive
output pairs, so they are equally reproducible.

Because every output is addressed by its position, a per-trial list of draws
can be planned before any of it is served: :meth:`SplitMix64.recipe_block`
draws one block of outputs and their uniforms ahead of the stream, walks
many trials of Gaussian, uniform and integer draws over it, reading an
integer's rejection loop and a drawn count's inputs straight from the block
(and extending it when a trial reaches past its end), and then serves the
whole run from that block, bit for bit as the draws one after another would
give them.  A count may depend on the trial's earlier values (a rank drawn
as an integer, a branch taken on a uniform or on a Gaussian matrix), since
the walk knows those values where the draws would.

The per-call paths avoid numpy's per-call cost where it is most of the work:
a derived seed is mixed in Python integers, and the output mix, the
uniforms and Box-Muller work in place on the block they form.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
# the two multipliers of the mix, as Python integers and as uint64
_MIX1_INT, _MIX2_INT = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MIX1, _MIX2 = np.uint64(_MIX1_INT), np.uint64(_MIX2_INT)
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = (np.uint64(k) for k in (11, 27, 30, 31))
_MASK64 = (1 << 64) - 1
_TWO_PI = 2.0 * np.pi

# FNV-1a, used only to fold label strings into derived seeds.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _mix_int(z: int) -> int:
    """The avalanche mix of one 64-bit Python integer."""
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK64
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    """The avalanche mix of every uint64 of ``z``, in place; returns ``z``."""
    t = z >> _SHIFT30
    z ^= t
    z *= _MIX1
    np.right_shift(z, _SHIFT27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _SHIFT31, out=t)
    z ^= t
    return z


def _uniforms(z: np.ndarray) -> np.ndarray:
    """Uniform doubles in (0, 1], from the top 53 bits of each output; every
    step is exact, so any order of them gives the same bits."""
    u = np.add(z >> _SHIFT11, 1.0)
    u *= 2.0**-53
    return u


def _box_muller(u: np.ndarray) -> np.ndarray:
    """The two Gaussians of each consecutive pair (u1, u2) of uniforms, in
    order: r cos(2 pi u2) and r sin(2 pi u2) with r = sqrt(-2 log u1)."""
    theta = u[1::2] * _TWO_PI
    r = np.log(u[0::2])
    r *= -2.0
    np.sqrt(r, out=r)
    both = np.empty(u.size)
    np.multiply(np.cos(theta), r, out=both[0::2])
    np.multiply(np.sin(theta, out=theta), r, out=both[1::2])
    return both


def _check_bound(bound: int) -> None:
    # past 2**64 no draw lies below the rejection limit, which is then 0
    if not 0 < bound <= _MASK64 + 1:
        raise ValueError(f"bound must lie in 1..2**64, got {bound}")


def _rejection_limit(bound: int) -> int:
    """The integer draw keeps an output z below this limit, as z % bound."""
    return (_MASK64 + 1) - ((_MASK64 + 1) % bound)


class Ragged(NamedTuple):
    """The draws of a recipe item whose count is drawn: each trial's values,
    zero-padded to the largest count, and each trial's count."""

    values: np.ndarray
    counts: np.ndarray


def _checked_count(kind: str, count) -> int:
    count = operator.index(count)
    if count < 0:
        raise ValueError(f"{'an' if kind == 'integer' else 'a'} {kind} count must be >= 0, got {count}")
    return count


def _parse_item(item) -> tuple:
    """(kind, bound, count, scalar) of a recipe item; ``scalar`` marks the one
    integer of ``("integer", bound)``.  A bad item raises ValueError."""
    kind = item[0]
    if kind == "integer":
        _check_bound(item[1])
        scalar = len(item) == 2
        bound, count = item[1], 1 if scalar else item[2]
    elif kind in ("gaussian", "uniform"):
        scalar, bound, count = False, None, item[1]
    else:
        raise ValueError(f"unknown draw kind {kind!r}, expected gaussian, uniform or integer")
    if not callable(count):
        count = _checked_count(kind, count)
    return kind, bound, count, scalar


def _gaussians(u: np.ndarray, spare, pos: int, need: int) -> np.ndarray:
    """The Gaussians of one item: the held spare first, unless ``spare`` is
    None (a float, or the position of the output pair whose second Gaussian
    it is), then the first ``need`` of Box-Muller over the uniforms ``u``
    from ``pos`` on."""
    fresh = _box_muller(u[pos:pos + need + need % 2])[:need]
    if spare is None:
        return fresh
    if type(spare) is int:
        spare = _box_muller(u[spare:spare + 2])[1]
    return np.concatenate([[spare], fresh])


class _Prior(Sequence):
    """The values of one trial's items so far, as a count function reads them,
    where a count follows a Gaussian item: such an item is held as the
    arguments of :func:`_gaussians` and formed when first read."""

    def __init__(self):
        self.values: list = []
        self.append = self.values.append

    def __getitem__(self, i):
        value = self.values[i]
        if type(value) is tuple:
            value = self.values[i] = _gaussians(*value)
        return value

    def __len__(self) -> int:
        return len(self.values)


class SplitMix64:
    """Seeded SplitMix64 stream with uniform and Gaussian block output."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._pos = 0
        # the second variate of a Box-Muller pair that the last block left over
        self._spare_gauss: float | None = None

    def _outputs(self, start: int, count: int) -> np.ndarray:
        """The ``count`` outputs from stream position ``start`` on, each a pure
        function of its position; the stream does not move."""
        z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        z *= _GAMMA
        z += np.uint64(self.seed)
        return _mix(z)

    def uint64_block(self, count: int) -> np.ndarray:
        z = self._outputs(self._pos, count)
        self._pos += count
        return z

    def uniform_block(self, count: int) -> np.ndarray:
        """Uniform doubles in (0, 1], from the top 53 bits of each output."""
        return _uniforms(self.uint64_block(count))

    def gaussian_block(self, count: int) -> np.ndarray:
        """``count`` Gaussians: the held spare first, then Box-Muller on whole
        output pairs, whose last Gaussian is held when ``count`` leaves it over."""
        spare = self._spare_gauss if count else None
        need = count - (spare is not None)
        both = _box_muller(self.uniform_block(need + need % 2))
        if spare is not None or need % 2:
            self._spare_gauss = float(both[-1]) if need % 2 else None
        return both[:need] if spare is None else np.concatenate([[spare], both[:need]])

    def _more(self, z: np.ndarray, u: np.ndarray, end: int) -> tuple[np.ndarray, np.ndarray]:
        """The outputs ``z`` from the stream's position on and their uniforms
        ``u``, extended to at least ``end`` outputs and at least doubled; the
        stream does not move."""
        more = self._outputs(self._pos + z.size, max(end, 2 * z.size) - z.size)
        return np.concatenate([z, more]), np.concatenate([u, _uniforms(more)])

    def recipe_block(self, trials: int, recipe) -> list:
        """``trials`` runs of the per-trial ``recipe`` of draws, served from one
        output block, bit for bit as the draws one after another give them.

        A recipe is a sequence of items ``("gaussian", count)``, ``("uniform",
        count)``, ``("integer", bound)`` and ``("integer", bound, count)``,
        which a trial draws in order as ``gaussian_block(count)``,
        ``uniform_block(count)`` and ``count`` calls of ``integer(bound)``
        would.  A count is an integer, or a function of the trial's earlier
        values, ``count(prior) -> int``: ``prior[i]`` is the value of the
        trial's item i, an int for ``("integer", bound)`` and a 1-d array
        otherwise.  A count of 0 makes an item absent.  Returns one array per
        item: (trials, count) for a fixed count, (trials,) uint64 for one
        integer, and a :class:`Ragged` for a drawn count.

        The plan walks the recipe over all trials before any output is served.
        It draws the outputs and their uniforms from the stream's position on
        (:meth:`_outputs`, which leaves the stream where it is), enough for
        the fixed counts without rejections, and doubles them whenever an item
        reaches past their end.  An integer reads its outputs from that block
        and runs its rejection loop where the draw would; a count function
        gets the trial's earlier values as a plain list, a uniform item's
        values as a slice of the block's uniforms.  The walk holds the spare
        Gaussian exactly where an odd number of Gaussians has been consumed,
        counting the spare held at the start, so every item's stream position
        is known.  Uniforms are formed as ``uniform_block`` forms them; the
        Gaussians come from Box-Muller on the output pairs that
        ``gaussian_block`` would use, with the spare carried across uniform
        and integer items; an integer is ``z % bound`` of the first output
        below its rejection limit.  A Gaussian item's values are formed in the
        walk only when a count function reads them: where a count follows a
        Gaussian item, the trial's values are a :class:`_Prior`.  The stream
        is then moved to the position and spare that the draws one after
        another would leave.  An unknown kind, a negative count or a bound
        outside 1..2**64 raises ValueError and leaves the stream as it was.
        """
        if trials < 0:
            raise ValueError(f"trials must be >= 0, got {trials}")
        items = [_parse_item(item) for item in recipe]
        dependent = any(callable(count) for _, _, count, _ in items)
        gaussian = next((i for i, (kind, _, _, _) in enumerate(items) if kind == "gaussian"), len(items))
        lazy = any(callable(count) for _, _, count, _ in items[gaussian + 1:])
        # per item, per trial: the count, and where its values start (an
        # integer item keeps its values); a Gaussian item's start is its offset
        # in the Gaussians consumed, in order
        counts = [[] for _ in items]
        starts = [[] for _ in items]
        walk = [(kind, bound, count, callable(count), scalar, _rejection_limit(bound) if bound else 0, sizes, first)
                for (kind, bound, count, scalar), sizes, first in zip(items, counts, starts)]
        # the outputs that the fixed counts draw, without rejections, a Gaussian
        # item one more at most
        fixed = sum(count + (kind == "gaussian") for kind, _, count, _ in items if not callable(count))
        z = self._outputs(self._pos, trials * fixed)
        u = _uniforms(z)
        spare = self._spare_gauss
        runs = []  # the [start, end) outputs of the Gaussian items, adjacent ones merged
        pos = used = 0
        held = int(spare is not None)
        spare_at = -1  # the output pair whose second Gaussian is held; -1 for the spare held at the start
        for _ in range(trials):
            prior = (_Prior() if lazy else []) if dependent else None
            for kind, bound, count, drawn_count, scalar, limit, sizes, first in walk:
                if drawn_count:
                    count = operator.index(count(prior))
                    if count < 0:
                        _checked_count(kind, count)
                    sizes.append(count)
                if kind == "gaussian":
                    # a held spare is taken first, then whole pairs are drawn
                    need = count - held if count > held else 0
                    end = pos + need + need % 2
                    if end > z.size:
                        z, u = self._more(z, u, end)
                    if prior is not None:
                        prior.append((u, (spare if spare_at < 0 else spare_at) if held and count else None, pos, need))
                    first.append(used)
                    if need:
                        if runs and runs[-1][1] == pos:
                            runs[-1][1] = end
                        else:
                            runs.append([pos, end])
                        if need % 2:
                            spare_at = end - 2
                    used += count
                    held = (held + count) % 2
                    pos = end
                elif kind == "uniform":
                    end = pos + count
                    if end > z.size:
                        z, u = self._more(z, u, end)
                    if prior is not None:
                        prior.append(u[pos:end])
                    first.append(pos)
                    pos = end
                else:
                    drawn = []
                    while len(drawn) < count:
                        if pos == z.size:
                            z, u = self._more(z, u, pos + 1)
                        value = z.item(pos)
                        pos += 1
                        if value < limit:
                            drawn.append(value % bound)
                    first.append(drawn)
                    if prior is not None:
                        prior.append(drawn[0] if scalar else np.array(drawn, dtype=np.uint64))
        self._pos += pos

        # the outputs of the Gaussian items, in stream order, are the pairs that
        # the gaussian_block calls one after another would draw
        fresh = _box_muller(np.concatenate([u[a:b] for a, b in runs])) if runs else np.empty(0)
        stream = fresh if spare is None else np.concatenate([[spare], fresh])
        self._spare_gauss = float(stream[-1]) if stream.size > used else None

        out = []
        for (kind, bound, count, scalar), sizes, first in zip(items, counts, starts):
            drawn_count = callable(count)
            width = max(sizes, default=0) if drawn_count else count
            if scalar:
                values = np.array([row[0] for row in first], dtype=np.uint64)
            elif kind == "integer":
                values = np.zeros((trials, width), dtype=np.uint64)
                for t, row in enumerate(first):
                    values[t, :len(row)] = row
            else:
                source = stream if kind == "gaussian" else u
                index = np.array(first, dtype=np.intp).reshape(-1, 1) + np.arange(width)
                if drawn_count:
                    kept = np.arange(width) < np.array(sizes, dtype=np.intp).reshape(-1, 1)
                    values = np.zeros(index.shape)
                    values[kept] = source[index[kept]]
                else:
                    values = source[index]
            out.append(Ragged(values, np.array(sizes, dtype=np.intp)) if drawn_count else values)
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
        return SplitMix64(_mix_int(self.seed ^ _fnv1a(key)))
