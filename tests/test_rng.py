import numpy as np
import pytest

from gleason_lab.rng import SplitMix64

# Reference outputs of the sequential two-line algorithm for seed 12345,
# computed independently with python integers.
_REFERENCE = [
    0x22118258A9D111A0,
    0x346EDCE5F713F8ED,
    0x1E9A57BC80E6721D,
]


def _sequential_reference(seed, count):
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_matches_pinned_reference():
    rng = SplitMix64(12345)
    got = [int(x) for x in rng.uint64_block(3)]
    assert got == _REFERENCE


def test_block_splits_do_not_change_the_stream():
    whole = SplitMix64(99).uint64_block(64)
    split = SplitMix64(99)
    parts = np.concatenate([split.uint64_block(k) for k in (1, 7, 25, 31)])
    assert np.array_equal(whole, parts)


def test_matches_sequential_definition_for_random_seeds():
    for seed in (0, 1, 2**63, 0xDEADBEEF):
        expected = _sequential_reference(seed, 16)
        got = [int(x) for x in SplitMix64(seed).uint64_block(16)]
        assert got == expected


def test_uniforms_live_in_unit_interval():
    u = SplitMix64(7).uniform_block(10_000)
    assert u.min() > 0.0 and u.max() <= 1.0


def test_gaussians_are_reproducible_and_plausible():
    a = SplitMix64(21).gaussian_block(5001)
    b = SplitMix64(21).gaussian_block(5001)
    assert np.array_equal(a, b)
    assert abs(a.mean()) < 0.05
    assert abs(a.std() - 1.0) < 0.05


def test_scalar_gaussian_agrees_with_block():
    rng_a = SplitMix64(3)
    rng_b = SplitMix64(3)
    singles = [rng_a.gaussian() for _ in range(9)]
    block = rng_b.gaussian_block(9)
    assert np.array_equal(singles, block)


class _ListSpareStream(SplitMix64):
    """Reference Gaussian blocks: Box-Muller pairs stacked as columns and
    raveled, with unused variates kept in a list and popped from its end."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self._spares: list[float] = []

    def gaussian_block(self, count: int) -> np.ndarray:
        out = np.empty(count)
        have = min(len(self._spares), count)
        for m in range(have):
            out[m] = self._spares.pop()
        need = count - have
        if need > 0:
            pairs = (need + 1) // 2
            u = self.uniform_block(2 * pairs)
            u1, u2 = u[0::2], u[1::2]
            r = np.sqrt(-2.0 * np.log(u1))
            both = np.ravel(np.column_stack([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)]))
            out[have:] = both[:need]
            self._spares.extend(both[need:])
        return out


def test_any_split_into_gaussian_and_uniform_blocks_matches_the_reference_bit_for_bit():
    plan = np.random.default_rng(17)
    for seed in range(50):
        ref, got = _ListSpareStream(seed), SplitMix64(seed)
        for _ in range(60):
            size = int(plan.integers(0, 9))
            draw = "uniform_block" if plan.random() < 0.25 else "gaussian_block"
            expect = getattr(ref, draw)(size)
            assert getattr(got, draw)(size).tobytes() == expect.tobytes(), (seed, draw, size)


def test_derive_gives_stable_independent_streams():
    root = SplitMix64(5)
    child1 = root.derive("trace", "H", 3)
    child2 = root.derive("trace", "H", 3)
    other = root.derive("trace", "H", 4)
    assert child1.seed == child2.seed
    assert child1.seed != other.seed
    assert child1.seed != root.seed


def test_integer_bounds():
    rng = SplitMix64(11)
    draws = [rng.integer(7) for _ in range(500)]
    assert min(draws) >= 0 and max(draws) < 7
    assert len(set(draws)) == 7


def test_integer_rejects_a_bound_beyond_two_to_the_64(monkeypatch):
    # past 2**64 the rejection limit is 0 and every draw is rejected; a stream
    # that stops after a few draws makes such a loop fail fast here
    rng = SplitMix64(11)
    honest = rng.uint64_block
    calls = []

    def bounded(count):
        calls.append(count)
        if len(calls) > 10:
            raise RuntimeError("integer() kept drawing")
        return honest(count)

    monkeypatch.setattr(rng, "uint64_block", bounded)
    assert 0 <= rng.integer(2**64) < 2**64
    with pytest.raises(ValueError):
        rng.integer(2**64 + 1)
