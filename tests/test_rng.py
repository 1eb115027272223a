import hashlib

import numpy as np
import pytest

from gleason_lab import suite
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


# ---------------------------------------------------------------------------
# pinned bits of the draw layer: derived seeds, Gaussian and uniform blocks and
# one dependent plan, with the stream position and spare each leaves behind
# ---------------------------------------------------------------------------

def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]


def _spare(rng: SplitMix64) -> str | None:
    return None if rng._spare_gauss is None else rng._spare_gauss.hex()


@pytest.mark.parametrize("seed, ascii_child, other_child", [
    (0, 0x662EFE3ADFC16C39, 0x063FAC0A8B7D6191),
    (1, 0x127B33BF3A1585E7, 0xD38C823817FED668),
    (2**63, 0x93D8FFB3F4B64268, 0x87DCE3362E79DEAA),
    (2**64 - 1, 0x53BBC753E1635F6B, 0x461DAE224671EA41),
])
def test_derived_seeds_are_pinned(seed, ascii_child, other_child):
    assert SplitMix64(seed).derive("trace", "H", 3).seed == ascii_child
    assert SplitMix64(seed).derive("gleason.round_trip", "ℍ", 5).seed == other_child


# (count, spare held before the block) -> (digest of the block's bytes,
# stream position after it, spare after it as float.hex)
_GAUSSIAN_PINS = {
    (1, False): ("3a1a5059c1016cbc", 2, "0x1.1dd55d2e2546dp-1"),
    (1, True): ("1c4ddce4d8867a7b", 2, None),
    (2, False): ("c2cf880eaf3cfbbc", 2, None),
    (2, True): ("ecc8d41108dd32d2", 4, "0x1.0971771b8db59p+0"),
    (3, False): ("e0556762cf71f1d9", 4, "0x1.0971771b8db59p+0"),
    (3, True): ("56f35903aa1196e6", 4, None),
    (36, False): ("8fbe70ee92d09576", 36, None),
    (36, True): ("93c8925499f081f8", 38, "0x1.ea88ee71a561bp-2"),
    (1424, False): ("3f3c0983283cf02e", 1424, None),
    (1424, True): ("011ccaf57815f2b5", 1426, "0x1.33d75ff9f3590p+0"),
    (5001, False): ("27b6d745989d6621", 5002, "0x1.60105fd5d3e59p-1"),
    (5001, True): ("4e4f2693bb352cd0", 5002, None),
}
_UNIFORM_PINS = {
    (1, False): ("d8620b970da94feb", 1, None),
    (1, True): ("0c081e02f2e89559", 3, "0x1.1dd55d2e2546dp-1"),
    (2, False): ("9185767690c8340c", 2, None),
    (2, True): ("87ac0d8321ddfbe5", 4, "0x1.1dd55d2e2546dp-1"),
    (3, False): ("6f526e50cfe37b43", 3, None),
    (3, True): ("1cc3e0e92026185d", 5, "0x1.1dd55d2e2546dp-1"),
    (36, False): ("2d836a08db332f38", 36, None),
    (36, True): ("6377437e8746ac1b", 38, "0x1.1dd55d2e2546dp-1"),
    (1424, False): ("ea97024e97488924", 1424, None),
    (1424, True): ("f992ae4503ff5f53", 1426, "0x1.1dd55d2e2546dp-1"),
    (5001, False): ("4ff79b7151fcbce5", 5001, None),
    (5001, True): ("f653de4e7e5df729", 5003, "0x1.1dd55d2e2546dp-1"),
}


@pytest.mark.parametrize("draw, pins", [("gaussian_block", _GAUSSIAN_PINS), ("uniform_block", _UNIFORM_PINS)])
@pytest.mark.parametrize("count", [1, 2, 3, 36, 1424, 5001])
@pytest.mark.parametrize("held", [False, True])
def test_block_bits_position_and_spare_are_pinned(draw, pins, count, held):
    rng = SplitMix64(2024)
    if held:
        rng.gaussian_block(1)  # leaves the second Gaussian of the first pair held
    values = getattr(rng, draw)(count)
    assert values.shape == (count,) and values.dtype == np.float64
    assert (_digest(values), rng._pos, _spare(rng)) == pins[count, held]


# spare held before the plan -> (digest of the integers, (values, counts)
# digests of the three drawn-count items, stream position, spare)
_LEMMA_PINS = {
    False: ("a011ce209ca4c9e9", [("688ade0e073ee149", "9cc491ab260656dd"), ("711a9df92b5184a8", "88163244840eeecf"),
                                 ("7af5f3c2b6174dff", "206e747271745879")], 857, None),
    True: ("4ff82632d001c97a", [("2b3f803897dc12e1", "ec4e592fee763190"), ("61067ee38991350e", "88163244840eeecf"),
                                ("f481b7110cd42a6d", "b34cd7329e3411df")], 847, "-0x1.e05cc41e2267bp-1"),
}


@pytest.mark.parametrize("held", [False, True])
def test_the_unit_lemma_plan_is_pinned(held):
    rng = SplitMix64(35)
    if held:
        rng.gaussian_block(1)
    integers, *ragged = rng.recipe_block(100, suite._LEMMA_DRAW)
    assert integers.shape == (100,) and integers.dtype == np.uint64
    got = (_digest(integers), [(_digest(r.values), _digest(r.counts)) for r in ragged], rng._pos, _spare(rng))
    assert got == _LEMMA_PINS[held]
