import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkmetrics.rng import _GAMMA, _MIX1, _MIX2, SplitMix64, derive_seed

MASK = (1 << 64) - 1
# Seeds near 0 and near 2**64, where the state advance wraps.
EDGE_SEEDS = st.one_of(st.integers(0, 1000), st.integers(MASK - 1000, MASK))


class TestSplitMix64:
    def test_seed_zero_reference_outputs(self):
        rng = SplitMix64(0)
        assert [rng.next_uint64() for _ in range(3)] == [
            0x80B76C41CDD67260,
            0x742D7B0686A972BD,
            0xBBF2FC2E0635CF40,
        ]

    def test_determinism(self):
        a = SplitMix64(12345)
        b = SplitMix64(12345)
        assert [a.next_uint64() for _ in range(100)] == [b.next_uint64() for _ in range(100)]

    def test_uniform_range(self):
        rng = SplitMix64(7)
        for _ in range(1000):
            u = rng.random()
            assert 0.0 <= u < 1.0

    def test_exponential_positive_and_mean(self):
        rng = SplitMix64(99)
        draws = [rng.exponential(5.0) for _ in range(10_000)]
        assert all(v > 0 for v in draws)
        assert abs(math.fsum(draws) / len(draws) - 5.0) <= 0.5

    def test_exponential_draws_pinned(self):
        # Inverse transform of the pinned stream; -log(u) scales with the mean.
        rng = SplitMix64(0)
        assert [rng.exponential(5.0) for _ in range(3)] == [
            3.4378258349194484, 3.9502844322372814, 1.5450297065786336,
        ]
        assert SplitMix64(0).exponential(1e-300) == 6.875651669838897e-301
        assert SplitMix64(0).exponential(1e300) == 6.875651669838897e+299

    def test_top_draw_is_positive(self):
        # The output's top 53 bits are all ones: (2**53 - 1) + 0.5 rounds to
        # 2**53, which made u = 1.0 and the draw -0.0. It takes the largest
        # u below 1.0 instead, so the draw is mean * 2**-53.
        seed = _seed_with_first_output(0xFFFFFFFFFFFFF800)
        assert seed == 0x5EDF305358952A0A
        assert SplitMix64(seed).exponential(5.0) == 5.0 * 2.0**-53 > 0
        # The next top bits down keep the inverse transform of the centred u.
        below = SplitMix64(_seed_with_first_output(0xFFFFFFFFFFFFF000)).exponential(5.0)
        assert below == -5.0 * math.log(1.0 - 2.0**-52) > 5.0 * 2.0**-53

    def test_mean_whose_smallest_draw_rounds_to_zero_rejected(self):
        # The smallest draw is mean * 2**-53, which rounds to 0.0 at the
        # smallest normal float and below it, and to 5e-324 just above it.
        top = _seed_with_first_output(0xFFFFFFFFFFFFF800)
        for mean in (sys.float_info.min, 1e-322, 5e-324):
            with pytest.raises(ValueError, match=f"^mean {mean!r} is so small that a draw rounds to 0.0$"):
                SplitMix64(top).exponential(mean)
        assert SplitMix64(top).exponential(math.nextafter(sys.float_info.min, 1.0)) == 5e-324
        rng = SplitMix64(3)
        assert all(rng.exponential(math.nextafter(sys.float_info.min, 1.0)) > 0 for _ in range(1000))

    def test_derive_seed_streams_differ(self):
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 0) == derive_seed(42, 0)


def _seed_with_first_output(z: int) -> int:
    """The seed whose first next_uint64() returns z: the output mix undone."""
    for shift, mix in ((31, _MIX2), (27, _MIX1), (30, None)):
        x = z
        for _ in range(64 // shift + 1):  # x ^ (x >> shift) = z, solved top down
            x = z ^ (x >> shift)
        z = x if mix is None else x * pow(mix, -1, 1 << 64) & MASK
    return (z - _GAMMA) & MASK


class TestUint64Block:
    @settings(max_examples=200, deadline=None)
    @given(seed=EDGE_SEEDS, k=st.integers(0, 300))
    def test_block_equals_scalar_draws(self, seed, k):
        block = SplitMix64(seed).uint64_block(k)
        scalar = SplitMix64(seed)
        assert block.dtype == np.uint64 and block.shape == (k,)
        assert block.tolist() == [scalar.next_uint64() for _ in range(k)]

    @settings(max_examples=100, deadline=None)
    @given(seed=EDGE_SEEDS, a=st.integers(0, 300), b=st.integers(0, 300))
    def test_block_and_scalar_calls_continue_one_stream(self, seed, a, b):
        expected = SplitMix64(seed)
        stream = [expected.next_uint64() for _ in range(2 * a + 2 * b)]
        rng = SplitMix64(seed)
        drawn = rng.uint64_block(a).tolist()
        drawn += [rng.next_uint64() for _ in range(b)]
        drawn += rng.uint64_block(b).tolist()
        drawn += [rng.next_uint64() for _ in range(a)]
        assert drawn == stream

    def test_seed_zero_reference_outputs(self):
        assert SplitMix64(0).uint64_block(3).tolist() == [
            0x80B76C41CDD67260,
            0x742D7B0686A972BD,
            0xBBF2FC2E0635CF40,
        ]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            SplitMix64(1).uint64_block(-1)


class TestExponentialBlock:
    MEANS = st.sampled_from(
        [5.0, 1e-300, 3.7e200, 8.9e-308, math.nextafter(sys.float_info.min, 1.0)]
    )

    @settings(max_examples=200, deadline=None)
    @given(seed=EDGE_SEEDS, k=st.integers(0, 300), mean=MEANS)
    def test_block_equals_scalar_draws(self, seed, k, mean):
        rng, scalar = SplitMix64(seed), SplitMix64(seed)
        block = rng.exponential_block(k, mean)
        assert all(type(v) is float for v in block)
        assert [v.hex() for v in block] == [scalar.exponential(mean).hex() for _ in range(k)]
        assert rng.next_uint64() == scalar.next_uint64()  # the stream goes on in step

    def test_top_draw_takes_the_largest_u_below_one(self):
        # The first output's top 53 bits are all ones, as in test_top_draw_is_positive.
        seed = _seed_with_first_output(0xFFFFFFFFFFFFF800)
        block = SplitMix64(seed).exponential_block(2, 5.0)
        scalar = SplitMix64(seed)
        assert block == [scalar.exponential(5.0), scalar.exponential(5.0)]
        assert block[0] == 5.0 * 2.0**-53 > 0

    @pytest.mark.parametrize(
        "mean, message",
        [
            (0.0, "mean must be positive and finite"),
            (-1.0, "mean must be positive and finite"),
            (math.nan, "mean must be positive and finite"),
            (math.inf, "mean must be positive and finite"),
            (sys.float_info.min, "is so small that a draw rounds to 0.0"),
        ],
    )
    def test_bad_mean_rejected_before_any_draw(self, mean, message):
        rng = SplitMix64(7)
        with pytest.raises(ValueError, match=message):
            rng.exponential_block(10, mean)
        assert rng.next_uint64() == SplitMix64(7).next_uint64()
