import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkmetrics.rng import SplitMix64, derive_seed

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

    def test_derive_seed_streams_differ(self):
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 0) == derive_seed(42, 0)


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
