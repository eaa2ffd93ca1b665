"""PRNG stream reproducibility and weighted index sampling."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaczgs.errors import ConfigurationError
from kaczgs.linalg import DenseMatrix
from kaczgs.sampling import Prng, WeightedIndex, col_distribution, row_distribution, spawn_trial_rng, splitmix64

from conftest import bisect_sampler

M64 = (1 << 64) - 1


# --- independent reference implementation of the documented recurrence ------
# Deliberately transcribed from the docs in a different style than the
# package (expanded temporaries, list state) to serve as an oracle.

def _ref_splitmix_stream(seed, count):
    out = []
    s = seed & M64
    for _ in range(count):
        s = (s + 0x9E3779B97F4A7C15) & M64
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out.append(z ^ (z >> 31))
    return out


def _ref_rotl(x, k):
    return ((x << k) & M64) | (x >> (64 - k))


class _RefGenerator:
    def __init__(self, seed):
        self.state = _ref_splitmix_stream(seed, 4)

    def next_u64(self):
        s0, s1, s2, s3 = self.state
        result = (_ref_rotl((s0 + s3) & M64, 23) + s0) & M64
        t = (s1 << 17) & M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _ref_rotl(s3, 45)
        self.state = [s0, s1, s2, s3]
        return result

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0**-53

    def gaussian(self):
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)


class TestPrngStream:
    def test_matches_reference_implementation(self):
        for seed in (0, 1, 7, 42, 2**64 - 1):
            mine = Prng(seed)
            ref = _RefGenerator(seed)
            assert [mine.next_u64() for _ in range(64)] == [ref.next_u64() for _ in range(64)]

    def test_frozen_first_outputs_seed1(self):
        p = Prng(1)
        assert [p.next_u64() for _ in range(4)] == [
            14971601782005023387,
            13781649495232077965,
            1847458086238483744,
            13765271635752736470,
        ]

    def test_frozen_first_gaussians_seed1(self):
        p = Prng(1)
        assert p.gaussian() == -0.03323709594059198
        assert p.gaussian() == -0.01091916499162517

    def test_gaussian_matches_reference(self):
        mine, ref = Prng(9), _RefGenerator(9)
        for _ in range(100):
            assert mine.gaussian() == ref.gaussian()

    def test_identical_seed_identical_stream(self):
        a, b = Prng(123456789), Prng(123456789)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_uniform_range(self):
        p = Prng(3)
        draws = [p.uniform() for _ in range(10_000)]
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            Prng(-1)

    @pytest.mark.parametrize("seed", [2**64, 2**64 + 1, 2**65])
    def test_seed_past_64_bits_rejected(self, seed):
        # reducing mod 2**64 would alias 2**64 onto seed 0
        with pytest.raises(ConfigurationError, match="64-bit"):
            Prng(seed)

    def test_gaussian_sample_mean(self):
        # CLT: 3 sigma / sqrt(N) ~ 0.0095, widened to 0.02
        p = Prng(7)
        draws = np.array([p.gaussian() for _ in range(100_000)])
        assert abs(draws.mean()) <= 0.02

    def test_gaussian_sample_variance(self):
        p = Prng(7)
        draws = np.array([p.gaussian() for _ in range(100_000)])
        assert abs(draws.var() - 1.0) <= 0.03


class TestSpawnTrialRng:
    def test_distinct_trials_distinct_streams(self):
        assert spawn_trial_rng(0, 0).next_u64() != spawn_trial_rng(0, 1).next_u64()

    def test_same_trial_same_stream(self):
        a, b = spawn_trial_rng(42, 5), spawn_trial_rng(42, 5)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_derived_seed_matches_recurrence(self):
        derived = _ref_splitmix_stream(42 + 5, 1)[0]
        rng = spawn_trial_rng(42, 5)
        assert rng.seed == derived == 8913683988413733765
        assert rng.next_u64() == _RefGenerator(derived).next_u64() == 18075554809989720414

    def test_base_seed_past_64_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            spawn_trial_rng(2**64, 0)

    def test_base_plus_trial_wraps(self):
        # the base is checked; base + trial wraps mod 2**64 like the recurrence
        assert spawn_trial_rng(2**64 - 1, 1).seed == spawn_trial_rng(0, 0).seed

    def test_splitmix_helper_agrees(self):
        state, out = splitmix64(99)
        assert out == _ref_splitmix_stream(99, 1)[0]
        _, out2 = splitmix64(state)
        assert out2 == _ref_splitmix_stream(99, 2)[1]


class TestWeightedIndex:
    def test_equal_rows_half_half(self):
        dist = row_distribution(DenseMatrix(np.eye(2)))
        assert np.allclose(dist.probabilities(), [0.5, 0.5])

    def test_weighted_rows_one_to_four(self):
        dist = row_distribution(DenseMatrix([[1.0, 0.0], [0.0, 2.0]]))
        assert np.allclose(dist.probabilities(), [0.2, 0.8], rtol=1e-14)

    def test_column_weights(self):
        dist = col_distribution(DenseMatrix([[1.0, 2.0]]))
        assert np.allclose(dist.probabilities(), [0.2, 0.8], rtol=1e-14)

    def test_zero_row_never_sampled(self):
        dist = row_distribution(DenseMatrix([[3.0, 4.0], [0.0, 0.0]]))
        assert np.allclose(dist.probabilities(), [1.0, 0.0])
        assert np.all(dist.sample_block(Prng(11).uniforms(10_000)) == 0)

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            row_distribution(DenseMatrix([[0.0, 0.0]]))
        with pytest.raises(ConfigurationError):
            WeightedIndex([0.0, 0.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            WeightedIndex([1.0, -0.5])

    def test_column_frequencies_binomial(self):
        # 3 sigma = 3 sqrt(.2*.8/1e5) ~ 0.0038, spec widens to 0.01
        dist = col_distribution(DenseMatrix([[1.0, 2.0]]))
        draws = dist.sample_block(Prng(3).uniforms(100_000))
        freq1 = (draws == 1).mean()
        assert abs((1.0 - freq1) - 0.2) <= 0.01
        assert abs(freq1 - 0.8) <= 0.01

    def test_empirical_frequencies_within_four_sigma(self):
        weights = [0.5, 3.0, 0.0, 1.25, 7.0, 0.25]
        dist = WeightedIndex(weights)
        n_draws = 100_000
        counts = np.bincount(dist.sample_block(Prng(17).uniforms(n_draws)), minlength=len(weights))
        probs = dist.probabilities()
        for i, p in enumerate(probs):
            slack = 4.0 * math.sqrt(p * (1.0 - p) / n_draws)
            assert abs(counts[i] / n_draws - p) <= slack + 1e-12

    def test_cumulative_diffs_match_weight_ratios(self):
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.5, 2.0, size=400)
        dist = WeightedIndex(weights)
        diffs = np.diff(np.concatenate([[0.0], dist.cum_weights]))
        assert np.allclose(diffs / dist.total, weights / weights.sum(), rtol=1e-12)

    def test_support_size(self):
        assert WeightedIndex([1.0, 2.0, 3.0]).support_size == 3


# --- block draws against the one-draw-at-a-time bisect reference -------------

_block_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestBlockDraws:
    @_block_settings
    @given(st.integers(0, M64), st.integers(0, 300))
    @example(0, 300)
    @example(M64, 300)
    def test_uniforms_equal_repeated_uniform(self, seed, k):
        block, single = Prng(seed), Prng(seed)
        drawn = block.uniforms(k)
        assert drawn.dtype == np.float64 and drawn.shape == (k,)
        assert drawn.tolist() == [single.uniform() for _ in range(k)]
        assert block.next_u64() == single.next_u64()  # same state afterwards

    @_block_settings
    @given(
        st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12).filter(lambda w: sum(w) > 0),
        st.integers(0, 3),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40),
    )
    def test_sample_block_equals_bisect_reference(self, weights, trailing_zeros, uniforms):
        weights = weights + [0.0] * trailing_zeros
        sample = bisect_sampler(weights)
        expected = [sample(u) for u in uniforms]
        assert WeightedIndex(weights).sample_block(np.array(uniforms)).tolist() == expected

    def test_sample_block_clamps_when_u_times_total_rounds_to_total(self):
        # subnormal weights: 0.9999 * total rounds up to total, past every cumulative weight
        weights = [2e-321, 1e-320, 0.0, 0.0]
        dist = WeightedIndex(weights)
        u = np.array([0.9999, 1.0 - 2.0**-53, 0.0, 0.1])
        assert float(u[0] * dist.total) == dist.total
        sample = bisect_sampler(weights)
        expected = [sample(float(v)) for v in u]
        assert expected[:2] == [1, 1]
        assert dist.sample_block(u).tolist() == expected

    def test_sample_block_keeps_shape(self):
        dist = WeightedIndex([1.0, 2.0, 0.0, 3.0])
        u = Prng(4).uniforms(12).reshape(3, 4)
        idx = dist.sample_block(u)
        assert idx.shape == (3, 4)
        assert idx.ravel().tolist() == dist.sample_block(u.ravel()).tolist()
