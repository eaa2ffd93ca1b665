"""PRNG stream reproducibility and weighted index sampling."""
from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaczgs import sampling
from kaczgs.errors import ConfigurationError
from kaczgs.linalg import DenseMatrix
from kaczgs.sampling import (
    Prng,
    WeightedIndex,
    _lane_log_steps,
    batch_uniforms,
    col_distribution,
    row_distribution,
    spawn_trial_rng,
    splitmix64,
)
from kaczgs.solvers import DRAW_BUDGET

from conftest import M64, RefGenerator, bisect_sampler, ref_splitmix_stream


class TestPrngStream:
    def test_matches_reference_implementation(self):
        for seed in (0, 1, 7, 42, 2**64 - 1):
            ref = RefGenerator(seed)
            assert Prng(seed).uniforms(64).tolist() == [ref.uniform() for _ in range(64)]

    def test_frozen_first_outputs_seed1(self):
        frozen_u64 = (
            14971601782005023387,
            13781649495232077965,
            1847458086238483744,
            13765271635752736470,
        )
        assert Prng(1).uniforms(4).tolist() == [(out >> 11) * 2.0**-53 for out in frozen_u64]

    def test_frozen_first_gaussians_seed1(self):
        assert Prng(1).gaussians(2).tolist() == [-0.03323709594059198, -0.01091916499162517]

    def test_gaussian_matches_reference(self):
        # 1100 normals span three of gaussians' internal blocks
        ref = RefGenerator(9)
        assert Prng(9).gaussians(1100).tolist() == [ref.gaussian() for _ in range(1100)]

    @pytest.mark.parametrize("a, b", [(0, 3), (3, 0), (511, 2), (512, 513), (700, 900)])
    def test_split_gaussians_equal_one_call(self, a, b):
        split, whole = Prng(5), Prng(5)
        drawn = split.gaussians(a).tolist() + split.gaussians(b).tolist()
        assert drawn == whole.gaussians(a + b).tolist()
        assert split.uniforms(4).tolist() == whole.uniforms(4).tolist()  # same state afterwards

    def test_identical_seed_identical_stream(self):
        a, b = Prng(123456789), Prng(123456789)
        assert a.uniforms(100).tolist() == b.uniforms(100).tolist()

    def test_uniform_range(self):
        draws = Prng(3).uniforms(10_000)
        assert np.all((0.0 <= draws) & (draws < 1.0))

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
        assert abs(Prng(7).gaussians(100_000).mean()) <= 0.02

    def test_gaussian_sample_variance(self):
        assert abs(Prng(7).gaussians(100_000).var() - 1.0) <= 0.03


class TestSpawnTrialRng:
    def test_distinct_trials_distinct_streams(self):
        assert spawn_trial_rng(0, 0).uniforms(1)[0] != spawn_trial_rng(0, 1).uniforms(1)[0]

    def test_same_trial_same_stream(self):
        a, b = spawn_trial_rng(42, 5), spawn_trial_rng(42, 5)
        assert a.uniforms(20).tolist() == b.uniforms(20).tolist()

    def test_derived_seed_matches_recurrence(self):
        derived = ref_splitmix_stream(42 + 5, 1)[0]
        rng = spawn_trial_rng(42, 5)
        assert rng.seed == derived == 8913683988413733765
        first = (18075554809989720414 >> 11) * 2.0**-53
        assert rng.uniforms(1)[0] == RefGenerator(derived).uniform() == first

    def test_base_seed_past_64_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            spawn_trial_rng(2**64, 0)

    def test_base_plus_trial_wraps(self):
        # the base is checked; base + trial wraps mod 2**64 like the recurrence
        assert spawn_trial_rng(2**64 - 1, 1).seed == spawn_trial_rng(0, 0).seed

    def test_splitmix_helper_agrees(self):
        state, out = splitmix64(99)
        assert out == ref_splitmix_stream(99, 1)[0]
        _, out2 = splitmix64(state)
        assert out2 == ref_splitmix_stream(99, 2)[1]


class TestWeightedIndex:
    def test_zero_row_never_sampled(self):
        dist = row_distribution(DenseMatrix([[3.0, 4.0], [0.0, 0.0]]))
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
        for i, p in enumerate(np.array(weights) / sum(weights)):
            slack = 4.0 * math.sqrt(p * (1.0 - p) / n_draws)
            assert abs(counts[i] / n_draws - p) <= slack + 1e-12

    def test_cumulative_diffs_match_weight_ratios(self):
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.5, 2.0, size=400)
        dist = WeightedIndex(weights)
        diffs = np.diff(np.concatenate([[0.0], dist.cum_weights]))
        assert np.allclose(diffs / dist.total, weights / weights.sum(), rtol=1e-12)


# --- block draws against the one-draw-at-a-time bisect reference -------------

_block_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestBlockDraws:
    @_block_settings
    @given(st.integers(0, M64), st.integers(0, 300), st.integers(0, 300))
    @example(0, 300, 0)
    @example(M64, 0, 300)
    def test_split_blocks_equal_one_block_and_reference(self, seed, a, b):
        split, whole, ref = Prng(seed), Prng(seed), RefGenerator(seed)
        first, second = split.uniforms(a), split.uniforms(b)
        drawn = whole.uniforms(a + b)
        assert drawn.dtype == np.float64 and drawn.shape == (a + b,)
        assert first.tolist() + second.tolist() == drawn.tolist()
        assert drawn.tolist() == [ref.uniform() for _ in range(a + b)]

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


# --- lanes: block sizes on either side of the lane and block boundaries ------

def _lane_edges():
    """Block sizes at and beside L lanes of K steps: one lane of 8, 24 lanes of 8, 200 of 32.

    Each triple k - 1, k, k + 1 shares its lane length K, so it straddles the
    lane boundary it names.
    """
    sizes = []
    for lanes, kappa in ((1, 3), (24, 3), (200, 5)):
        k = lanes << kappa
        assert [_lane_log_steps(v) for v in (k - 1, k, k + 1)] == [kappa] * 3
        sizes += [k - 1, k, k + 1]
    return sizes


_EDGES = _lane_edges()


class TestLanes:
    @pytest.mark.parametrize(
        "k", [1, 2, *_EDGES, DRAW_BUDGET - 1, DRAW_BUDGET, DRAW_BUDGET + 1, 73_320]
    )
    def test_block_and_next_draw_equal_reference(self, k):
        ref = RefGenerator(k)
        rng = Prng(k)
        assert rng.uniforms(k).tolist() == [ref.uniform() for _ in range(k)]
        assert rng.uniforms(1).tolist() == [ref.uniform()]  # the state after draw k

    @pytest.mark.parametrize("count", [1, 3, 16])
    @pytest.mark.parametrize("k", [0, 1, 9, 256, 1000])
    def test_batch_equals_each_generator_alone(self, count, k):
        alone = [Prng(1000 + g) for g in range(count)]
        batch = [Prng(1000 + g) for g in range(count)]
        drawn = batch_uniforms(batch, k)
        assert drawn.shape == (count, k) and drawn.dtype == np.float64
        for g in range(count):
            assert drawn[g].tolist() == alone[g].uniforms(k).tolist()
        assert batch_uniforms(batch, 5).tolist() == [rng.uniforms(5).tolist() for rng in alone]

    @_block_settings
    @given(
        st.integers(0, M64),
        st.one_of(st.sampled_from(_EDGES), st.integers(0, 3000)),
        st.one_of(st.sampled_from(_EDGES), st.integers(0, 3000)),
    )
    def test_split_across_lane_boundaries_equals_one_block(self, seed, a, b):
        split, whole, ref = Prng(seed), Prng(seed), RefGenerator(seed)
        drawn = split.uniforms(a).tolist() + split.uniforms(b).tolist()
        assert drawn == whole.uniforms(a + b).tolist()
        assert drawn == [ref.uniform() for _ in range(a + b)]
        assert split.uniforms(3).tolist() == whole.uniforms(3).tolist()

    def test_jump_equals_stepping(self):
        # A^(2**j) applied to a state equals 2**j single steps from it
        for j in (0, 1, 5, 9):
            rng = Prng(77)
            start = np.array([rng._state], dtype=np.uint64).T
            jumped = sampling._jump(j, start)[:, 0].tolist()
            rng.uniforms(1 << j)
            assert jumped == list(rng._state)

    def test_ladder_built_by_racing_threads_is_exact(self, monkeypatch):
        sizes = [70_000, 9000, 300, 40_000, 5000, 20_000, 1000, 60_000]
        expected = [Prng(s).uniforms(s).tolist() for s in sizes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                monkeypatch.setattr(sampling, "_LADDER", [])  # every thread finds levels missing
                got = [None] * len(sizes)

                def draw(i):
                    got[i] = Prng(sizes[i]).uniforms(sizes[i]).tolist()

                threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(sizes))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == expected
        finally:
            sys.setswitchinterval(interval)
