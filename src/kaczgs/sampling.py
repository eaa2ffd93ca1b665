"""Deterministic, seedable randomness and norm-weighted index sampling.

Every stochastic component of the package draws from one fixed recurrence so
that a run is reproducible bit-for-bit from its 64-bit seed, on any platform
and in any language that reimplements the recurrence below.

PRNG recurrence (all arithmetic mod 2**64):

  splitmix64(s):
      s' = s + 0x9E3779B97F4A7C15
      z  = s'
      z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
      z ^= z >> 27;  z *= 0x94D049BB133111EB
      z ^= z >> 31
      returns (s', z)

  seeding: the four xoshiro256++ state words are four successive splitmix64
  outputs starting from the 64-bit seed.

  xoshiro256++ step:
      out = rotl(s0 + s3, 23) + s0
      t   = s1 << 17
      s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3;  s2 ^= t
      s3  = rotl(s3, 45)

  uniform in [0, 1): (out >> 11) * 2**-53.

  standard normal: one Box-Muller evaluation per call, consuming exactly two
  uniforms u1, u2 (in that order) and returning

      sqrt(-2 * ln(1 - u1)) * cos(2 * pi * u2)

  The cosine-partner variate is discarded; no state is cached between calls.

Row/column selection uses cumulative squared-norm weights with a binary
search per draw, so an index is chosen with probability proportional to its
squared Euclidean norm and zero-weight indices are never returned.
"""
from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .errors import ConfigurationError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def check_seed(seed: int) -> int:
    """Return seed unchanged if it lies in [0, 2**64); else raise ConfigurationError.

    Seeds are never reduced mod 2**64 on entry: 2**64 would silently alias
    seed 0.
    """
    if not 0 <= seed <= _MASK64:
        raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (advanced state, 64-bit output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class Prng:
    """xoshiro256++ generator seeded by splitmix64 expansion of a 64-bit seed.

    Single-owner mutable state: never share one instance across concurrent
    tasks. Spawn one per trial via :func:`spawn_trial_rng`.
    """

    __slots__ = ("seed", "_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        s = self.seed
        s, self._s0 = splitmix64(s)
        s, self._s1 = splitmix64(s)
        s, self._s2 = splitmix64(s)
        s, self._s3 = splitmix64(s)
        if self._s0 == self._s1 == self._s2 == self._s3 == 0:
            self._s0 = 1  # all-zero state would be a fixed point

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s0 + s3) & _MASK64
        result = (((x << 23) & _MASK64 | (x >> 41)) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 << 45) & _MASK64 | (s3 >> 19)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def gaussian(self) -> float:
        """Standard-normal draw; consumes exactly two uniforms per call."""
        u1 = self.uniform()
        u2 = self.uniform()
        # evaluated exactly as documented, so reimplementations agree bitwise
        return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)


def spawn_trial_rng(base_seed: int, trial: int) -> Prng:
    """Deterministic per-trial generator: seed = splitmix64(base_seed + trial).

    base_seed must be a valid 64-bit seed; the sum wraps mod 2**64 like the
    rest of the recurrence. Distinct trials get distinct streams; the same
    (base_seed, trial) pair always yields the same stream regardless of
    scheduling.
    """
    check_seed(base_seed)
    _, derived = splitmix64((base_seed + trial) & _MASK64)
    return Prng(derived)


class WeightedIndex:
    """Discrete distribution over 0..k-1 with probabilities w_i / sum(w).

    Sampling is a binary search over the cumulative weights, O(log k) per
    draw. Indices with zero weight are never returned.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ConfigurationError("weights must be a nonempty 1-D array")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ConfigurationError("weights must be finite and nonnegative")
        total = float(w.sum())
        if total <= 0.0:
            raise ConfigurationError("all sampling weights are zero")
        self.support_size = int(w.size)
        self.cum_weights = np.cumsum(w)
        self.total = float(self.cum_weights[-1])
        self._weights = w
        self._cum_list = self.cum_weights.tolist()
        # rightmost index with positive weight, for the u == total edge case
        self._last_positive = int(np.flatnonzero(w > 0)[-1])

    def probabilities(self) -> np.ndarray:
        return self._weights / self.total

    def sample(self, rng: Prng) -> int:
        u = rng.uniform() * self.total
        idx = bisect_right(self._cum_list, u)
        if idx > self._last_positive:  # float rounding pushed u to the total
            return self._last_positive
        return idx


def row_distribution(matrix) -> WeightedIndex:
    """Row index distribution with Pr(i) proportional to the squared row norm."""
    if matrix.frob_sq <= 0.0:
        raise ConfigurationError("cannot sample rows of an all-zero matrix")
    return WeightedIndex(matrix.row_norms_sq)


def col_distribution(matrix) -> WeightedIndex:
    """Column index distribution with Pr(j) proportional to the squared column norm."""
    if matrix.frob_sq <= 0.0:
        raise ConfigurationError("cannot sample columns of an all-zero matrix")
    return WeightedIndex(matrix.col_norms_sq)
