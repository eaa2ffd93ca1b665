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

  standard normal: one Box-Muller evaluation per variate, consuming exactly
  two successive uniforms u1, u2 (in that order) and returning

      sqrt(-2 * ln(1 - u1)) * cos(2 * pi * u2)

  The cosine-partner variate is discarded; no state is cached between draws.

``batch_uniforms(rngs, k)`` is the one implementation of the step, and
``Prng.uniforms(k)`` and ``Prng.gaussians(k)`` draw through it: a block of
a + b draws equals a block of a then a block of b, for one generator or
several.

The step's state update is linear over GF(2): the 256-bit state after n
steps is A^n times the state, for one fixed 256x256 bit matrix A. A block
of k draws is therefore computed in L lanes of K = 2**kappa consecutive
steps each (L K >= k). Lane l starts at the state l K steps on, reached
from lane 0 by the cached powers A^(2**j) (Blackman & Vigna, "Scrambled
linear pseudorandom number generators", ACM TOMS 2021; Haramoto et al.,
"Efficient jump ahead for F2-linear random number generators", INFORMS J.
Comput. 2008): lanes [c, 2c) are A^(c K) applied to lanes [0, c). A power
is applied as the XOR of the images of the state's set bits, looked up
four bits at a time; it is integer arithmetic only. All lanes then take
their K steps together in ``np.uint64`` arithmetic, which wraps mod 2**64
like the recurrence, and draw i of the block is step i mod K of lane
i // K. So the block is the stream's next k draws bit for bit, and the
generator keeps the state after draw k.

Row/column selection maps one uniform u per draw to the first index whose
cumulative squared-norm weight exceeds u * total (``np.searchsorted`` over a
whole block of draws, clamped to the last positive-weight index), so an
index is chosen with probability proportional to its squared Euclidean norm
and zero-weight indices are never returned.
"""
from __future__ import annotations

import math
import threading

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


# ---------------------------------------------------------------------------
# xoshiro256++ in lanes

#: ``_LADDER[j]`` is A^(2**j), the state map of 2**j steps, as the images of
#: the 256 state bits: row c holds the four words of A^(2**j) applied to the
#: state whose only set bit is bit c % 64 of word c // 64. Each level is 8 KB
#: and is built on first use, from the level below by squaring, under the lock.
_LADDER: list[np.ndarray] = []
_LADDER_LOCK = threading.Lock()
_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)[:, None]
_NIBBLE_POSITIONS = np.arange(64)[:, None]


def _step_lanes(state: np.ndarray, steps: int, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance each column of the (4, N) state `steps` xoshiro256++ steps in place.

    Returns the (steps, N) 53-bit outputs ``out >> 11`` and a copy of the
    state after `keep` steps (1 <= keep <= steps).
    """
    s0, s1, s2, s3 = state
    n = state.shape[1]
    sums = np.empty((steps, n), np.uint64)  # s0 + s3 before each step
    firsts = np.empty((steps, n), np.uint64)  # s0 before each step
    t, r = np.empty(n, np.uint64), np.empty(n, np.uint64)
    by17, by45, by19 = (np.full(n, b, np.uint64) for b in (17, 45, 19))
    kept = None
    for i in range(steps):
        if i == keep:
            kept = state.copy()
        np.add(s0, s3, out=sums[i])
        firsts[i] = s0
        np.left_shift(s1, by17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, by45, out=r)
        np.right_shift(s3, by19, out=s3)
        s3 |= r
    rotated = sums << 23
    sums >>= 41
    sums |= rotated
    sums += firsts
    sums >>= 11
    return sums, state.copy() if kept is None else kept


def _level(j: int) -> np.ndarray:
    """A^(2**j) from the ladder, building the missing levels up to j."""
    if j >= len(_LADDER):
        with _LADDER_LOCK:
            if not _LADDER:
                bit = np.arange(256)
                basis = np.zeros((4, 256), np.uint64)
                basis[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
                _step_lanes(basis, 1, 1)
                _LADDER.append(np.ascontiguousarray(basis.T))
            while len(_LADDER) <= j:
                # A^(2**(i+1)) e_c = A^(2**i) (A^(2**i) e_c)
                _LADDER.append(np.ascontiguousarray(_jump(len(_LADDER) - 1, _LADDER[-1].T).T))
    return _LADDER[j]


def _jump(j: int, state: np.ndarray) -> np.ndarray:
    """A^(2**j) applied to each column of the (4, N) state, as a (4, N) array.

    The result is the XOR of the images of the state's set bits. Nibble p of
    the state (bits 4p..4p+3) with value v selects table[v, p], the XOR of
    the images of v's bits there, so a column costs 64 lookups.
    """
    images = _level(j).reshape(64, 4, 4).transpose(1, 0, 2)  # (bit of nibble, nibble, word)
    table = np.empty((16, 64, 4), np.uint64)
    table[0] = 0
    for b in range(4):
        np.bitwise_xor(table[: 1 << b], images[b], out=table[1 << b : 2 << b])
    table = table.reshape(1024, 4)
    out = np.empty_like(state)
    for lo in range(0, state.shape[1], 64):  # 64 columns keep the looked-up rows at 128 KB
        part = state[:, lo : lo + 64]
        nibbles = (part[:, None, :] >> _NIBBLE_SHIFTS) & np.uint64(15)  # (word, nibble of word, column)
        rows = nibbles.reshape(64, -1).astype(np.intp) * 64 + _NIBBLE_POSITIONS
        out[:, lo : lo + 64] = np.bitwise_xor.reduce(np.take(table, rows, axis=0), axis=0).T
    return out


def _lane_log_steps(draws: int) -> int:
    """kappa for a block of `draws` draws over all generators: lanes of 2**kappa steps.

    A step costs about ten numpy calls whatever the number of lanes, and
    each lane costs one 64-entry lookup to start. 2**kappa near twice the
    cube root of the draws was within 10% of the fastest choice from 64 to
    73 320 draws, for one generator and for 16.
    """
    return max(3, (draws.bit_length() + 3) // 3)


def batch_uniforms(rngs, k: int) -> np.ndarray:
    """The next k uniform draws in [0, 1) of each generator, one row per generator.

    Row g equals what ``rngs[g].uniforms(k)`` would return, and each
    generator is left in the same state.
    """
    count = len(rngs)
    if k == 0:
        return np.empty((count, 0))
    kappa = _lane_log_steps(count * k)
    steps = 1 << kappa
    lanes = -(-k // steps)
    start = np.empty((4, lanes, count), np.uint64)
    start[:, 0] = np.array([rng._state for rng in rngs], dtype=np.uint64).T
    done, j = 1, kappa
    while done < lanes:  # lanes [done, 2 done) start 2**j = done * steps later than lanes [0, done)
        c = min(done, lanes - done)
        start[:, done : done + c] = _jump(j, start[:, :c].reshape(4, c * count)).reshape(4, c, count)
        done += c
        j += 1
    out, kept = _step_lanes(start.reshape(4, lanes * count), steps, k - (lanes - 1) * steps)
    for rng, state in zip(rngs, kept[:, -count:].T.tolist()):  # the last lane ends at draw k
        rng._state = tuple(state)
    draws = out.reshape(steps, lanes, count).transpose(2, 1, 0).reshape(count, lanes * steps)
    # 53-bit integers convert to float exactly, and scaling by 2**-53 is exact
    return draws[:, :k] * 1.1102230246251565e-16


class Prng:
    """xoshiro256++ generator seeded by splitmix64 expansion of a 64-bit seed.

    Single-owner mutable state: never share one instance across concurrent
    tasks. Spawn one per trial via :func:`spawn_trial_rng`.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        s = self.seed
        words = []
        for _ in range(4):
            s, word = splitmix64(s)
            words.append(word)
        # 4 distinct states (seed + k * _GOLDEN, _GOLDEN odd), a bijective mix: never all 0
        self._state = tuple(words)

    def uniforms(self, k: int) -> np.ndarray:
        """The next k uniform draws in [0, 1), one xoshiro256++ step each."""
        return batch_uniforms([self], k)[0]

    def gaussians(self, k: int) -> np.ndarray:
        """The next k standard-normal draws; each consumes two uniforms u1, u2."""
        out = np.empty(k)
        for start in range(0, k, 4096):  # bounded blocks keep the transient arrays small
            u = self.uniforms(2 * min(4096, k - start))
            # evaluated exactly as documented, so reimplementations agree bitwise. Only
            # log and cos stay on libm's math.log/math.cos: numpy's own log differs from
            # it in the last bit on some inputs (3457 of 10**6 measured), while -, *
            # and sqrt are correctly rounded IEEE operations in either
            log = np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), float, len(u) // 2)
            cos = np.fromiter(map(math.cos, (2.0 * math.pi * u[1::2]).tolist()), float, len(u) // 2)
            out[start : start + len(log)] = np.sqrt(-2.0 * log) * cos
        return out


def spawn_trial_rng(base_seed: int, trial: int) -> Prng:
    """Deterministic per-trial generator: seed = splitmix64(base_seed + trial).

    base_seed and trial must each lie in [0, 2**64), as seeds do; neither is
    reduced mod 2**64 on entry, since trial 2**64 would silently alias trial
    0. Their sum wraps mod 2**64 like the rest of the recurrence. Distinct
    trials get distinct streams; the same (base_seed, trial) pair always
    yields the same stream regardless of scheduling.
    """
    check_seed(base_seed)
    if not 0 <= trial <= _MASK64:
        raise ConfigurationError(f"trial must be a 64-bit unsigned integer, got {trial}")
    _, derived = splitmix64((base_seed + trial) & _MASK64)
    return Prng(derived)


class WeightedIndex:
    """Discrete distribution over 0..k-1 with probabilities w_i / sum(w).

    Sampling is a binary search over the cumulative weights, O(log k) per
    draw, done for a whole array of uniforms at once. Indices with zero
    weight are never returned.
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
        self.cum_weights = np.cumsum(w)
        self.total = float(self.cum_weights[-1])
        # rightmost index with positive weight, for the u == total edge case
        self._last_positive = int(np.flatnonzero(w > 0)[-1])

    def sample_block(self, uniforms: np.ndarray) -> np.ndarray:
        """One index per uniform u: the first whose cumulative weight exceeds u * total."""
        idx = np.searchsorted(self.cum_weights, uniforms * self.total, side="right")
        # float rounding can push u * total to the total, past every positive weight
        return np.minimum(idx, self._last_positive, out=idx)


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
