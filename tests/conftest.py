"""Shared test helpers."""
from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest

from kaczgs.linalg import Regime
from kaczgs.problems import GenSpec, gen_gaussian
from kaczgs.solvers import SolverKind


M64 = (1 << 64) - 1


# --- independent reference implementation of the documented recurrence ------
# Deliberately transcribed from the docs in a different style than the
# package (expanded temporaries, list state, one draw per call) to serve as
# an oracle.

def ref_splitmix_stream(seed, count):
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


class RefGenerator:
    def __init__(self, seed):
        self.state = ref_splitmix_stream(seed, 4)

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


# --- the README's index-selection rule, written independently of the package --

def bisect_sampler(weights):
    """u -> index, one uniform per draw, as the README states the rule.

    bisect_right over the cumulative weights for u * total, clamped to the
    last index with positive weight.
    """
    cum = list(accumulate(float(w) for w in weights))
    total = cum[-1]
    last_positive = max(k for k, w in enumerate(weights) if w > 0)
    return lambda u: min(bisect_right(cum, u * total), last_positive)


#: what one step draws, in order: rows by squared row norm, columns by squared column norm
STEP_DRAWS = {
    SolverKind.RK: ("row",),
    SolverKind.RGS: ("col",),
    SolverKind.REK: ("row", "col"),
    SolverKind.REGS: ("col", "row"),
}


def reference_draws(system, kind, seed, steps):
    """Index tuples of `steps` steps of a run seeded `seed`, one reference uniform per draw."""
    rng = RefGenerator(seed)
    norms = {"row": system.X.row_norms_sq, "col": system.X.col_norms_sq}
    samplers = [bisect_sampler(norms[axis].tolist()) for axis in STEP_DRAWS[kind]]
    for _ in range(steps):
        yield tuple(sample(rng.uniform()) for sample in samplers)


def gaussian_system(m: int, n: int, regime: Regime, seed: int, noise_scale: float = 1.0):
    return gen_gaussian(GenSpec(m=m, n=n, regime=regime, seed=seed, noise_scale=noise_scale))


# --- exhaustive one-step enumeration oracles --------------------------------

def rk_one_step(system, beta, row):
    xi = system.X.data[row]
    return beta + ((system.y[row] - xi @ beta) / system.X.row_norms_sq[row]) * xi


def rgs_one_step(system, beta, col):
    xj = system.X.data[:, col]
    resid = system.y - system.X.data @ beta
    scale = (xj @ resid) / system.X.col_norms_sq[col]
    out = np.array(beta, dtype=float)
    out[col] += scale
    return out


def rk_enumerated_expected_error(system, beta, ref):
    """E ||beta_1 - ref||^2 by summing over every possible row draw."""
    probs = system.X.row_norms_sq / system.X.frob_sq
    total = 0.0
    for i, p in enumerate(probs):
        if p == 0:
            continue
        diff = rk_one_step(system, beta, i) - ref
        total += p * float(diff @ diff)
    return total


def rgs_enumerated_expected_xerror(system, beta, ref):
    """E ||X beta_1 - X ref||^2 by summing over every possible column draw."""
    probs = system.X.col_norms_sq / system.X.frob_sq
    total = 0.0
    for j, p in enumerate(probs):
        if p == 0:
            continue
        diff = system.X.data @ (rgs_one_step(system, beta, j) - ref)
        total += p * float(diff @ diff)
    return total


@pytest.fixture
def rng_numpy():
    return np.random.default_rng(12345)
