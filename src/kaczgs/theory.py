"""Closed-form convergence-bound evaluators.

All four methods share the contraction factor

    alpha = 1 - sigma_min(X)^2 / ||X||_F^2,

with sigma_min the smallest nonzero singular value. The extended-method
bound for the least-norm setting is

    alpha^t ||beta_LN||^2 + 2 alpha^floor(t/2) B / (1 - alpha),
    B = ||X beta_LN||^2 / ||X||_F^2,

and plain Kaczmarz on an inconsistent system carries the additive
convergence horizon ||r||^2 / sigma_min^2 below which it cannot descend.

Randomized Gauss-Seidel contracts the objective gap, E||X(beta_t - ref)||^2
<= alpha^t ||X ref||^2 (Leventhal & Lewis, Math. Oper. Res. 2010), not the
Euclidean error. With ||e||^2 <= ||X e||^2 / lambda_min its error bound is

    alpha^t ||X ref||^2 / lambda_min,

which is never below alpha^t ||ref||^2. That smaller form is not a bound:
on a 4x3 system with column scales 1, 10 and 0.1 the exact E||e_1||^2 is
1.34 times it.

The extended-Kaczmarz bound is Zouzias & Freris's ("Randomized extended
Kaczmarz for solving least squares", SIMAX 2013)

    alpha^floor(t/2) (1 + 2 kappa^2) ||ref||^2,

which scales with y and at t = 0 dominates the deterministic initial error
||ref||^2. The other published form, alpha^floor(t/2) (1 + 2 (sigma_min /
sigma_max)^2 ||ref||^2), does neither: on the 300x30 over-inconsistent
Gaussian system of seed 1 it gives 27.9 at t = 0, below the exact initial
error 47.3, so it is not a bound and is not offered.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .linalg import LinearSystem, Regime, spectral_summary


@dataclass(frozen=True)
class TheoryBound:
    """Spectral constants feeding the per-iteration bound evaluators.

    alpha: contraction factor 1 - sigma_min^2 / ||X||_F^2, in [0, 1).
    B: ||X ref||^2 / ||X||_F^2 (the extended-method forcing term).
    rgs_init: ||X ref||^2 / lambda_min, and never below ||ref||^2 where it
        rounds there: the RGS error bound at t = 0.
    kappa_sq_term: 1 + 2 kappa^2 with kappa the condition number.
    horizon: ||r||^2 / sigma_min^2 for inconsistent systems, else exactly 0.
    """

    alpha: float
    B: float
    rgs_init: float
    kappa_sq_term: float
    horizon: float

    @classmethod
    def from_system(cls, system: LinearSystem) -> "TheoryBound":
        if system.reference is None:
            raise ConfigurationError("TheoryBound requires a system with a reference solution")
        summary = spectral_summary(system.X)
        frob_sq = system.X.frob_sq
        # rank one leaves lambda_min = ||X||_F^2 up to rounding, which can push alpha
        # below 0, and a negative alpha^t alternates in sign
        alpha = max(0.0, 1.0 - summary.lambda_min / frob_sq)
        inconsistent = system.regime is Regime.OVER_INCONSISTENT
        if inconsistent and system.residual_ref is None:
            raise ConfigurationError("inconsistent system needs residual_ref for the horizon term")
        ref, r = system.reference, system.residual_ref
        with np.errstate(over="ignore"):  # an overflow is rejected below
            xref = system.X.data @ ref
            xref_sq, ref_sq = float(xref @ xref), float(ref @ ref)
            r_sq = float(r @ r) if inconsistent else 0.0
        bound = cls(
            alpha=alpha,
            B=xref_sq / frob_sq,
            rgs_init=max(xref_sq / summary.lambda_min, ref_sq),
            kappa_sq_term=1.0 + 2.0 * summary.kappa**2,
            horizon=r_sq / summary.lambda_min,
        )
        # an inf here would print inf bounds, and NaN once alpha^t underflows to 0
        if not all(map(math.isfinite, (ref_sq, bound.B, bound.rgs_init, bound.kappa_sq_term,
                                       bound.horizon))):
            raise NumericalError(f"the bound constants overflow float64: {bound}")
        return bound


def _check_iteration(t: int):
    if t < 0:
        raise ConfigurationError(f"iteration index must be nonnegative, got {t}")


def bound_rk_consistent(bound: TheoryBound, t: int, init_err_sq: float) -> float:
    """alpha^t * init_err_sq — consistent-regime expected-error envelope.

    Also the plain Gauss-Seidel bound, with init_err_sq = ``rgs_init``.
    """
    _check_iteration(t)
    return bound.alpha**t * init_err_sq


def bound_rk_inconsistent(bound: TheoryBound, t: int, init_err_sq: float) -> float:
    """alpha^t * init_err_sq + horizon; collapses to the consistent bound when r = 0."""
    _check_iteration(t)
    return bound.alpha**t * init_err_sq + bound.horizon


def bound_rek(bound: TheoryBound, t: int, norm_ref_sq: float) -> float:
    """Extended-Kaczmarz bound alpha^floor(t/2) * (1 + 2 kappa^2) * norm_ref_sq."""
    _check_iteration(t)
    return bound.alpha ** (t // 2) * bound.kappa_sq_term * norm_ref_sq


def bound_regs(bound: TheoryBound, t: int, norm_ln_sq: float) -> float:
    """Extended Gauss-Seidel bound alpha^t ||b_LN||^2 + 2 alpha^floor(t/2) B/(1-alpha)."""
    _check_iteration(t)
    if bound.alpha >= 1.0:
        raise NumericalError(f"bound is vacuous for alpha = {bound.alpha} >= 1")
    return bound.alpha**t * norm_ln_sq + 2.0 * bound.alpha ** (t // 2) * bound.B / (
        1.0 - bound.alpha
    )

