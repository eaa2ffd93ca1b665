"""The paper's convergence bounds: one curve per (solver, regime) cell.

All four methods share the contraction factor

    alpha = 1 - sigma_min(X)^2 / ||X||_F^2,

with sigma_min the smallest nonzero singular value. ``TheoryBound.curve``
maps each cell to its bound on E||beta_t - ref||^2, with ref the regime's
reference solution, B = ||X ref||^2 / ||X||_F^2 and kappa the condition
number. Plain Kaczmarz cannot descend below the convergence horizon
||r||^2 / sigma_min^2 of an inconsistent system with least-squares residual
r; the horizon is exactly 0 elsewhere, so one RK form serves every regime:

    RK   over-consistent    alpha^t ||ref||^2
    RK   over-inconsistent  alpha^t ||ref||^2 + ||r||^2 / sigma_min^2
    RK   underdetermined    alpha^t ||ref||^2
    RGS  over-consistent    alpha^t ||X ref||^2 / lambda_min
    RGS  over-inconsistent  alpha^t ||X ref||^2 / lambda_min
    RGS  underdetermined    NaN: RGS's limit is not the least-norm ref
    REK  over-consistent    alpha^floor(t/2) (1 + 2 kappa^2) ||ref||^2
    REK  over-inconsistent  alpha^floor(t/2) (1 + 2 kappa^2) ||ref||^2
    REK  underdetermined    alpha^floor(t/2) (1 + 2 kappa^2) ||ref||^2
    REGS over-consistent    alpha^t ||ref||^2 + 2 alpha^floor(t/2) B / (1 - alpha)
    REGS over-inconsistent  alpha^t ||ref||^2 + 2 alpha^floor(t/2) B / (1 - alpha)
    REGS underdetermined    alpha^t ||ref||^2 + 2 alpha^floor(t/2) B / (1 - alpha)

Randomized Gauss-Seidel contracts the objective gap, E||X(beta_t - ref)||^2
<= alpha^t ||X ref||^2 (Leventhal & Lewis, Math. Oper. Res. 2010), not the
Euclidean error. ||e||^2 <= ||X e||^2 / lambda_min carries it to the error
bound above, which is never below alpha^t ||ref||^2. That smaller form is
not a bound: on a 4x3 system with column scales 1, 10 and 0.1 the exact
E||e_1||^2 is 1.34 times it.

The extended-Kaczmarz bound is Zouzias & Freris's ("Randomized extended
Kaczmarz for solving least squares", SIMAX 2013), which scales with y and
at t = 0 dominates the deterministic initial error ||ref||^2. The other
published form, alpha^floor(t/2) (1 + 2 (sigma_min / sigma_max)^2
||ref||^2), does neither: on the 300x30 over-inconsistent Gaussian system
of seed 1 it gives 27.9 at t = 0, below the exact initial error 47.3, so
it is not a bound and is not offered.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .linalg import LinearSystem, Regime, spectral_summary
from .solvers import SolverKind


def _negative_index(t: int) -> ConfigurationError:
    return ConfigurationError(f"iteration index must be nonnegative, got {t}")


@dataclass(frozen=True)
class TheoryBound:
    """One system's bound constants; ``curve`` turns them into each solver's bound.

    alpha: contraction factor 1 - sigma_min^2 / ||X||_F^2, in [0, 1).
    B: ||X ref||^2 / ||X||_F^2 (the extended-method forcing term).
    rgs_init: ||X ref||^2 / lambda_min, and never below ||ref||^2 where it
        rounds there: the RGS error bound at t = 0.
    kappa_sq_term: 1 + 2 kappa^2 with kappa the condition number.
    horizon: ||r||^2 / sigma_min^2 for inconsistent systems, else exactly 0.
    ref_sq: ||ref||^2, the deterministic error at t = 0.
    regime: the system's regime.
    """

    alpha: float
    B: float
    rgs_init: float
    kappa_sq_term: float
    horizon: float
    ref_sq: float
    regime: Regime

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
            ref_sq=ref_sq,
            regime=system.regime,
        )
        # an inf here would print inf bounds, and NaN once alpha^t underflows to 0
        if not all(map(math.isfinite, (ref_sq, bound.B, bound.rgs_init, bound.kappa_sq_term,
                                       bound.horizon))):
            raise NumericalError(f"the bound constants overflow float64: {bound}")
        return bound

    def curve(self, kind: SolverKind) -> Callable[[int], float]:
        """t -> the bound_value of one solver on this system, as the module docstring gives it.

        REGS's bound is vacuous for alpha >= 1, which raises here, before any value is used.
        """
        a, ref_sq, horizon = self.alpha, self.ref_sq, self.horizon
        rgs_init, kappa_sq_term, B = self.rgs_init, self.kappa_sq_term, self.B
        if kind is SolverKind.RGS and self.regime is Regime.UNDERDETERMINED:
            def bound(t: int) -> float:  # RGS's limit is not the least-norm ref
                if t < 0:
                    raise _negative_index(t)
                return math.nan
        elif kind is SolverKind.RK:
            def bound(t: int) -> float:
                if t < 0:
                    raise _negative_index(t)
                return a**t * ref_sq + horizon
        elif kind is SolverKind.RGS:
            def bound(t: int) -> float:
                if t < 0:
                    raise _negative_index(t)
                return a**t * rgs_init
        elif kind is SolverKind.REK:
            def bound(t: int) -> float:
                if t < 0:
                    raise _negative_index(t)
                return a ** (t // 2) * kappa_sq_term * ref_sq
        else:
            if a >= 1.0:
                raise NumericalError(f"bound is vacuous for alpha = {a} >= 1")

            def bound(t: int) -> float:
                if t < 0:
                    raise _negative_index(t)
                return a**t * ref_sq + 2.0 * a ** (t // 2) * B / (1.0 - a)
        return bound
