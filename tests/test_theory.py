"""Bound evaluators: frozen arithmetic, limits, and mean-trace domination."""
from __future__ import annotations


import numpy as np
import pytest

from kaczgs.errors import ConfigurationError, NumericalError
from kaczgs.harness import trial_rng
from kaczgs.linalg import DenseMatrix, LinearSystem, Regime, spectral_summary
from kaczgs.solvers import CONVERGENT_PAIRS, SolveConfig, SolverKind, run
from kaczgs.theory import (
    TheoryBound,
    bound_comparison,
    bound_regs,
    bound_rek,
    bound_rk_consistent,
    bound_rk_inconsistent,
    objective,
    rek_comparison,
    rek_rate_eq,
)

from conftest import gaussian_system


def _bound_for(data) -> TheoryBound:
    X = DenseMatrix(data)
    n = X.cols
    ref = np.zeros(n)
    regime = Regime.OVER_CONSISTENT if X.rows >= n else Regime.UNDERDETERMINED
    sys_ = LinearSystem(X, np.zeros(X.rows), regime, reference=ref)
    return TheoryBound.from_system(sys_)


IDENTITY_BOUND = _bound_for(np.eye(2))  # alpha = 1/2, kappa = 1
DIAG_BOUND = _bound_for([[1.0, 0.0], [0.0, 2.0]])  # alpha = 0.8, kappa = 2


class TestEvaluatorArithmetic:
    def test_rk_consistent_t0_is_initial_error(self):
        assert bound_rk_consistent(DIAG_BOUND, 0, 7.5) == 7.5

    def test_rk_consistent_identity_matrix(self):
        assert IDENTITY_BOUND.alpha == pytest.approx(0.5, rel=1e-12)
        assert bound_rk_consistent(IDENTITY_BOUND, 2, 4.0) == pytest.approx(1.0, rel=1e-12)

    def test_rk_consistent_diag(self):
        assert DIAG_BOUND.alpha == pytest.approx(0.8, rel=1e-12)
        assert bound_rk_consistent(DIAG_BOUND, 3, 1.0) == pytest.approx(0.512, rel=1e-12)

    def test_rk_inconsistent_collapses_when_consistent(self):
        for t in (0, 3, 10):
            assert bound_rk_inconsistent(DIAG_BOUND, t, 2.0) == pytest.approx(
                bound_rk_consistent(DIAG_BOUND, t, 2.0)
            )

    def test_rk_inconsistent_limit_is_horizon(self):
        tb = TheoryBound(alpha=0.8, B=1.0, kappa_sq_term=9.0, horizon=3.25)
        assert bound_rk_inconsistent(tb, 10_000, 5.0) == pytest.approx(3.25)

    def test_rek_t0_with_zero_reference_norm(self):
        assert bound_rek(DIAG_BOUND, 0, 0.0) == pytest.approx(1.0)

    def test_rek_floor_behavior(self):
        assert bound_rek(DIAG_BOUND, 1, 2.0) == bound_rek(DIAG_BOUND, 0, 2.0)

    def test_rek_diag_value(self):
        # alpha^2 * (1 + 2 * (1/4) * 1) = 0.64 * 1.5
        assert bound_rek(DIAG_BOUND, 4, 1.0) == pytest.approx(0.96, rel=1e-12)

    def test_comparison_kappa_one(self):
        assert bound_comparison(IDENTITY_BOUND, 0, 2.0) == pytest.approx(6.0)

    def test_comparison_kappa_two(self):
        assert DIAG_BOUND.kappa_sq_term == pytest.approx(9.0, rel=1e-12)
        assert bound_comparison(DIAG_BOUND, 0, 1.0) == pytest.approx(9.0)

    def test_labeled_aliases(self):
        assert rek_rate_eq is bound_rek
        assert rek_comparison is bound_comparison

    def test_regs_t0_substitution(self):
        tb = TheoryBound(alpha=0.5, B=2.0, kappa_sq_term=3.0, horizon=0.0)
        assert bound_regs(tb, 0, 4.0) == pytest.approx(4.0 + 2.0 * 2.0 / 0.5)

    def test_regs_zero_system(self):
        tb = TheoryBound(alpha=0.5, B=0.0, kappa_sq_term=3.0, horizon=0.0)
        for t in (0, 1, 5, 50):
            assert bound_regs(tb, t, 0.0) == 0.0

    def test_regs_vacuous_alpha_rejected(self):
        tb = TheoryBound(alpha=1.0, B=1.0, kappa_sq_term=3.0, horizon=0.0)
        with pytest.raises(NumericalError):
            bound_regs(tb, 1, 1.0)

    def test_negative_iteration_rejected(self):
        with pytest.raises(ConfigurationError):
            bound_rk_consistent(DIAG_BOUND, -1, 1.0)


class TestTheoryBoundConstruction:
    def test_requires_reference(self):
        sys_ = LinearSystem(DenseMatrix(np.eye(2)), np.ones(2), Regime.OVER_CONSISTENT)
        with pytest.raises(ConfigurationError):
            TheoryBound.from_system(sys_)

    def test_alpha_open_interval_for_generic_systems(self):
        sys_ = gaussian_system(30, 6, Regime.OVER_CONSISTENT, seed=3)
        tb = TheoryBound.from_system(sys_)
        assert 0.0 < tb.alpha < 1.0
        assert tb.horizon == 0.0

    def test_horizon_matches_numpy_oracle(self):
        sys_ = gaussian_system(20, 5, Regime.OVER_INCONSISTENT, seed=11)
        tb = TheoryBound.from_system(sys_)
        beta_np, *_ = np.linalg.lstsq(sys_.X.data, sys_.y, rcond=None)
        r_np = sys_.y - sys_.X.data @ beta_np
        sv = np.linalg.svd(sys_.X.data, compute_uv=False)
        assert tb.horizon == pytest.approx(float(r_np @ r_np) / sv[-1] ** 2, rel=1e-8)
        assert tb.B == pytest.approx(
            float(np.linalg.norm(sys_.X.data @ beta_np) ** 2) / sys_.X.frob_sq, rel=1e-8
        )

    def test_sigma_ratio_roundtrip(self):
        sys_ = gaussian_system(30, 6, Regime.OVER_CONSISTENT, seed=3)
        tb = TheoryBound.from_system(sys_)
        s = spectral_summary(sys_.X)
        assert tb.sigma_ratio_sq == pytest.approx((s.sigma_min / s.sigma_max) ** 2, rel=1e-10)


class TestMonotonicity:
    def test_all_evaluators_non_increasing(self):
        tb = TheoryBound(alpha=0.93, B=1.7, kappa_sq_term=11.0, horizon=0.4)
        evals = [
            lambda t: bound_rk_consistent(tb, t, 3.0),
            lambda t: bound_rk_inconsistent(tb, t, 3.0),
            lambda t: bound_rek(tb, t, 3.0),
            lambda t: bound_comparison(tb, t, 3.0),
            lambda t: bound_regs(tb, t, 3.0),
        ]
        for ev in evals:
            values = [ev(t) for t in range(80)]
            assert all(b <= a * (1 + 1e-15) for a, b in zip(values, values[1:]))


class TestObjective:
    def test_zero_at_solution(self):
        sys_ = gaussian_system(20, 4, Regime.OVER_CONSISTENT, seed=9)
        assert objective(sys_, sys_.reference) == pytest.approx(0.0, abs=1e-18)

    def test_half_squared_residual(self):
        sys_ = LinearSystem(
            DenseMatrix([[1.0], [2.0]]), np.array([1.0, 1.0]), Regime.OVER_INCONSISTENT
        )
        assert objective(sys_, np.zeros(1)) == pytest.approx(1.0)

    def test_at_least_squares_solution(self):
        sys_ = gaussian_system(20, 5, Regime.OVER_INCONSISTENT, seed=11)
        r = sys_.residual_ref
        assert objective(sys_, sys_.reference) == pytest.approx(0.5 * float(r @ r), rel=1e-10)


def _bound_fn_for(kind, sys_, tb, ref_sq):
    if kind is SolverKind.RK:
        if sys_.regime is Regime.OVER_INCONSISTENT:
            return lambda t: bound_rk_inconsistent(tb, t, ref_sq)
        return lambda t: bound_rk_consistent(tb, t, ref_sq)
    if kind is SolverKind.RGS:
        return lambda t: bound_rk_consistent(tb, t, ref_sq)
    if kind is SolverKind.REK:
        # the rate-equation form undercuts the exact t=0 error whenever
        # 1 + 2 (s_min/s_max)^2 ||ref||^2 < ||ref||^2, so domination is
        # asserted against the comparison-form envelope (see ledger)
        return lambda t: bound_comparison(tb, t // 2, ref_sq)
    return lambda t: bound_regs(tb, t, ref_sq)


class TestMeanTraceDomination:
    """Expectation bounds dominate the 50-trial sample mean at >= 95% of rows."""

    @pytest.mark.parametrize("kind,regime", sorted(
        ((k, r) for k, r in CONVERGENT_PAIRS), key=lambda p: (p[0].value, p[1].value)
    ))
    def test_pair(self, kind, regime):
        shape = (100, 20) if regime is not Regime.UNDERDETERMINED else (20, 100)
        sys_ = gaussian_system(shape[0], shape[1], regime, seed=31)
        tb = TheoryBound.from_system(sys_)
        ref = sys_.reference
        ref_sq = float(ref @ ref)
        cfg = SolveConfig(max_iter=20_000, tol=1e-6, record_every=1)
        trials = 50
        traces = [
            run(sys_, kind, cfg, trial_rng(31, kind, t), trial=t)
            for t in range(trials)
        ]
        horizon_t = max(tr.records[-1][0] for tr in traces)
        sums = np.zeros(horizon_t + 1)
        for tr in traces:
            errs = {it: e for it, e, _ in tr.records}
            last = tr.records[-1][1]
            prev = errs[0]
            for t in range(horizon_t + 1):
                prev = errs.get(t, last if t >= tr.records[-1][0] else prev)
                sums[t] += prev
        means = sums / trials
        bound_fn = _bound_fn_for(kind, sys_, tb, ref_sq)
        ok = sum(means[t] <= bound_fn(t) for t in range(horizon_t + 1))
        frac = ok / (horizon_t + 1)
        assert frac >= 0.95, f"{kind.name}/{regime.value}: domination fraction {frac:.3f}"
