"""Bound curves: frozen arithmetic, limits, properties, and mean-trace domination."""
from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczgs.errors import ConfigurationError, NumericalError
from kaczgs.harness import trial_rng
from kaczgs.linalg import DenseMatrix, LinearSystem, Regime
from kaczgs.solvers import CONVERGENT_PAIRS, SolveConfig, SolverKind, make_solver, run
from kaczgs.theory import TheoryBound

from conftest import STEP_DRAWS, gaussian_system, rgs_one_step, step


def _bound_for(data) -> TheoryBound:
    X = DenseMatrix(data)
    n = X.cols
    ref = np.zeros(n)
    regime = Regime.OVER_CONSISTENT if X.rows >= n else Regime.UNDERDETERMINED
    sys_ = LinearSystem(X, np.zeros(X.rows), regime, reference=ref)
    return TheoryBound.from_system(sys_)


IDENTITY_BOUND = _bound_for(np.eye(2))  # alpha = 1/2, kappa = 1
DIAG_BOUND = _bound_for([[1.0, 0.0], [0.0, 2.0]])  # alpha = 0.8, kappa = 2
_PAIRS = sorted(CONVERGENT_PAIRS, key=lambda p: (p[0].value, p[1].value))
RK, RGS, REK, REGS = SolverKind.RK, SolverKind.RGS, SolverKind.REK, SolverKind.REGS


def _curve(tb: TheoryBound, kind: SolverKind, **fields):
    """The curve of ``kind`` on ``tb`` with the given fields replaced."""
    return replace(tb, **fields).curve(kind)


class TestEvaluatorArithmetic:
    def test_rk_consistent_t0_is_initial_error(self):
        assert _curve(DIAG_BOUND, RK, ref_sq=7.5)(0) == 7.5

    def test_rk_consistent_identity_matrix(self):
        assert IDENTITY_BOUND.alpha == pytest.approx(0.5, rel=1e-12)
        assert _curve(IDENTITY_BOUND, RK, ref_sq=4.0)(2) == pytest.approx(1.0, rel=1e-12)

    def test_rk_consistent_diag(self):
        assert DIAG_BOUND.alpha == pytest.approx(0.8, rel=1e-12)
        assert _curve(DIAG_BOUND, RK, ref_sq=1.0)(3) == pytest.approx(0.512, rel=1e-12)

    def test_rk_inconsistent_collapses_when_consistent(self):
        for t in (0, 3, 10):
            inconsistent = _curve(DIAG_BOUND, RK, ref_sq=2.0, regime=Regime.OVER_INCONSISTENT)
            assert inconsistent(t) == pytest.approx(_curve(DIAG_BOUND, RK, ref_sq=2.0)(t))

    def test_rk_inconsistent_limit_is_horizon(self):
        tb = TheoryBound(alpha=0.8, B=1.0, rgs_init=1.0, kappa_sq_term=9.0, horizon=3.25,
                         ref_sq=5.0, regime=Regime.OVER_INCONSISTENT)
        assert tb.curve(RK)(10_000) == pytest.approx(3.25)

    def test_rek_t0_with_zero_reference_norm(self):
        assert _curve(DIAG_BOUND, REK, ref_sq=0.0)(0) == 0.0

    def test_rek_floor_behavior(self):
        assert _curve(DIAG_BOUND, REK, ref_sq=2.0)(1) == _curve(DIAG_BOUND, REK, ref_sq=2.0)(0)

    def test_rek_diag_value(self):
        # alpha^floor(4/2) * (1 + 2 kappa^2) * 1 = 0.8^2 * 9
        assert _curve(DIAG_BOUND, REK, ref_sq=1.0)(4) == pytest.approx(5.76, rel=1e-12)

    def test_comparison_kappa_one(self):
        assert _curve(IDENTITY_BOUND, REK, ref_sq=2.0)(0) == pytest.approx(6.0)

    def test_comparison_kappa_two(self):
        assert DIAG_BOUND.kappa_sq_term == pytest.approx(9.0, rel=1e-12)
        assert _curve(DIAG_BOUND, REK, ref_sq=1.0)(0) == pytest.approx(9.0)

    def test_regs_t0_substitution(self):
        tb = TheoryBound(alpha=0.5, B=2.0, rgs_init=1.0, kappa_sq_term=3.0, horizon=0.0,
                         ref_sq=4.0, regime=Regime.UNDERDETERMINED)
        assert tb.curve(REGS)(0) == pytest.approx(4.0 + 2.0 * 2.0 / 0.5)

    def test_regs_zero_system(self):
        tb = TheoryBound(alpha=0.5, B=0.0, rgs_init=1.0, kappa_sq_term=3.0, horizon=0.0,
                         ref_sq=0.0, regime=Regime.UNDERDETERMINED)
        for t in (0, 1, 5, 50):
            assert tb.curve(REGS)(t) == 0.0

    def test_regs_vacuous_alpha_rejected(self):
        tb = TheoryBound(alpha=1.0, B=1.0, rgs_init=1.0, kappa_sq_term=3.0, horizon=0.0,
                         ref_sq=1.0, regime=Regime.UNDERDETERMINED)
        with pytest.raises(NumericalError):  # on building the curve, before any value
            tb.curve(REGS)

    # RGS on an underdetermined system has a curve of its own, all nan
    @pytest.mark.parametrize("regime", [Regime.OVER_CONSISTENT, Regime.UNDERDETERMINED],
                             ids=lambda r: r.value)
    def test_negative_iteration_rejected(self, regime):
        for kind in SolverKind:
            with pytest.raises(ConfigurationError,
                               match="^iteration index must be nonnegative, got -1$"):
                _curve(DIAG_BOUND, kind, ref_sq=1.0, regime=regime)(-1)


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

    def test_ref_sq_and_regime_are_the_systems(self):
        sys_ = gaussian_system(20, 5, Regime.OVER_INCONSISTENT, seed=11)
        tb = TheoryBound.from_system(sys_)
        assert tb.ref_sq == float(sys_.reference @ sys_.reference)
        assert tb.regime is Regime.OVER_INCONSISTENT

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


class TestOverflow:
    @pytest.mark.parametrize("case", ["reference", "residual"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_constants_that_overflow_are_rejected(self, case):
        X = DenseMatrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        if case == "reference":  # ||ref||^2 and B overflow
            ref = np.array([1e160, 2e160])
            sys_ = LinearSystem(X, X.data @ ref, Regime.OVER_CONSISTENT, reference=ref)
        else:  # the horizon ||r||^2 / lambda_min overflows
            r = np.array([1e160, 1e160, -1e160])
            sys_ = LinearSystem(X, r, Regime.OVER_INCONSISTENT, reference=np.zeros(2),
                                residual_ref=r)
        with pytest.raises(NumericalError, match="overflow float64"):
            TheoryBound.from_system(sys_)


class TestRgsBound:
    """RGS's bound is on the Euclidean error, not only on the objective gap."""

    def test_one_step_counterexample(self):
        # alpha^t ||ref||^2, Leventhal-Lewis's objective-gap envelope, is 1.2616 at t = 1
        rng = np.random.default_rng(120)
        X = rng.standard_normal((4, 3)) * [1.0, 10.0, 0.1]
        beta = rng.standard_normal(3)
        sys_ = LinearSystem(DenseMatrix(X), X @ beta, Regime.OVER_CONSISTENT, reference=beta)
        probs = sys_.X.col_norms_sq / sys_.X.frob_sq
        errors = [rgs_one_step(sys_, np.zeros(3), j) - beta for j in range(3)]
        exact = sum(p * float(e @ e) for p, e in zip(probs, errors))
        assert exact == pytest.approx(1.6845, abs=1e-4)
        assert TheoryBound.from_system(sys_).curve(RGS)(1) >= exact

    def test_rgs_init_is_x_ref_over_lambda_min(self):
        sys_ = gaussian_system(20, 5, Regime.OVER_INCONSISTENT, seed=11)
        tb = TheoryBound.from_system(sys_)
        xref = sys_.X.data @ sys_.reference
        lambda_min = np.linalg.svd(sys_.X.data, compute_uv=False)[-1] ** 2
        assert tb.rgs_init == pytest.approx(float(xref @ xref) / lambda_min, rel=1e-10)
        assert tb.curve(RGS)(7) == tb.alpha**7 * tb.rgs_init


#: every cell whose curve is finite: the convergent pairs and RK's horizon bound
_FINITE_CELLS = sorted(CONVERGENT_PAIRS | {(RK, Regime.OVER_INCONSISTENT)},
                       key=lambda p: (p[0].value, p[1].value))


class TestOneStepExpectation:
    """The exact E||beta_1 - ref||^2 from zero, over every draw of one step, is below curve(1)."""

    @staticmethod
    def _system(regime, rows, seed, noise, scaled):
        """A rows x 3 (3 x rows if underdetermined) Gaussian system, scaled by 1, 10, 0.1.

        Overdetermined, the columns are scaled and y is X ref + r again, which keeps
        ref and r; underdetermined, the rows and y, which keeps the solution set.
        Unscaled if not ``scaled``.
        """
        under = regime is Regime.UNDERDETERMINED
        sys_ = gaussian_system(*((3, rows) if under else (rows, 3)), regime, seed=seed,
                               noise_scale=noise)
        if not scaled:
            return sys_
        d = np.array([1.0, 10.0, 0.1])
        if under:
            return LinearSystem(DenseMatrix(d[:, None] * sys_.X.data), d * sys_.y, regime,
                                reference=sys_.reference)
        X, r = sys_.X.data * d, sys_.residual_ref
        return LinearSystem(DenseMatrix(X), X @ sys_.reference + (0.0 if r is None else r),
                            regime, reference=sys_.reference, residual_ref=r)

    # the noisy system is one where RK's horizon term is needed, the scaled one
    # where RGS's alpha^t ||ref||^2 falls below the exact error
    @pytest.mark.parametrize("rows, seed, noise, scaled", [
        (6, 1, 1.0, False), (6, 2, 10.0, False), (4, 1, 1.0, True),
    ], ids=["plain", "noisy", "scaled"])
    @pytest.mark.parametrize("kind,regime", _FINITE_CELLS)
    def test_exact_expectation_below_curve(self, kind, regime, rows, seed, noise, scaled):
        sys_ = self._system(regime, rows, seed, noise, scaled)
        X = sys_.X
        probs = {"row": X.row_norms_sq / X.frob_sq, "col": X.col_norms_sq / X.frob_sq}
        axes = STEP_DRAWS[kind]  # in the order one step draws them
        solver = make_solver(kind, sys_)
        exact = 0.0
        for draws in product(*(range(probs[axis].size) for axis in axes)):
            state = solver.init_state()
            step(solver, state, draws)
            e = solver.estimate(state) - sys_.reference
            exact += math.prod(probs[a][d] for a, d in zip(axes, draws)) * float(e @ e)
        assert exact <= TheoryBound.from_system(sys_).curve(kind)(1) * (1 + 8 * 2**-52)


class TestMonotonicity:
    def test_all_evaluators_non_increasing(self):
        tb = TheoryBound(alpha=0.93, B=1.7, rgs_init=1.0, kappa_sq_term=11.0, horizon=0.4,
                         ref_sq=3.0, regime=Regime.OVER_INCONSISTENT)
        evals = [
            _curve(tb, RK, horizon=0.0, regime=Regime.OVER_CONSISTENT),
            tb.curve(RK),
            tb.curve(RGS),
            tb.curve(REK),
            tb.curve(REGS),
        ]
        for ev in evals:
            values = [ev(t) for t in range(80)]
            assert all(b <= a * (1 + 1e-15) for a, b in zip(values, values[1:]))


_ITERATIONS = list(range(61)) + [200, 1000, 10_000]
_property_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def _pair_systems(draw):
    """A convergent (solver, regime) pair and a small Gaussian system of that regime."""
    kind, regime = draw(st.sampled_from(_PAIRS))
    small = draw(st.integers(1, 6))
    large = small + draw(st.integers(1, 6))
    m, n = (small, large) if regime is Regime.UNDERDETERMINED else (large, small)
    seed = draw(st.integers(0, 2**64 - 1))
    noise = draw(st.sampled_from([0.01, 1.0, 10.0]))
    return kind, gaussian_system(m, n, regime, seed=seed, noise_scale=noise)


def _emitted(kind, sys_) -> list[float]:
    """The bound_value that compare emits for this pair, at _ITERATIONS."""
    bound_fn = TheoryBound.from_system(sys_).curve(kind)
    return [bound_fn(t) for t in _ITERATIONS]


class TestEmittedBoundProperties:
    """Invariants of the emitted bound of every convergent pair (TheoryBound.curve)."""

    @_property_settings
    @given(_pair_systems())
    def test_t0_bound_covers_the_initial_error(self, pair):
        kind, sys_ = pair
        ref = sys_.reference
        assert _emitted(kind, sys_)[0] >= float(ref @ ref)

    @_property_settings
    @given(_pair_systems(), st.floats(min_value=1e-3, max_value=1e3))
    def test_scaling_y_by_c_scales_the_bound_by_c_squared(self, pair, c):
        kind, sys_ = pair
        r = sys_.residual_ref
        scaled = LinearSystem(sys_.X, c * sys_.y, sys_.regime, reference=c * sys_.reference,
                              residual_ref=None if r is None else c * r)
        # below the smallest normal float a value holds too few bits for 1e-12
        tiny = np.finfo(float).tiny
        for t, b, b_c in zip(_ITERATIONS, _emitted(kind, sys_), _emitted(kind, scaled)):
            assert b_c == pytest.approx(c * c * b, rel=1e-12, abs=tiny), f"t = {t}"

    @_property_settings
    @given(_pair_systems())
    def test_bound_does_not_increase(self, pair):
        values = _emitted(*pair)
        assert all(b <= a for a, b in zip(values, values[1:]))


@lru_cache(maxsize=None)
def _mean_trace(kind, regime, seed):
    """(mean error of 50 trials, emitted bound) at every iteration to the last stop."""
    shape = (100, 20) if regime is not Regime.UNDERDETERMINED else (20, 100)
    sys_ = gaussian_system(shape[0], shape[1], regime, seed=seed)
    cfg = SolveConfig(max_iter=20_000, tol=1e-6, record_every=1)
    trials = 50
    traces = [
        run(sys_, kind, cfg, trial_rng(seed, kind, t), trial=t)
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
    bound_fn = TheoryBound.from_system(sys_).curve(kind)
    return sums / trials, np.array([bound_fn(t) for t in range(horizon_t + 1)])


class TestMeanTraceDomination:
    """Expectation bounds dominate the 50-trial sample mean at >= 95% of rows."""

    @pytest.mark.parametrize("kind,regime", _PAIRS)
    def test_pair(self, kind, regime):
        means, bounds = _mean_trace(kind, regime, 31)
        frac = np.count_nonzero(means <= bounds) / means.size
        assert frac >= 0.95, f"{kind.name}/{regime.value}: domination fraction {frac:.3f}"


class TestExtendedMeanTraceDominationEveryRow:
    """The extended methods' bounds dominate the 50-trial sample mean at every row."""

    @pytest.mark.parametrize("seed", [31, 32, 33])
    @pytest.mark.parametrize(
        "kind,regime", [p for p in _PAIRS if p[0] in (SolverKind.REK, SolverKind.REGS)]
    )
    def test_pair(self, kind, regime, seed):
        means, bounds = _mean_trace(kind, regime, seed)
        above = np.flatnonzero(means > bounds)
        assert above.size == 0, (
            f"{kind.name}/{regime.value} seed {seed}: mean above the bound at "
            f"iterations {above[:5].tolist()}"
        )
