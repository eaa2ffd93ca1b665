"""Step-level solver behavior, exact-enumeration oracles, run driver."""
from __future__ import annotations

import numpy as np
import pytest

from kaczgs.errors import ConfigurationError, NumericalError
from kaczgs.linalg import (
    DenseMatrix,
    LinearSystem,
    Regime,
    least_norm_ref,
    spectral_summary,
)
from kaczgs.problems import TomoSpec, gen_tomography
from kaczgs.sampling import Prng, spawn_trial_rng
from kaczgs import solvers
from kaczgs.solvers import (
    CONVERGENT_PAIRS,
    LOCKSTEP_MIN_TRIALS,
    SolveConfig,
    SolverKind,
    StopMetric,
    make_solver,
    run,
    run_batch,
)

from conftest import (
    RefGenerator,
    apply_row_projector,
    gaussian_system,
    reference_draws,
    rgs_enumerated_expected_xerror,
    rk_enumerated_expected_error,
    step,
)


def _system(data, y, regime, reference=None, residual_ref=None):
    return LinearSystem(DenseMatrix(data), np.asarray(y, float), regime,
                        reference=reference, residual_ref=residual_ref)


IDENTITY_SYS = _system(np.eye(2), [2.0, 3.0], Regime.OVER_CONSISTENT, reference=[2.0, 3.0])

# X = diag(1, 2), y = (1, 2): row/column weights 1 and 4, solution (1, 1)
DIAG_SYS = _system([[1.0, 0.0], [0.0, 2.0]], [1.0, 2.0], Regime.OVER_CONSISTENT,
                   reference=[1.0, 1.0])


class TestResidualProtocol:
    """One routine computes y - X beta; only the Gauss-Seidel states carry a residual."""

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=["vector", "trials", "steps-trials"])
    def test_residual_of_is_y_minus_x_at_each_row(self, shape):
        sys_ = gaussian_system(40, 8, Regime.OVER_INCONSISTENT, seed=6)
        solver = make_solver(SolverKind.REGS, sys_)  # all four share the one routine
        beta = np.random.default_rng(3).standard_normal(shape + (sys_.n,))
        got = solver.residual_of(beta)
        assert got.shape == shape + (sys_.m,)
        for index in np.ndindex(shape):
            assert _hex(got[index]) == _hex(sys_.y - sys_.X.data @ beta[index])

    @pytest.mark.parametrize("trials", [None, 3])
    @pytest.mark.parametrize("kind", list(SolverKind), ids=lambda k: k.value)
    def test_only_gauss_seidel_states_carry_a_residual(self, kind, trials):
        sys_ = gaussian_system(40, 8, Regime.OVER_CONSISTENT, seed=6)
        solver = make_solver(kind, sys_)
        state = solver.init_state(trials)
        rows = () if trials is None else (trials,)
        if kind in (SolverKind.RK, SolverKind.REK):
            assert state.residual is None
            assert state.copy().residual is None
        else:  # y - X beta at beta = 0, as the state's own array
            assert np.array_equal(state.residual, np.broadcast_to(sys_.y, rows + (sys_.m,)))
            assert solver.residual(state) is state.residual


class TestRandomizedKaczmarzStep:
    def test_identity_projects_coordinate(self):
        solver = make_solver(SolverKind.RK, IDENTITY_SYS)
        state = solver.init_state()
        step(solver, state, (0,))  # row 0
        assert state.beta == pytest.approx([2.0, 0.0])
        assert state.iteration == 1

    def test_projection_onto_hyperplane(self):
        sys_ = _system([[1.0, 1.0]], [2.0], Regime.UNDERDETERMINED, reference=[1.0, 1.0])
        solver = make_solver(SolverKind.RK, sys_)
        state = solver.init_state()
        step(solver, state, (0,))
        assert state.beta == pytest.approx([1.0, 1.0])

    def test_row_equation_satisfied_after_step(self):
        sys_ = gaussian_system(15, 4, Regime.OVER_CONSISTENT, seed=8)
        solver = make_solver(SolverKind.RK, sys_)
        state = solver.init_state()
        for draws in reference_draws(sys_, SolverKind.RK, 0, 200):
            step(solver, state, draws)
            (i,) = draws
            xi = sys_.X.data[i]
            scale = max(abs(sys_.y[i]), np.linalg.norm(xi) * np.linalg.norm(state.beta))
            assert abs(xi @ state.beta - sys_.y[i]) <= 1e-10 * max(scale, 1e-30)

    def test_expected_one_step_error_enumeration(self):
        # two outcomes with probs 1/5 and 4/5, each landing at squared error 1
        beta0 = np.zeros(2)
        ref = DIAG_SYS.reference
        by_enum = rk_enumerated_expected_error(DIAG_SYS, beta0, ref)
        assert by_enum == pytest.approx(1.0, abs=1e-14)
        err0 = float((beta0 - ref) @ (beta0 - ref))
        xerr0 = float(np.linalg.norm(DIAG_SYS.X.data @ (beta0 - ref)) ** 2)
        identity = err0 * (1.0 - xerr0 / (DIAG_SYS.X.frob_sq * err0))
        assert by_enum == pytest.approx(identity, abs=1e-14)


class TestRandomizedGaussSeidelStep:
    def test_identity_coordinate_update(self):
        solver = make_solver(SolverKind.RGS, IDENTITY_SYS)
        state = solver.init_state()
        step(solver, state, (0,))  # column 0
        assert state.beta == pytest.approx([2.0, 0.0])
        assert state.residual == pytest.approx([0.0, 3.0])

    def test_single_column_reaches_least_squares_in_one_step(self):
        sys_ = _system([[1.0], [1.0]], [1.0, 3.0], Regime.OVER_INCONSISTENT,
                       reference=[2.0], residual_ref=[-1.0, 1.0])
        solver = make_solver(SolverKind.RGS, sys_)
        state = solver.init_state()
        step(solver, state, (0,))
        assert state.beta == pytest.approx([2.0])

    def test_coordinate_optimality_after_step(self):
        sys_ = gaussian_system(20, 6, Regime.OVER_INCONSISTENT, seed=4)
        solver = make_solver(SolverKind.RGS, sys_)
        state = solver.init_state()
        for draws in reference_draws(sys_, SolverKind.RGS, 1, 300):
            step(solver, state, draws)
            (j,) = draws
            xj = sys_.X.data[:, j]
            fresh = sys_.y - sys_.X.data @ state.beta
            bound = 1e-10 * np.linalg.norm(xj) * max(np.linalg.norm(fresh), 1e-30)
            assert abs(xj @ fresh) <= bound

    def test_expected_one_step_xspace_error_enumeration(self):
        # enumeration gives 8/5, matching the X-space contraction identity
        beta0 = np.zeros(2)
        ref = DIAG_SYS.reference
        by_enum = rgs_enumerated_expected_xerror(DIAG_SYS, beta0, ref)
        assert by_enum == pytest.approx(8.0 / 5.0, abs=1e-14)
        xdiff = DIAG_SYS.X.data @ (beta0 - ref)
        xerr0 = float(xdiff @ xdiff)
        grad = DIAG_SYS.X.data.T @ xdiff
        identity = xerr0 * (1.0 - float(grad @ grad) / (DIAG_SYS.X.frob_sq * xerr0))
        assert by_enum == pytest.approx(identity, abs=1e-14)


class TestExtendedKaczmarzStep:
    def test_z_coordinate_annihilation(self):
        sys_ = _system(np.eye(2), [1.0, 1.0], Regime.OVER_CONSISTENT, reference=[1.0, 1.0])
        solver = make_solver(SolverKind.REK, sys_)
        state = solver.init_state()
        assert state.z == pytest.approx([1.0, 1.0])  # z0 = y
        step(solver, state, (0, 0))  # row 0, column 0
        assert state.z == pytest.approx([0.0, 1.0])

    def test_z_orthogonal_to_chosen_column(self):
        sys_ = gaussian_system(18, 5, Regime.OVER_INCONSISTENT, seed=6)
        solver = make_solver(SolverKind.REK, sys_)
        state = solver.init_state()
        for draws in reference_draws(sys_, SolverKind.REK, 2, 200):
            step(solver, state, draws)
            _, j = draws
            xj = sys_.X.data[:, j]
            assert abs(xj @ state.z) <= 1e-10 * np.linalg.norm(xj) * max(
                np.linalg.norm(state.z), 1e-30
            )

    def test_z_converges_to_least_squares_residual(self):
        sys_ = gaussian_system(20, 5, Regime.OVER_INCONSISTENT, seed=11)
        r = sys_.residual_ref
        solver = make_solver(SolverKind.REK, sys_)
        state = solver.init_state()
        for draws in reference_draws(sys_, SolverKind.REK, 11, 10_000):
            step(solver, state, draws)
        assert np.linalg.norm(state.z - r) < 1e-4

    @pytest.mark.parametrize("batch", [False, True], ids=["steps", "steps_batch"])
    def test_z_is_rgs_residual_under_shared_column_draws(self, batch):
        """z is RGS's maintained residual, bit for bit, up to the step before RGS refreshes it."""
        sys_ = gaussian_system(30, 6, Regime.OVER_INCONSISTENT, seed=12)
        total = solvers.RESIDUAL_REFRESH_EVERY - 1
        trials = 3 if batch else None
        # (steps, trials) row and column indices, one reference stream per trial
        i, j = np.array([list(reference_draws(sys_, SolverKind.REK, seed, total))
                         for seed in (5, 6, 7)]).transpose(2, 1, 0)
        rek, rgs = make_solver(SolverKind.REK, sys_), make_solver(SolverKind.RGS, sys_)
        st_rek, st_rgs = rek.init_state(trials), rgs.init_state(trials)
        rows = list(np.empty((solvers.CHECK_CHUNK, 3, sys_.n)))
        lengths = np.random.default_rng(4)
        t = 0
        while t < total:
            k = min(int(lengths.integers(1, solvers.CHECK_CHUNK + 1)), total - t)
            if batch:
                rek.steps_batch(st_rek, [i[t:t + k], j[t:t + k]], rows)
                rgs.steps_batch(st_rgs, [j[t:t + k]], rows)
            else:
                rek.steps(st_rek, [i[t:t + k, 0].tolist(), j[t:t + k, 0].tolist()])
                rgs.steps(st_rgs, [j[t:t + k, 0].tolist()])
            t += k
            assert _hex(st_rek.z) == _hex(st_rgs.residual)
        assert st_rek.iteration == st_rgs.iteration == total


class TestExtendedGaussSeidelStep:
    def test_identity_hand_trace(self):
        solver = make_solver(SolverKind.REGS, IDENTITY_SYS)
        state = solver.init_state()
        assert state.z == pytest.approx([0.0, 0.0])
        step(solver, state, (0, 0))  # column 0, then row 0
        # gamma_1 = (2, 0); beta_1 = (2, 0); z_1 = P_0 (2, 0) = (0, 0)
        assert state.beta == pytest.approx([2.0, 0.0])
        assert state.z == pytest.approx([0.0, 0.0], abs=1e-15)
        assert solver.estimate(state) == pytest.approx([2.0, 0.0])

    def test_beta_line_identical_to_rgs_under_shared_column_draws(self):
        sys_ = gaussian_system(12, 30, Regime.UNDERDETERMINED, seed=9)
        regs = make_solver(SolverKind.REGS, sys_)
        rgs = make_solver(SolverKind.RGS, sys_)
        st_regs, st_rgs = regs.init_state(), rgs.init_state()
        for j, i in reference_draws(sys_, SolverKind.REGS, 77, 60):
            step(regs, st_regs, (j, i))
            step(rgs, st_rgs, (j,))
            assert np.array_equal(st_regs.beta, st_rgs.beta)
            assert np.array_equal(st_regs.residual, st_rgs.residual)

    def test_z_orthogonal_to_chosen_row(self):
        sys_ = gaussian_system(8, 20, Regime.UNDERDETERMINED, seed=10)
        solver = make_solver(SolverKind.REGS, sys_)
        state = solver.init_state()
        for draws in reference_draws(sys_, SolverKind.REGS, 3, 300):
            step(solver, state, draws)
            _, i = draws
            xi = sys_.X.data[i]
            assert abs(xi @ state.z) <= 1e-10 * np.linalg.norm(xi) * max(
                np.linalg.norm(state.z), 1e-30
            )

    def test_tiny_underdetermined_converges_to_least_norm(self):
        sys_ = _system([[1.0, 1.0]], [2.0], Regime.UNDERDETERMINED, reference=[1.0, 1.0])
        cfg = SolveConfig(max_iter=500, tol=1e-8)
        trace = run(sys_, SolverKind.REGS, cfg, Prng(5))
        assert trace.converged
        assert trace.records[-1][1] < 1e-6

    def test_decomposition_identity_per_step(self):
        sys_ = gaussian_system(10, 25, Regime.UNDERDETERMINED, seed=14)
        beta_ln = sys_.reference
        solver = make_solver(SolverKind.REGS, sys_)
        state = solver.init_state()
        for draws in reference_draws(sys_, SolverKind.REGS, 4, 400):
            prev_est = solver.estimate(state)
            step(solver, state, draws)
            _, i = draws
            term_a = apply_row_projector(sys_.X, i, prev_est - beta_ln)
            v = state.beta - beta_ln
            xi = sys_.X.data[i]
            term_b = ((xi @ v) / sys_.X.row_norms_sq[i]) * xi  # (I - P_i) v
            lhs = float(np.linalg.norm(solver.estimate(state) - beta_ln) ** 2)
            rhs = float(term_a @ term_a) + float(term_b @ term_b)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-20)


class TestExtendedMethodsAreOneProcess:
    """REK's beta is REGS's beta - z when REK draws (row, column) and REGS (column, row).

    REK's z is RGS's residual y - X beta_RGS and REGS's beta is beta_RGS, so
    both estimates e take the same row step e += (x_i . (beta_RGS - e) / ||x_i||^2) x_i.
    They agree up to rounding, which RGS's residual refreshes also move.
    """

    SYSTEMS = {
        "oi-500x20": lambda: gaussian_system(500, 20, Regime.OVER_INCONSISTENT, seed=1),
        "ud-50x200": lambda: gaussian_system(50, 200, Regime.UNDERDETERMINED, seed=1),
        "oc-300x30": lambda: gaussian_system(300, 30, Regime.OVER_CONSISTENT, seed=1),
        "tomo-10x3": lambda: gen_tomography(TomoSpec(grid_n=10, oversample=3, seed=1)),
    }

    @pytest.mark.parametrize("name", list(SYSTEMS))
    @pytest.mark.parametrize("batch", [False, True], ids=["steps", "steps_batch"])
    def test_rek_beta_is_regs_estimate(self, batch, name):
        sys_ = self.SYSTEMS[name]()
        tol = 1e-12 * np.linalg.norm(sys_.reference)
        seeds, total = ((5, 6, 7), 200) if batch else ((5,), 20_000)
        trials = len(seeds) if batch else None
        # (steps, trials) row and column indices, one reference stream per trial
        i, j = np.array([list(reference_draws(sys_, SolverKind.REK, seed, total))
                         for seed in seeds]).transpose(2, 1, 0)
        rek, regs = make_solver(SolverKind.REK, sys_), make_solver(SolverKind.REGS, sys_)
        st_rek, st_regs = rek.init_state(trials), regs.init_state(trials)
        rows_rek, rows_regs = np.empty((2, solvers.CHECK_CHUNK, len(seeds), sys_.n))
        lengths, refresh = np.random.default_rng(4), solvers.RESIDUAL_REFRESH_EVERY
        t = 0
        while t < total:
            # a span may end on a residual refresh but not pass one
            k = min(int(lengths.integers(1, solvers.CHECK_CHUNK + 1)), total - t,
                    refresh - t % refresh)
            if batch:
                rek.steps_batch(st_rek, [i[t:t + k], j[t:t + k]], list(rows_rek))
                regs.steps_batch(st_regs, [j[t:t + k], i[t:t + k]], list(rows_regs))
                gap = np.linalg.norm(rows_rek[:k] - rows_regs[:k], axis=-1).max()
            else:
                rek.steps(st_rek, [i[t:t + k, 0].tolist(), j[t:t + k, 0].tolist()])
                regs.steps(st_regs, [j[t:t + k, 0].tolist(), i[t:t + k, 0].tolist()])
                gap = np.linalg.norm(st_rek.beta - regs.estimate(st_regs))
            t += k
            assert gap <= tol, (t, gap)
        assert st_rek.iteration == st_regs.iteration == total


class TestPythagoreanRecursions:
    def test_rk_consistent_error_never_increases(self):
        for regime, shape in [
            (Regime.OVER_CONSISTENT, (40, 10)),
            (Regime.UNDERDETERMINED, (10, 40)),
        ]:
            sys_ = gaussian_system(shape[0], shape[1], regime, seed=21)
            ref = sys_.reference
            rounding = 1e-20 * (1.0 + float(ref @ ref))  # float-noise allowance
            solver = make_solver(SolverKind.RK, sys_)
            state = solver.init_state()
            prev = state.beta.copy()
            # short enough to stay above the float-noise floor
            for draws in reference_draws(sys_, SolverKind.RK, 6, 250):
                err_before = float(np.linalg.norm(prev - ref) ** 2)
                step(solver, state, draws)
                err_after = float(np.linalg.norm(state.beta - ref) ** 2)
                step_sq = float(np.linalg.norm(state.beta - prev) ** 2)
                assert err_after == pytest.approx(err_before - step_sq, rel=1e-8, abs=1e-18)
                assert err_after <= err_before * (1.0 + 1e-12) + rounding
                prev = state.beta.copy()

    def test_rgs_xspace_recursion_consistent_and_inconsistent(self):
        for regime in (Regime.OVER_CONSISTENT, Regime.OVER_INCONSISTENT):
            sys_ = gaussian_system(40, 10, regime, seed=22)
            ref = sys_.reference  # beta* or beta_LS
            X = sys_.X.data
            solver = make_solver(SolverKind.RGS, sys_)
            state = solver.init_state()
            prev = state.beta.copy()
            for draws in reference_draws(sys_, SolverKind.RGS, 7, 600):
                a = float(np.linalg.norm(X @ (prev - ref)) ** 2)
                step(solver, state, draws)
                b = float(np.linalg.norm(X @ (state.beta - ref)) ** 2)
                s = float(np.linalg.norm(X @ (state.beta - prev)) ** 2)
                assert b == pytest.approx(a - s, rel=1e-8, abs=1e-18)
                assert b <= a * (1.0 + 1e-12)
                prev = state.beta.copy()


class TestRowSpanInvariance:
    @pytest.mark.parametrize("kind", [SolverKind.RK, SolverKind.REK])
    def test_iterates_stay_in_row_span(self, kind, rng_numpy):
        sys_ = gaussian_system(8, 24, Regime.UNDERDETERMINED, seed=23)
        X = sys_.X.data
        proj = X.T @ np.linalg.pinv(X @ X.T) @ X  # numpy oracle for P_rowspan
        solver = make_solver(kind, sys_)
        state = solver.init_state()
        for t, draws in enumerate(reference_draws(sys_, kind, 8, 800), 1):
            step(solver, state, draws)
            if t % 10 == 0:
                off = state.beta - proj @ state.beta
                assert np.linalg.norm(off) <= 1e-8 * max(np.linalg.norm(state.beta), 1e-30)


class TestExpectationContractionsSmallSystems:
    def test_projector_and_double_expectation_inequalities(self, rng_numpy):
        # five small systems here; the acceptance suite runs twenty
        for trial in range(5):
            m, n = int(rng_numpy.integers(2, 7)), int(rng_numpy.integers(2, 7))
            X = DenseMatrix(rng_numpy.normal(size=(m, n)))
            beta_star = rng_numpy.normal(size=n)
            y = X.data @ beta_star
            regime = (
                Regime.UNDERDETERMINED if m < n else Regime.OVER_CONSISTENT
            )
            sys_ = LinearSystem(X, y, regime)
            ref = least_norm_ref(sys_.X, sys_.y) if m < n else beta_star
            summary = spectral_summary(X)
            alpha = 1.0 - summary.lambda_min / X.frob_sq
            state = rng_numpy.normal(size=n)

            enum = rk_enumerated_expected_error(sys_, state, ref)
            err = float(np.linalg.norm(state - ref) ** 2)
            xerr = float(np.linalg.norm(X.data @ (state - ref)) ** 2)
            identity = err * (1.0 - xerr / (X.frob_sq * err))
            assert enum == pytest.approx(identity, abs=1e-12)

            # projector expectation: E ||P_i w||^2 <= alpha ||w||^2
            # (w restricted to the row span when m < n)
            probs = X.row_norms_sq / X.frob_sq
            for _ in range(20):
                w = rng_numpy.normal(size=n)
                if m < n:
                    w = X.data.T @ np.linalg.solve(X.data @ X.data.T, X.data @ w)
                expect = sum(
                    p * float(np.linalg.norm(apply_row_projector(X, i, w)) ** 2)
                    for i, p in enumerate(probs)
                    if p > 0
                )
                assert expect <= alpha * float(w @ w) + 1e-12


class TestRunDriver:
    def test_missing_reference_raises(self):
        sys_ = LinearSystem(DenseMatrix(np.eye(3)), np.ones(3), Regime.OVER_CONSISTENT)
        with pytest.raises(ConfigurationError, match="convergent solver/regime pairs"):
            run(sys_, SolverKind.RK, SolveConfig(max_iter=10), Prng(0))

    def test_immediate_convergence_on_zero_start(self):
        X = DenseMatrix(np.eye(3))
        sys_ = LinearSystem(X, np.zeros(3), Regime.OVER_CONSISTENT, reference=np.zeros(3))
        trace = run(sys_, SolverKind.RK, SolveConfig(max_iter=100), Prng(0))
        assert trace.converged
        assert trace.final_iteration == 0
        assert len(trace.records) == 1

    def test_records_strictly_increasing_and_nonnegative(self):
        sys_ = gaussian_system(30, 6, Regime.OVER_CONSISTENT, seed=2)
        trace = run(sys_, SolverKind.REGS, SolveConfig(max_iter=5000, record_every=7), Prng(1))
        its = [r[0] for r in trace.records]
        assert its == sorted(set(its))
        assert all(r[1] >= 0 and r[2] >= 0 for r in trace.records)
        assert trace.records[-1][0] == trace.final_iteration

    def test_record_every_stride(self):
        sys_ = gaussian_system(30, 6, Regime.OVER_CONSISTENT, seed=2)
        trace = run(sys_, SolverKind.RK, SolveConfig(max_iter=50, tol=1e-30, record_every=10), Prng(1))
        assert [r[0] for r in trace.records] == [0, 10, 20, 30, 40, 50]
        assert not trace.converged

    @pytest.mark.parametrize("kind", [SolverKind.RGS, SolverKind.REGS], ids=lambda k: k.value)
    def test_maintained_residual_refreshed_once_per_period(self, kind, monkeypatch):
        """A residual-stopped run reads the maintained residual without refreshing it again."""
        monkeypatch.setattr(solvers, "RESIDUAL_REFRESH_EVERY", 5)
        refreshes = []
        spanned = []  # the state of the latest span
        cls = solvers._SOLVER_CLASSES[kind]
        real_steps, real_residual_of = cls.steps, solvers._Solver.residual_of

        def tracking_steps(self, state, *args):
            spanned[:] = [state]
            real_steps(self, state, *args)

        def counting_residual_of(self, beta):  # one m x n matvec per row
            refreshes.append(spanned[0].iteration)
            return real_residual_of(self, beta)

        monkeypatch.setattr(cls, "steps", tracking_steps)
        monkeypatch.setattr(solvers._Solver, "residual_of", counting_residual_of)
        sys_ = gaussian_system(40, 8, Regime.OVER_CONSISTENT, seed=6)
        cfg = SolveConfig(max_iter=50, tol=1e-300, stop_metric=StopMetric.RESIDUAL_NORM,
                          record_every=7)
        trace = run(sys_, kind, cfg, Prng(1))
        assert trace.final_iteration == 50
        assert refreshes == list(range(5, 51, 5))

    @pytest.mark.parametrize("kind", list(SolverKind), ids=lambda k: k.value)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_start_is_rejected(self, kind):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        ref = np.array([1e160, 2e160])  # ||ref||^2 and ||y||^2 overflow
        sys_ = _system(X, X @ ref, Regime.OVER_CONSISTENT, reference=ref)
        for metric in StopMetric:
            with pytest.raises(NumericalError, match="float64"):
                run(sys_, kind, SolveConfig(max_iter=10, stop_metric=metric), Prng(0))
        with pytest.raises(NumericalError, match="float64"):
            run_batch(sys_, kind, SolveConfig(max_iter=10), [Prng(k) for k in range(3)])

    def test_residual_matches_fresh_computation_at_records(self):
        sys_ = gaussian_system(25, 5, Regime.OVER_CONSISTENT, seed=3)
        cfg = SolveConfig(max_iter=2000, record_every=50)
        for kind in SolverKind:
            trace = run(sys_, kind, cfg, Prng(4))
            # rerun deterministically to the final state and compare the last record
            solver = make_solver(kind, sys_)
            state = solver.init_state()
            for draws in reference_draws(sys_, kind, 4, trace.final_iteration):
                step(solver, state, draws)
            fresh = sys_.y - sys_.X.data @ state.beta
            assert trace.records[-1][2] == pytest.approx(float(fresh @ fresh), rel=1e-8, abs=1e-12)

    def test_rgs_underdetermined_residual_converges_iterates_do_not(self):
        sys_ = gaussian_system(50, 500, Regime.UNDERDETERMINED, seed=1)
        cfg = SolveConfig(max_iter=100_000, tol=1e-6, stop_metric=StopMetric.RESIDUAL_NORM,
                          record_every=1000)
        trace = run(sys_, SolverKind.RGS, cfg, spawn_trial_rng(1, 0))
        assert trace.converged  # residual crosses tol
        final_err, final_res = trace.records[-1][1], trace.records[-1][2]
        assert final_res < 1e-6
        assert final_err > 1e3 * cfg.tol  # wrong-limit floor

    def test_rek_reaches_least_squares_where_rk_stalls(self):
        sys_ = gaussian_system(60, 8, Regime.OVER_INCONSISTENT, seed=5)
        cfg = SolveConfig(max_iter=30_000, tol=1e-6, record_every=500)
        rk = run(sys_, SolverKind.RK, cfg, spawn_trial_rng(5, 0))
        rek = run(sys_, SolverKind.REK, cfg, spawn_trial_rng(5, 1))
        assert not rk.converged
        assert rk.records[-1][1] > 10 * cfg.tol
        assert rek.converged


_BUDGET = solvers.DRAW_BUDGET
_THREE_BLOCKS = 2 * _BUDGET + 1  # steps, at one draw a step


class TestRunDrawsReference:
    """run's draws against the README rule, replayed one reference uniform at a time."""

    # one step and spans of several lengths; either side of the end of the first block,
    # DRAW_BUDGET // d steps for d = 2 and d = 1 draws a step; and three blocks or more
    @pytest.mark.parametrize("max_iter", [
        1, 63, 64, 65, 150, 191, 192, 193, 4033,
        _BUDGET // 2 - 1, _BUDGET // 2, _BUDGET // 2 + 1, _BUDGET - 1, _BUDGET, _BUDGET + 1,
        _THREE_BLOCKS,
    ])
    @pytest.mark.parametrize("kind", list(SolverKind), ids=lambda k: k.value)
    def test_records_equal_steps_on_reference_draws(self, kind, max_iter):
        # on 40x8 some errors reach exactly 0, and the run stops, before 8193 steps
        m, n = (80, 20) if max_iter == _THREE_BLOCKS else (40, 8)
        sys_ = gaussian_system(m, n, Regime.OVER_CONSISTENT, seed=6)
        trace = run(sys_, kind, SolveConfig(max_iter=max_iter, tol=1e-300), Prng(9))

        solver = make_solver(kind, sys_)
        state = solver.init_state()
        expected = []

        def record(t):
            diff = solver.estimate(state) - sys_.reference
            r = solver.residual(state)
            expected.append((t, float(diff @ diff), float(r @ r)))

        record(0)
        for t, draws in enumerate(reference_draws(sys_, kind, 9, max_iter), 1):
            step(solver, state, draws)
            record(t)
        assert trace.final_iteration == max_iter
        assert trace.records == expected


def _reference_step(kind, system, beta, r, z, draws, t):
    """Step t by the update formulas written out, on copies; (beta, r, z)."""
    X, y = system.X.data, system.y
    row_nsq, col_nsq = system.X.row_norms_sq, system.X.col_norms_sq
    beta = beta.copy()  # r is never written in place; RK and REK carry none
    z = None if z is None else z.copy()
    if kind in (SolverKind.RK, SolverKind.REK):
        i = draws[0]
        dot = float(X[i] @ beta)
        if kind is SolverKind.RK:
            scale = (float(y[i]) - dot) / float(row_nsq[i])
        else:
            xj = np.ascontiguousarray(X[:, draws[1]])  # the solver's contiguous column
            z = z - (float(xj @ z) / float(col_nsq[draws[1]])) * xj
            scale = (float(y[i]) - float(z[i]) - dot) / float(row_nsq[i])
        beta = beta + scale * X[i]
        return beta, r, z
    j = draws[0]
    xj = np.ascontiguousarray(X[:, j])
    dot = float(xj @ r)
    scale = dot / float(col_nsq[j])
    beta[j] += scale
    r = r - scale * xj
    if kind is SolverKind.REGS:
        i = draws[1]
        z[j] += scale
        z = z - (float(X[i] @ z) / float(row_nsq[i])) * X[i]
    if t % solvers.RESIDUAL_REFRESH_EVERY == 0:
        r = y - X @ beta
    return beta, r, z


def _hex(arr) -> list[str] | None:
    return None if arr is None else [v.hex() for v in np.ravel(arr).tolist()]


class TestSpanKernels:
    """``steps`` over spans of drawn lengths equals single steps, bit for bit."""

    @pytest.mark.parametrize("on_error", [True, False], ids=["error", "residual"])
    @pytest.mark.parametrize("kind", list(SolverKind), ids=lambda k: k.value)
    def test_spans_equal_single_steps(self, kind, on_error):
        sys_ = gaussian_system(30, 6, Regime.OVER_INCONSISTENT, seed=12)
        refresh = solvers.RESIDUAL_REFRESH_EVERY
        total = refresh + 100  # one span ends on the refresh step
        draws = list(reference_draws(sys_, kind, 31, total))

        # the reference: one written-out step at a time, and what each step's row holds
        solver = make_solver(kind, sys_)
        start = solver.init_state()
        beta, r, z = start.beta, start.residual, start.z
        states, rows = [(beta, r, z)], []
        maintained = kind in (SolverKind.RGS, SolverKind.REGS)
        for t, d in enumerate(draws, 1):
            beta, r, z = _reference_step(kind, sys_, beta, r, z, d, t)
            states.append((beta, r, z))
            rows.append(r if maintained and not on_error
                        else beta - z if kind is SolverKind.REGS else beta)

        checks = solvers._ExactChecks(solver, on_error, sys_.reference, solvers.CHECK_CHUNK)
        lengths = np.random.default_rng(4)
        state = solver.init_state()
        t = 0
        ends = []
        while t < total:
            k = int(lengths.integers(1, solvers.CHECK_CHUNK + 1))
            k = min(k, total - t, refresh - t % refresh)  # a span ends on, never passes, a refresh
            span = [list(c) for c in zip(*draws[t:t + k])]
            saved = state.copy()
            solver.steps(state, span, checks.rows[:k], on_error)
            t += k
            ends.append(t)
            beta, r, z = states[t]
            assert state.iteration == t
            assert _hex(state.beta) == _hex(beta)
            assert _hex(state.residual) == _hex(r)  # None for RK and REK
            assert _hex(state.z) == _hex(z)
            assert [_hex(row) for row in checks.view[:k]] == [_hex(row) for row in rows[t - k:t]]
            for arr in (state.beta, state.residual, state.z):
                assert arr is None or not np.shares_memory(arr, checks.full)
            if k > 1:  # replay part of the span from the state saved before it, with no rows
                stop = k // 2
                solver.steps(saved, [d[:stop] for d in span])
                beta, r, z = states[t - k + stop]
                assert saved.iteration == t - k + stop
                assert _hex(saved.beta) == _hex(beta) and _hex(saved.residual) == _hex(r)
                assert _hex(saved.z) == _hex(z)
        assert refresh in ends


class TestDrawBlocks:
    """_draw_blocks' block sizes and calls, and its indices against one reference uniform per draw."""

    # blocks of DRAW_BUDGET // (draws per step * trials) steps, then the steps left
    @pytest.mark.parametrize("trials, kind, steps, sizes", [
        (1, SolverKind.RK, 9000, [4096, 4096, 808]),
        (16, SolverKind.REK, 1500, [128] * 11 + [92]),
        (5, SolverKind.REGS, 1500, [409] * 3 + [273]),
    ], ids=["rk-1", "rek-16", "regs-5"])
    def test_blocks_fill_the_budget_and_equal_reference(self, trials, kind, steps, sizes):
        sys_ = gaussian_system(40, 8, Regime.OVER_CONSISTENT, seed=6)
        dists = make_solver(kind, sys_).draw_order()
        seeds = [100 + k for k in range(trials)]
        blocks = list(solvers._draw_blocks(dists, [Prng(s) for s in seeds], steps))

        assert sizes[0] == solvers.DRAW_BUDGET // (len(dists) * trials)
        assert [b[0].shape for b in blocks] == [(n, trials) for n in sizes]
        for k, seed in enumerate(seeds):
            drawn = list(zip(*(np.concatenate([b[q][:, k] for b in blocks]).tolist()
                               for q in range(len(dists)))))
            assert drawn == list(reference_draws(sys_, kind, seed, steps))

    def test_a_generator_removed_between_blocks_is_drawn_no_more(self):
        sys_ = gaussian_system(40, 8, Regime.OVER_CONSISTENT, seed=6)
        dists = make_solver(SolverKind.RK, sys_).draw_order()
        rngs = [Prng(1), Prng(2)]
        live = list(rngs)
        draws = solvers._draw_blocks(dists, live, 2500)
        first = next(draws)
        live.remove(rngs[0])
        second = next(draws)
        assert first[0].shape == (2048, 2) and second[0].shape == (452, 1)
        ref = RefGenerator(1)
        for _ in range(2048):
            ref.uniform()
        assert rngs[0].uniforms(1).tolist() == [ref.uniform()]  # left after its first block
        expected = list(reference_draws(sys_, SolverKind.RK, 2, 2500))
        assert [(i,) for i in np.concatenate([first[0][:, 1], second[0][:, 0]]).tolist()] == expected

    @staticmethod
    def _count_calls(monkeypatch) -> list[int]:
        """Record the k of each solvers.batch_uniforms call in the returned list."""
        calls, draw = [], solvers.batch_uniforms

        def counted(rngs, k):
            calls.append(k)
            return draw(rngs, k)

        monkeypatch.setattr(solvers, "batch_uniforms", counted)
        return calls

    @pytest.mark.parametrize("kind, max_iter, expected", [
        (SolverKind.REK, 2000, 1),  # 4000 uniforms fit in one call
        (SolverKind.RGS, 20_000, 5),  # ceil(20000 / 4096)
    ], ids=["rek", "rgs"])
    def test_run_makes_one_call_per_budget(self, kind, max_iter, expected, monkeypatch):
        calls = self._count_calls(monkeypatch)
        sys_ = gaussian_system(80, 20, Regime.OVER_CONSISTENT, seed=6)  # never at error 0
        cfg = SolveConfig(max_iter=max_iter, tol=1e-300, record_every=max_iter)
        assert run(sys_, kind, cfg, Prng(3)).final_iteration == max_iter
        assert len(calls) == expected
        assert sum(calls) == max_iter * len(make_solver(kind, sys_).draw_order())  # k per generator

    # ceil(steps * draws per step * 3 / 4096) calls for three trials
    @pytest.mark.parametrize("kind, max_iter, expected", [
        (SolverKind.RK, 4000, 3),
        (SolverKind.REK, 3000, 5),
    ], ids=["rk", "rek"])
    def test_run_batch_makes_one_call_per_budget(self, kind, max_iter, expected, monkeypatch):
        calls = self._count_calls(monkeypatch)
        sys_ = gaussian_system(80, 20, Regime.OVER_CONSISTENT, seed=6)  # never at error 0
        cfg = SolveConfig(max_iter=max_iter, tol=1e-300, record_every=max_iter)
        batch = run_batch(sys_, kind, cfg, [Prng(k) for k in range(3)])
        assert batch.final_iterations.tolist() == [max_iter] * 3
        assert len(calls) == expected
        assert sum(calls) == max_iter * len(make_solver(kind, sys_).draw_order())  # k per generator


_AGREEMENT_SYSTEMS = {
    Regime.OVER_CONSISTENT: (40, 8),
    Regime.OVER_INCONSISTENT: (40, 8),
    Regime.UNDERDETERMINED: (8, 30),
}


class TestRunBatchAgreement:
    """run is the reference: a batch, in lockstep or not, must reproduce it trial by trial."""

    @staticmethod
    def _assert_batch_is_run(sys_, kind, cfg, trials):
        traces = [run(sys_, kind, cfg, spawn_trial_rng(2, k), trial=k) for k in range(trials)]
        batch = run_batch(sys_, kind, cfg, [spawn_trial_rng(2, k) for k in range(trials)])

        assert batch.final_iterations.tolist() == [tr.final_iteration for tr in traces]
        assert batch.converged.tolist() == [tr.converged for tr in traces]
        assert all(tr.converged for tr in traces)
        stride = cfg.record_every
        last = max(tr.final_iteration for tr in traces)
        assert batch.errors.shape == (trials, last // stride + 1)
        # numpy's sums depend on memory layout, and the CSV's means are sums over trials
        assert batch.errors.flags.c_contiguous
        assert batch.mean_cum_seconds.shape == (last // stride + 1,)
        assert np.all(np.diff(batch.mean_cum_seconds) >= 0)  # interpolated inside spans
        for k, tr in enumerate(traces):
            by_iter = {it: err for it, err, _res in tr.records}
            terminal = tr.records[-1][1]
            for g, value in enumerate(batch.errors[k]):
                expected = by_iter[g * stride] if g * stride <= tr.final_iteration else terminal
                assert value == expected
            assert batch.final_errors[k] == terminal

    # stride 1 puts many grid points in a span, 50 does not divide CHECK_CHUNK
    @pytest.mark.parametrize("stride", [1, 3, 50])
    @pytest.mark.parametrize(
        "kind,regime",
        sorted(CONVERGENT_PAIRS, key=lambda pair: (pair[0].value, pair[1].value)),
        ids=lambda v: v.value,
    )
    def test_same_stops_and_errors_as_run(self, kind, regime, stride, monkeypatch):
        # refresh often enough that the periodic residual refresh runs in both paths
        monkeypatch.setattr(solvers, "RESIDUAL_REFRESH_EVERY", 37)
        m, n = _AGREEMENT_SYSTEMS[regime]
        sys_ = gaussian_system(m, n, regime, seed=6)
        cfg = SolveConfig(max_iter=20_000, tol=1e-8, record_every=stride)
        self._assert_batch_is_run(sys_, kind, cfg, max(8, LOCKSTEP_MIN_TRIALS))

    # below LOCKSTEP_MIN_TRIALS each trial's span is its own ``steps`` call
    @pytest.mark.parametrize("trials", [1, LOCKSTEP_MIN_TRIALS - 1])
    @pytest.mark.parametrize(
        "kind,regime",
        sorted(CONVERGENT_PAIRS, key=lambda pair: (pair[0].value, pair[1].value)),
        ids=lambda v: v.value,
    )
    def test_one_by_one_same_stops_and_errors_as_run(self, kind, regime, trials, monkeypatch):
        monkeypatch.setattr(solvers, "RESIDUAL_REFRESH_EVERY", 37)

        def no_lockstep(*args):
            raise AssertionError("steps_batch called below LOCKSTEP_MIN_TRIALS")

        monkeypatch.setattr(solvers._SOLVER_CLASSES[kind], "steps_batch", no_lockstep)
        m, n = _AGREEMENT_SYSTEMS[regime]
        sys_ = gaussian_system(m, n, regime, seed=6)
        cfg = SolveConfig(max_iter=20_000, tol=1e-8, record_every=7)
        self._assert_batch_is_run(sys_, kind, cfg, trials)

    # the mode of a span follows the trials still running, so the last two trials of a
    # lockstep batch run one by one; spans of one step let the trials stop one at a time
    @pytest.mark.parametrize("kind", list(SolverKind), ids=lambda k: k.value)
    def test_a_span_runs_in_lockstep_iff_enough_trials_are_running(self, kind, monkeypatch):
        monkeypatch.setattr(solvers, "CHECK_CHUNK", 1)
        cls = solvers._SOLVER_CLASSES[kind]
        batch_steps, one_steps = cls.steps_batch, cls.steps
        calls = []  # (kernel, trials running) of each kernel call

        def steps_batch(self, state, *args):
            calls.append(("steps_batch", len(state.beta)))
            return batch_steps(self, state, *args)

        def steps(self, state, *args):
            calls.append(("steps", len(state.beta.base)))  # a view of one batch row
            return one_steps(self, state, *args)

        monkeypatch.setattr(cls, "steps_batch", steps_batch)
        monkeypatch.setattr(cls, "steps", steps)
        sys_ = gaussian_system(40, 8, Regime.OVER_CONSISTENT, seed=6)
        cfg = SolveConfig(max_iter=20_000, tol=1e-8, record_every=7)
        batch = run_batch(sys_, kind, cfg, [spawn_trial_rng(2, k) for k in range(8)])
        assert batch.converged.all()
        assert all((kernel == "steps_batch") == (running >= LOCKSTEP_MIN_TRIALS)
                   for kernel, running in calls)
        assert {("steps_batch", 8), ("steps", 2)} <= set(calls)

    @pytest.mark.parametrize("kind", list(SolverKind), ids=lambda k: k.value)
    def test_a_zero_reference_stops_every_trial_at_0(self, kind):
        base = gaussian_system(40, 8, Regime.OVER_CONSISTENT, seed=6)
        sys_ = _system(base.X.data, np.zeros(40), Regime.OVER_CONSISTENT, reference=np.zeros(8))
        cfg = SolveConfig(max_iter=100, record_every=3)
        self._assert_batch_is_run(sys_, kind, cfg, LOCKSTEP_MIN_TRIALS)

    @pytest.mark.parametrize("kind", [SolverKind.RGS, SolverKind.REGS], ids=lambda k: k.value)
    def test_maintained_residual_refreshed_from_scratch(self, kind, monkeypatch):
        monkeypatch.setattr(solvers, "RESIDUAL_REFRESH_EVERY", 5)
        sys_ = gaussian_system(40, 8, Regime.OVER_CONSISTENT, seed=6)
        solver = make_solver(kind, sys_)
        state = solver.init_state(3)
        rng = np.random.default_rng(0)
        draws = [d.sample_block(rng.random((5, 3))) for d in solver.draw_order()]
        solver.steps_batch(state, draws, list(np.empty((5, 3, sys_.n))))  # ends on the refresh
        # the refresh gives every trial row the bits of the per-trial refresh
        expected = np.array([sys_.y - sys_.X.data @ beta for beta in state.beta])
        assert state.iteration == 5
        assert np.array_equal(state.residual, expected)

    def test_trials_left_at_the_cap_report_max_iter(self):
        sys_ = gaussian_system(40, 8, Regime.OVER_CONSISTENT, seed=6)
        cfg = SolveConfig(max_iter=50, tol=1e-30, record_every=20)
        batch = run_batch(sys_, SolverKind.RK, cfg, [Prng(k) for k in range(3)])
        assert batch.final_iterations.tolist() == [50, 50, 50]
        assert not batch.converged.any()
        assert batch.errors.shape == (3, 3)  # grid 0, 20, 40
        assert np.all(np.diff(batch.mean_cum_seconds) >= 0)

    def test_rejects_residual_stopping(self):
        cfg = SolveConfig(max_iter=10, stop_metric=StopMetric.RESIDUAL_NORM)
        with pytest.raises(ConfigurationError, match="error to reference"):
            run_batch(DIAG_SYS, SolverKind.RK, cfg, [Prng(0)])
