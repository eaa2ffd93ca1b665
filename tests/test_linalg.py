"""Dense matrix storage, reference oracles, projectors, spectral summary."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczgs.errors import ConfigurationError, SingularMatrixError
from kaczgs.linalg import (
    RANK_RTOL,
    DenseMatrix,
    LinearSystem,
    Regime,
    cholesky_factor,
    cholesky_solve,
    least_norm_ref,
    least_squares_ref,
    numeric_rank,
    spectral_summary,
)

from conftest import apply_row_projector, gaussian_system, project_row_span


class TestDenseMatrix:
    def test_norm_caches_consistent(self, rng_numpy):
        X = DenseMatrix(rng_numpy.normal(size=(17, 9)))
        assert X.frob_sq == pytest.approx(X.row_norms_sq.sum(), rel=1e-12)
        assert X.frob_sq == pytest.approx(X.col_norms_sq.sum(), rel=1e-12)

    def test_row_norms_exact(self):
        X = DenseMatrix([[3.0, 4.0], [1.0, 0.0]])
        assert X.row_norms_sq[0] == 25.0
        assert X.row_norms_sq[1] == 1.0
        assert X.col_norms_sq[0] == 10.0
        assert X.frob_sq == 26.0

    def test_immutable_after_construction(self):
        X = DenseMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            X.data[0, 0] = 5.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            DenseMatrix([1.0, 2.0])
        with pytest.raises(ConfigurationError):
            DenseMatrix(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            DenseMatrix([[1.0, float("nan")]])


class TestLinearSystemInvariants:
    def test_regime_shape_mismatch(self):
        X = DenseMatrix(np.ones((2, 3)))
        with pytest.raises(ConfigurationError):
            LinearSystem(X, np.ones(2), Regime.OVER_CONSISTENT)
        with pytest.raises(ConfigurationError):
            LinearSystem(DenseMatrix(np.ones((3, 2))), np.ones(3), Regime.UNDERDETERMINED)

    def test_bad_reference_rejected(self):
        X = DenseMatrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ConfigurationError):
            LinearSystem(X, y, Regime.OVER_CONSISTENT, reference=np.array([5.0, 5.0]))

    def test_bad_residual_rejected(self):
        X = DenseMatrix([[1.0], [1.0]])
        with pytest.raises(ConfigurationError):
            LinearSystem(
                X,
                np.array([1.0, 3.0]),
                Regime.OVER_INCONSISTENT,
                residual_ref=np.array([1.0, 1.0]),  # not orthogonal to the column
            )

    # finite entries near the top of the float range must not overflow a gate's
    # norm (to inf, with a RuntimeWarning) and so accept a wrong reference
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_y_does_not_pass_a_wrong_reference(self):
        with pytest.raises(ConfigurationError, match="does not solve"):
            LinearSystem(DenseMatrix(np.eye(2)), [1e300, 1e300], Regime.OVER_CONSISTENT,
                         reference=[1.0, 5.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_residual_must_still_be_orthogonal(self):
        X = DenseMatrix([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ConfigurationError, match="not orthogonal"):
            LinearSystem(X, [1e300, 0.0, 1e300], Regime.OVER_INCONSISTENT,
                         residual_ref=[1e300, 0.0, 1e300])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_valid_references_accepted(self):
        big = 1.7976931348623157e308
        LinearSystem(DenseMatrix(np.eye(2)), [big, -big], Regime.OVER_CONSISTENT,
                     reference=[big, -big])
        X = DenseMatrix([[1.0e150, 0.0], [0.0, 1.0e150], [0.0, 0.0]])
        LinearSystem(X, [big, big, big], Regime.OVER_INCONSISTENT,
                     reference=[big / 1e150, big / 1e150], residual_ref=[0.0, 0.0, big])

    def test_square_consistent_allowed(self):
        sys_ = LinearSystem(
            DenseMatrix(np.eye(2)),
            np.array([2.0, 3.0]),
            Regime.OVER_CONSISTENT,
            reference=np.array([2.0, 3.0]),
        )
        assert sys_.m == sys_.n == 2


class TestLeastSquares:
    def test_mean_of_observations(self):
        sys_ = LinearSystem(
            DenseMatrix([[1.0], [1.0]]), np.array([1.0, 3.0]), Regime.OVER_INCONSISTENT
        )
        assert least_squares_ref(sys_) == pytest.approx([2.0])

    def test_identity(self):
        sys_ = LinearSystem(DenseMatrix(np.eye(2)), np.array([2.0, 3.0]), Regime.OVER_CONSISTENT)
        assert least_squares_ref(sys_) == pytest.approx([2.0, 3.0])

    def test_scalar_calculus_oracle(self):
        # minimize (1 - b)^2 + (1 - 2b)^2: derivative 10b - 6 = 0
        oracle = 6.0 / 10.0
        sys_ = LinearSystem(
            DenseMatrix([[1.0], [2.0]]), np.array([1.0, 1.0]), Regime.OVER_INCONSISTENT
        )
        assert least_squares_ref(sys_) == pytest.approx([oracle], rel=1e-12)

    def test_normal_equations_residual(self, rng_numpy):
        for _ in range(5):
            X = DenseMatrix(rng_numpy.normal(size=(30, 7)))
            y = rng_numpy.normal(size=30)
            sys_ = LinearSystem(X, y, Regime.OVER_INCONSISTENT)
            beta = least_squares_ref(sys_)
            lhs = np.linalg.norm(X.data.T @ (y - X.data @ beta))
            assert lhs <= 1e-8 * np.sqrt(X.frob_sq) * np.linalg.norm(y)

    def test_matches_numpy_lstsq(self, rng_numpy):
        X = DenseMatrix(rng_numpy.normal(size=(25, 6)))
        y = rng_numpy.normal(size=25)
        sys_ = LinearSystem(X, y, Regime.OVER_INCONSISTENT)
        expected = np.linalg.lstsq(X.data, y, rcond=None)[0]
        assert least_squares_ref(sys_) == pytest.approx(expected, rel=1e-10)

    def test_rank_deficient_reports_ratio(self):
        X = DenseMatrix(np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0)]))
        sys_ = LinearSystem(X, np.ones(5), Regime.OVER_INCONSISTENT)
        with pytest.raises(SingularMatrixError, match="eigenvalue ratio"):
            least_squares_ref(sys_)

    def test_shape_precondition(self):
        sys_ = LinearSystem(DenseMatrix(np.ones((2, 3))), np.ones(2), Regime.UNDERDETERMINED)
        with pytest.raises(ConfigurationError):
            least_squares_ref(sys_)


class TestLeastNorm:
    def test_symmetry_forces_equal_coordinates(self):
        sys_ = LinearSystem(DenseMatrix([[1.0, 1.0]]), np.array([2.0]), Regime.UNDERDETERMINED)
        assert least_norm_ref(sys_) == pytest.approx([1.0, 1.0])

    def test_single_pinned_coordinate(self):
        sys_ = LinearSystem(DenseMatrix([[1.0, 0.0]]), np.array([5.0]), Regime.UNDERDETERMINED)
        assert least_norm_ref(sys_) == pytest.approx([5.0, 0.0])

    def test_minimum_over_solution_line(self):
        # solutions of x + 2z = 5 are (5 - 2z, z); norm' = 0 at z = 2 -> (1, 2)
        zs = np.linspace(-3.0, 5.0, 4001)
        norms = (5.0 - 2.0 * zs) ** 2 + zs**2
        z_star = zs[np.argmin(norms)]
        assert z_star == pytest.approx(2.0, abs=2e-3)
        sys_ = LinearSystem(DenseMatrix([[1.0, 2.0]]), np.array([5.0]), Regime.UNDERDETERMINED)
        assert least_norm_ref(sys_) == pytest.approx([1.0, 2.0], rel=1e-12)

    def test_solves_system_and_lies_in_row_span(self, rng_numpy):
        X = DenseMatrix(rng_numpy.normal(size=(6, 20)))
        y = rng_numpy.normal(size=6)
        sys_ = LinearSystem(X, y, Regime.UNDERDETERMINED)
        beta = least_norm_ref(sys_)
        assert np.linalg.norm(X.data @ beta - y) <= 1e-8 * np.linalg.norm(y)
        off_span = beta - project_row_span(X, beta)
        assert np.linalg.norm(off_span) <= 1e-8 * np.linalg.norm(beta)

    def test_orthogonal_decomposition_minimality(self, rng_numpy):
        X = DenseMatrix(rng_numpy.normal(size=(5, 16)))
        y = rng_numpy.normal(size=5)
        sys_ = LinearSystem(X, y, Regime.UNDERDETERMINED)
        beta_ln = least_norm_ref(sys_)
        for _ in range(20):
            v = rng_numpy.normal(size=16)
            z = v - project_row_span(X, v)  # null-space vector
            lhs = np.linalg.norm(beta_ln + z) ** 2
            rhs = np.linalg.norm(beta_ln) ** 2 + np.linalg.norm(z) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_rank_deficient_rows(self):
        X = DenseMatrix(np.vstack([np.arange(4.0), 2.0 * np.arange(4.0)]))
        sys_ = LinearSystem(X, np.array([1.0, 2.0]), Regime.UNDERDETERMINED)
        with pytest.raises(SingularMatrixError):
            least_norm_ref(sys_)


class TestRowProjector:
    def test_annihilates_own_row(self):
        X = DenseMatrix([[3.0, 4.0]])
        assert apply_row_projector(X, 0, [3.0, 4.0]) == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_fixes_orthogonal_vector(self):
        X = DenseMatrix([[3.0, 4.0]])
        assert apply_row_projector(X, 0, [4.0, -3.0]) == pytest.approx([4.0, -3.0])

    def test_explicit_matrix_oracle(self):
        # P = I - [3,4]^T [3,4] / 25 applied to e_1
        row = np.array([3.0, 4.0])
        P = np.eye(2) - np.outer(row, row) / 25.0
        expected = P @ np.array([1.0, 0.0])
        assert expected == pytest.approx([16.0 / 25.0, -12.0 / 25.0])
        X = DenseMatrix([row])
        assert apply_row_projector(X, 0, [1.0, 0.0]) == pytest.approx(expected, rel=1e-14)

    def test_idempotent(self, rng_numpy):
        X = DenseMatrix(rng_numpy.normal(size=(4, 9)))
        for i in range(4):
            w = rng_numpy.normal(size=9)
            once = apply_row_projector(X, i, w)
            twice = apply_row_projector(X, i, once)
            assert twice == pytest.approx(once, abs=1e-12)

    def test_zero_row_rejected(self):
        X = DenseMatrix([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ConfigurationError):
            apply_row_projector(X, 0, [1.0, 2.0])


class TestSpectralSummary:
    def test_diagonal(self):
        s = spectral_summary(DenseMatrix([[2.0, 0.0], [0.0, 1.0]]))
        assert s.sigma_min == pytest.approx(1.0)
        assert s.sigma_max == pytest.approx(2.0)
        assert s.kappa == pytest.approx(2.0)

    def test_identity(self):
        s = spectral_summary(DenseMatrix(np.eye(3)))
        assert s.sigma_min == pytest.approx(1.0)
        assert s.sigma_max == pytest.approx(1.0)
        assert s.kappa == pytest.approx(1.0)

    def test_smallest_nonzero_singular_value(self):
        # X^T X = [[9,12],[12,16]] has eigenvalues {0, 25}
        s = spectral_summary(DenseMatrix([[3.0, 4.0], [0.0, 0.0]]))
        assert s.sigma_min == pytest.approx(5.0, rel=1e-12)
        assert s.sigma_max == pytest.approx(5.0, rel=1e-12)
        assert s.lambda_min == pytest.approx(25.0, rel=1e-12)

    @pytest.mark.parametrize("shape", [(12, 5), (5, 12), (9, 9)])
    def test_matches_numpy_svd(self, shape, rng_numpy):
        X = DenseMatrix(rng_numpy.normal(size=shape))
        s = spectral_summary(X)
        sv = np.linalg.svd(X.data, compute_uv=False)
        assert s.sigma_max == pytest.approx(sv[0], rel=1e-10)
        assert s.sigma_min == pytest.approx(sv[sv > 1e-10 * sv[0]].min(), rel=1e-10)

    def test_singular_value_bounds_on_row_span(self, rng_numpy):
        X = DenseMatrix(rng_numpy.normal(size=(6, 15)))
        s = spectral_summary(X)
        for _ in range(100):
            v = project_row_span(X, rng_numpy.normal(size=15))
            nv = np.linalg.norm(v)
            nxv = np.linalg.norm(X.data @ v)
            assert s.sigma_min * nv <= nxv * (1.0 + 1e-8)
            assert nxv <= s.sigma_max * nv * (1.0 + 1e-8)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            spectral_summary(DenseMatrix([[0.0]]))

    def test_numeric_rank(self, rng_numpy):
        X = DenseMatrix(rng_numpy.normal(size=(8, 5)))
        assert numeric_rank(X) == 5
        dup = np.column_stack([X.data[:, :4], X.data[:, 0]])
        assert numeric_rank(DenseMatrix(dup)) == 4


class TestCholesky:
    def test_factor_and_solve_match_numpy(self, rng_numpy):
        A = rng_numpy.normal(size=(10, 6))
        gram = A.T @ A
        rhs = rng_numpy.normal(size=6)
        low = cholesky_factor(gram)
        assert low @ low.T == pytest.approx(gram, rel=1e-12)
        x = cholesky_solve(low, rhs)
        assert x == pytest.approx(np.linalg.solve(gram, rhs), rel=1e-10)

    def test_non_spd_rejected(self):
        with pytest.raises(SingularMatrixError):
            cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite

    @pytest.mark.parametrize("factor", [0.99, 0.5])
    def test_pivot_just_under_floor_rejected(self, factor):
        # [[1, 1], [1, 1 + d]] is positive definite with second pivot d, so
        # LAPACK factors it; the floor RANK_RTOL * max_diag must still reject.
        d = factor * RANK_RTOL
        with pytest.raises(SingularMatrixError, match="pivot 1 fell to"):
            cholesky_factor(np.array([[1.0, 1.0], [1.0, 1.0 + d]]))

    def test_pivot_just_over_floor_accepted(self):
        d = 1.01 * RANK_RTOL
        low = cholesky_factor(np.array([[1.0, 1.0], [1.0, 1.0 + d]]))
        assert low[1, 1] ** 2 == pytest.approx(d, rel=1e-5)


# derandomized and without an example database: a fixed example set per run
_oracle_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def _gaussian_arrays(draw, min_side=1, max_side=7):
    """Gaussian matrices of every shape up to max_side on both sides of m = n."""
    m, n = draw(st.integers(min_side, max_side)), draw(st.integers(min_side, max_side))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).normal(size=(m, n))


def _svd_oracle(a):
    """(sigma_max, smallest sigma above the rank threshold, numeric rank) from the SVD."""
    sv = np.linalg.svd(a, compute_uv=False)
    nonzero = sv[sv**2 > RANK_RTOL * sv[0] ** 2]
    return sv[0], nonzero.min(), nonzero.size


def _assert_summary_matches(a):
    smax, smin, rank = _svd_oracle(a)
    X = DenseMatrix(a)
    s = spectral_summary(X)
    # a backward-stable symmetric eigensolve moves each Gram eigenvalue by
    # O(eps * sigma_max^2), so sigma_min^2 is compared on that absolute scale
    assert s.sigma_max == pytest.approx(smax, rel=1e-12)
    assert abs(s.sigma_min**2 - smin**2) <= 1e-12 * smax**2
    assert numeric_rank(X) == rank
    return rank


class TestSpectralOracle:
    """spectral_summary and numeric_rank against np.linalg.svd of X itself."""

    @_oracle_settings
    @given(_gaussian_arrays())
    def test_full_rank_matches_svd(self, a):
        assert _assert_summary_matches(a) == min(a.shape)

    @_oracle_settings
    @given(_gaussian_arrays(min_side=2), st.integers(1, 6))
    def test_duplicated_rows_or_columns_lose_rank(self, a, copies):
        # overwrite the last rows (if m <= n) or columns (if n < m) with
        # copies of the first: the smaller side keeps its length but the rank
        # drops by the number of copies
        k = min(a.shape)
        copies = min(copies, k - 1)
        dup = a.copy()
        if a.shape[0] <= a.shape[1]:
            dup[k - copies :] = a[0]
        else:
            dup[:, k - copies :] = a[:, [0]]
        assert _assert_summary_matches(dup) == k - copies


class TestGeneratedSystemsPassOracles(object):
    def test_all_regimes(self):
        for regime, shape in [
            (Regime.OVER_CONSISTENT, (24, 6)),
            (Regime.OVER_INCONSISTENT, (24, 6)),
            (Regime.UNDERDETERMINED, (6, 24)),
        ]:
            sys_ = gaussian_system(shape[0], shape[1], regime, seed=2)
            assert sys_.reference is not None
            if regime is Regime.OVER_INCONSISTENT:
                assert sys_.residual_ref is not None
