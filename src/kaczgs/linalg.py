"""Dense real matrices, linear systems, and direct reference solutions.

Everything here is deliberately boring: row-major float64 storage with
cached norms, a symmetric positive-definite (Cholesky) solve for the Gram
systems behind the least-squares / least-norm references, and extreme
singular values from the eigenvalues of the smaller Gram matrix. The
factorizations and eigensolves are LAPACK's, via ``numpy.linalg``; this
module adds the rank thresholds and maps LAPACK failures onto the
package's errors. Iterative solvers are validated against these direct
routes.

All types are immutable after construction and safe to share across
threads; the functions are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError, NumericalError, SingularMatrixError

#: eigenvalues below RANK_RTOL * lambda_max count as zero (numeric rank)
RANK_RTOL = 1e-10


class Regime(Enum):
    """Shape/consistency class of a linear system."""

    OVER_CONSISTENT = "over-consistent"
    OVER_INCONSISTENT = "over-inconsistent"
    UNDERDETERMINED = "underdetermined"


class DenseMatrix:
    """Row-major dense real matrix with cached row/column/Frobenius norms.

    The backing array is copied on construction and marked read-only, so the
    cached squared norms stay valid for the object's lifetime. Finite entries
    whose squared norms overflow raise NumericalError.
    """

    __slots__ = ("data", "rows", "cols", "row_norms_sq", "col_norms_sq", "frob_sq")

    def __init__(self, data):
        arr = np.array(data, dtype=float)
        if arr.ndim != 2:
            raise ConfigurationError(f"matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ConfigurationError(f"matrix dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("matrix entries must be finite")
        arr.setflags(write=False)
        self.data = arr
        self.rows, self.cols = arr.shape
        with np.errstate(over="ignore"):  # an overflow is reported just below
            sq = arr * arr
            row_nsq = sq.sum(axis=1)
            col_nsq = sq.sum(axis=0)
        row_nsq.setflags(write=False)
        col_nsq.setflags(write=False)
        self.row_norms_sq = row_nsq
        self.col_norms_sq = col_nsq
        self.frob_sq = float(row_nsq.sum())
        if not (math.isfinite(self.frob_sq) and np.all(np.isfinite(col_nsq))):
            raise NumericalError("squared norms of the matrix overflow float64")

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols}, frob_sq={self.frob_sq:.6g})"


# ---------------------------------------------------------------------------
# Linear systems

def _max_abs(v: np.ndarray) -> float:
    return float(np.max(np.abs(v), initial=0.0))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm, taken of v scaled by its largest entry so it cannot overflow."""
    scale = _max_abs(v)
    if scale == 0.0:
        return 0.0
    w = v / scale
    return scale * math.sqrt(float(w @ w))


def _as_readonly_vector(v, length, name):
    arr = np.array(v, dtype=float)
    if arr.shape != (length,):
        raise ConfigurationError(f"{name} must have shape ({length},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LinearSystem:
    """A system X beta = y with its regime tag and optional reference solution.

    ``reference`` holds the regime's target: the unique solution
    (over-consistent), the least-squares solution (over-inconsistent), or the
    least-norm solution (underdetermined). ``residual_ref`` holds
    r = y - X beta_LS for inconsistent systems. Construction validates the
    regime/shape pairing and, when references are present, their defining
    identities.
    """

    X: DenseMatrix
    y: np.ndarray
    regime: Regime
    reference: np.ndarray | None = None
    residual_ref: np.ndarray | None = None
    seed: int | None = None  # generator provenance, if known

    def __post_init__(self):
        object.__setattr__(self, "y", _as_readonly_vector(self.y, self.X.rows, "y"))
        m, n = self.X.rows, self.X.cols
        if self.regime in (Regime.OVER_CONSISTENT, Regime.OVER_INCONSISTENT):
            if m < n:
                raise ConfigurationError(
                    f"regime {self.regime.value} requires m >= n, got {m}x{n}"
                )
        elif m > n:
            raise ConfigurationError(f"regime underdetermined requires m <= n, got {m}x{n}")
        if self.reference is not None:
            ref = _as_readonly_vector(self.reference, n, "reference")
            object.__setattr__(self, "reference", ref)
        if self.residual_ref is not None:
            r = _as_readonly_vector(self.residual_ref, m, "residual_ref")
            object.__setattr__(self, "residual_ref", r)
        self._check_reference_identities()

    def _check_reference_identities(self):
        # each gate compares norms of vectors scaled by their largest entry, so
        # finite entries cannot overflow a norm and wave a wrong reference through
        if self.regime is Regime.OVER_INCONSISTENT and self.residual_ref is not None:
            scale = _max_abs(self.residual_ref)
            if scale > 0.0:
                r = self.residual_ref / scale
                lhs = _norm(self.X.data.T @ r)
                bound = 1e-8 * math.sqrt(self.X.frob_sq) * _norm(r)
                if lhs > bound:
                    raise ConfigurationError(
                        f"residual_ref is not orthogonal to the column space: "
                        f"||X^T r|| = {lhs * scale:.3e} exceeds {bound * scale:.3e}"
                    )
        if self.reference is not None and self.regime is not Regime.OVER_INCONSISTENT:
            scale = max(_max_abs(self.reference), _max_abs(self.y))
            if scale > 0.0:
                y = self.y / scale
                gap = _norm(self.X.data @ (self.reference / scale) - y)
                ynorm = _norm(y)
                if gap > 1e-8 * max(ynorm, 1e-300 / scale):
                    raise ConfigurationError(
                        f"reference does not solve the system: ||X ref - y|| = "
                        f"{gap * scale:.3e} exceeds 1e-8 * ||y|| = {1e-8 * ynorm * scale:.3e}"
                    )

    @property
    def m(self) -> int:
        return self.X.rows

    @property
    def n(self) -> int:
        return self.X.cols


# ---------------------------------------------------------------------------
# Symmetric positive-definite solve (Gram systems)

def cholesky_factor(gram: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Lower-triangular L with gram = L L^T.

    Pivots L[i, i]^2 are required to stay above rtol times the largest
    diagonal entry of gram; a smaller pivot, or a matrix LAPACK finds not
    positive definite, raises SingularMatrixError.
    """
    a = np.array(gram, dtype=float)
    k = a.shape[0]
    if a.shape != (k, k):
        raise ConfigurationError(f"Gram matrix must be square, got {a.shape}")
    max_diag = float(a.diagonal().max(initial=0.0))
    if max_diag <= 0.0:
        raise SingularMatrixError("Gram matrix has no positive diagonal entry")
    floor = rtol * max_diag
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"Gram matrix is not positive definite (pivot threshold {floor:.3e})"
        ) from exc
    pivots = low.diagonal() ** 2
    low_pivots = np.flatnonzero(~(pivots > floor))  # also catches NaN pivots
    if low_pivots.size:
        i = int(low_pivots[0])
        raise SingularMatrixError(
            f"Gram matrix pivot {i} fell to {pivots[i]:.3e} (threshold {floor:.3e})"
        )
    return low


def cholesky_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b given the lower factor L."""
    return np.linalg.solve(low.T, np.linalg.solve(low, b))


def _spd_solve(gram: np.ndarray, rhs: np.ndarray, matrix: DenseMatrix) -> np.ndarray:
    """SPD solve with one step of iterative refinement.

    On a rank-deficient Gram matrix, reports the offending eigenvalue ratio
    (computed on demand).
    """
    try:
        low = cholesky_factor(gram)
    except SingularMatrixError as exc:
        eigs = _eigvalsh(gram)
        lam_max = float(eigs.max(initial=0.0))
        lam_min = float(eigs.min(initial=0.0))
        ratio = lam_min / lam_max if lam_max > 0 else float("nan")
        raise SingularMatrixError(
            f"rank-deficient Gram matrix of {matrix.rows}x{matrix.cols} system: "
            f"eigenvalue ratio {ratio:.3e} below {RANK_RTOL:.1e}"
        ) from exc
    x = cholesky_solve(low, rhs)
    x += cholesky_solve(low, rhs - gram @ x)
    return x


def least_squares_ref(system: LinearSystem) -> np.ndarray:
    """Direct least-squares solution (X^T X)^{-1} X^T y via the Gram solve.

    Requires m >= n and full column rank (smallest Gram eigenvalue above
    RANK_RTOL times the largest).
    """
    X = system.X
    if X.rows < X.cols:
        raise ConfigurationError(
            f"least_squares_ref requires m >= n, got {X.rows}x{X.cols}"
        )
    gram = X.data.T @ X.data
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported just below
        rhs = X.data.T @ system.y
    if not np.all(np.isfinite(rhs)):
        raise ConfigurationError("X^T y overflows float64")
    return _spd_solve(gram, rhs, X)


def least_norm_ref(system: LinearSystem) -> np.ndarray:
    """Minimum-norm solution X^T (X X^T)^{-1} y via the Gram solve.

    Requires m <= n, full row rank, and a consistent right-hand side; the
    result lies in the row span of X by construction.
    """
    X = system.X
    if X.rows > X.cols:
        raise ConfigurationError(f"least_norm_ref requires m <= n, got {X.rows}x{X.cols}")
    gram = X.data @ X.data.T
    alpha = _spd_solve(gram, system.y, X)
    return X.data.T @ alpha


# ---------------------------------------------------------------------------
# Spectral summary from the eigenvalues of the smaller Gram matrix

def _eigvalsh(sym: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (LAPACK ``eigvalsh``).

    Raises NumericalError when the eigensolve fails or yields non-finite
    values, e.g. on a Gram matrix that overflowed to inf.
    """
    try:
        eigs = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolve failed: {exc}") from exc
    if not np.all(np.isfinite(eigs)):
        raise NumericalError("symmetric eigensolve produced non-finite eigenvalues")
    return eigs


@dataclass(frozen=True)
class SpectralSummary:
    """Extreme singular values of a matrix and derived spectral quantities."""

    sigma_min: float  # smallest singular value above the rank threshold
    sigma_max: float
    kappa: float = field(init=False)
    lambda_min: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "kappa", self.sigma_max / self.sigma_min)
        object.__setattr__(self, "lambda_min", self.sigma_min**2)


def gram_eigenvalues(matrix: DenseMatrix) -> np.ndarray:
    """Eigenvalues of the smaller Gram matrix (X^T X if n <= m, else X X^T)."""
    a = matrix.data
    gram = a.T @ a if matrix.cols <= matrix.rows else a @ a.T
    return _eigvalsh(gram)


def numeric_rank(matrix: DenseMatrix) -> int:
    """Count of Gram eigenvalues strictly above RANK_RTOL times the largest."""
    eigs = gram_eigenvalues(matrix)
    lam_max = float(eigs.max(initial=0.0))
    if lam_max <= 0.0:
        return 0
    return int((eigs > RANK_RTOL * lam_max).sum())


def spectral_summary(matrix: DenseMatrix) -> SpectralSummary:
    """Extreme singular values from the eigenvalues of the smaller Gram.

    sigma_min is the square root of the smallest eigenvalue strictly above
    RANK_RTOL times the largest, i.e. the smallest *nonzero* singular value.
    """
    if matrix.frob_sq <= 0.0:
        raise ConfigurationError("spectral_summary requires a nonzero matrix")
    eigs = gram_eigenvalues(matrix)
    lam_max = float(eigs.max())
    positive = eigs[eigs > RANK_RTOL * lam_max]
    lam_min = float(positive.min())
    return SpectralSummary(sigma_min=math.sqrt(lam_min), sigma_max=math.sqrt(lam_max))
