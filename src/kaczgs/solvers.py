"""The four randomized iterative kernels and two run drivers.

Each solver advances a mutable :class:`SolverState` one randomized update at
a time:

* RK   — project the iterate onto the hyperplane of one sampled row.
* RGS  — exactly minimize the least-squares objective along one sampled
         coordinate (randomized coordinate descent).
* REK  — RK plus a column-projection sequence z_t (started at y) that strips
         the component of y orthogonal to the range of X, unlocking
         convergence to the least-squares solution.
* REGS — RGS plus a row-projector sequence z_t (started at 0) that tracks
         the component of the iterate orthogonal to the row span; the
         reported estimate is beta_t - z_t, which converges to the
         least-norm solution.

One combined update (row draw + column draw for the extended methods)
counts as one iteration.

A solver's ``draw_order()`` is the one statement of what a step draws (RK:
row; RGS: column; REK: row then column; REGS: column then row), and
``_draw_blocks`` is the one way the draws are made: one uniform per draw
from the trial's own generator, mapped to an index by
``WeightedIndex.sample_block``. It draws a block of steps for all trials
in one ``batch_uniforms`` call; blocks start at 64 steps and double up to
DRAW_BUDGET uniforms a call. ``step`` and ``step_batch`` only apply the
indices they are given.

``run`` drives one trial through ``step`` and stops on the exact stop
metric, which it computes at every record, every RESIDUAL_REFRESH_EVERY-th
step, and wherever a certificate cannot prove it still at or above tol.
Between those steps it carries the metric forward with a
``_RunningMetric``, in O(1) or O(n) from the scale and dot products each
``step`` returns. The certificate is that running value less a tally of
its rounding since the last exact value and a bound on the rounding of the
exact computation it replaces, so ``run`` stops where a check after every
step would stop.

``run_batch`` drives several trials of one solver in lockstep through
``step_batch``, on a state whose arrays hold one row per trial: (T, n)
iterates, a (T, m) residual, and a (T, m) z for REK or a (T, n) z for
REGS; it checks each trial's exact error every step. Each trial gets the
same draws and the same updates and residual refreshes as under ``run``,
computed bit for bit the same way: each row's dot product is one
``np.vecdot`` row, the same BLAS dot that ``x @ y`` calls, and the refresh
is one routine for both shapes. So a batched trial's errors equal those of ``run``, and so of
``kaczgs solve``, of the same trial exactly.

A note on the extended Gauss-Seidel coordinate update: the per-step
increment along coordinate j is the coordinate least-squares correction
X_(j)^T (y - X beta) / ||X_(j)||^2, identical to the plain RGS update, so
driving both kernels with the same column draws produces identical beta
sequences; only the auxiliary z sequence differs.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np

from .errors import ConfigurationError
from .linalg import LinearSystem, Regime
from .sampling import Prng, WeightedIndex, batch_uniforms, col_distribution, row_distribution

#: maintained residuals are recomputed from scratch this often to cap drift, and
#: ``run`` computes the exact stop metric at least this often
RESIDUAL_REFRESH_EVERY = 1000

#: uniforms drawn in one call for a block of steps, across all trials of the block
DRAW_BUDGET = 4096


class SolverKind(Enum):
    RK = "rk"
    RGS = "rgs"
    REK = "rek"
    REGS = "regs"


class StopMetric(Enum):
    ERROR_TO_REFERENCE = "error"
    RESIDUAL_NORM = "residual"


#: (solver, regime) pairs that converge to the regime's reference solution
CONVERGENT_PAIRS = {
    (SolverKind.RK, Regime.OVER_CONSISTENT),
    (SolverKind.RK, Regime.UNDERDETERMINED),
    (SolverKind.RGS, Regime.OVER_CONSISTENT),
    (SolverKind.RGS, Regime.OVER_INCONSISTENT),
    (SolverKind.REK, Regime.OVER_CONSISTENT),
    (SolverKind.REK, Regime.OVER_INCONSISTENT),
    (SolverKind.REK, Regime.UNDERDETERMINED),
    (SolverKind.REGS, Regime.OVER_CONSISTENT),
    (SolverKind.REGS, Regime.OVER_INCONSISTENT),
    (SolverKind.REGS, Regime.UNDERDETERMINED),
}


@dataclass
class SolverState:
    """Mutable per-run state; single-owner, never shared across threads.

    For ``run`` the arrays are vectors; for ``run_batch`` they hold one row
    per trial. ``residual`` mirrors y - X beta. RGS/REGS maintain it step by
    step and refresh it from scratch every RESIDUAL_REFRESH_EVERY steps;
    RK/REK leave it stale. Either way ``sync_residual`` makes it current
    before any read.
    """

    beta: np.ndarray
    residual: np.ndarray
    iteration: int = 0
    z: np.ndarray | None = None


@dataclass(frozen=True)
class SolveConfig:
    """Stopping rule and history stride for a single solver run.

    ``tol`` compares against squared quantities: squared error to the
    reference, or squared residual norm.
    """

    max_iter: int
    tol: float = 1e-6
    stop_metric: StopMetric = StopMetric.ERROR_TO_REFERENCE
    record_every: int = 1

    def __post_init__(self):
        if self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (self.tol > 0):
            raise ConfigurationError(f"tol must be positive, got {self.tol}")
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class ConvergenceTrace:
    """Per-iteration history of one run: (iteration, error_sq, residual_sq)."""

    solver: SolverKind
    trial: int
    converged: bool
    final_iteration: int
    records: list[tuple[int, float, float]] = field(default_factory=list)
    #: wall clock from the start of the run to each record, in seconds
    seconds: list[float] = field(default_factory=list)


class _Solver:
    """Shared setup: sampling distributions are built once per system."""

    kind: SolverKind
    needs_rows = True
    needs_cols = False

    def __init__(self, system: LinearSystem):
        self.system = system
        X = system.X
        self._rows_arr = X.data
        self._y = system.y
        self._row_nsq = X.row_norms_sq
        self._col_nsq = X.col_norms_sq
        # Python floats for the single-trial step: the same IEEE arithmetic, less dispatch
        self._y_vals = self._y.tolist()
        self._row_nsq_vals = self._row_nsq.tolist()
        self._col_nsq_vals = self._col_nsq.tolist()
        self._row_dist = row_distribution(X) if self.needs_rows else None
        self._col_dist = col_distribution(X) if self.needs_cols else None
        # contiguous copy of the columns; column dots dominate RGS-family cost
        self._cols_arr = np.ascontiguousarray(X.data.T) if self.needs_cols else None

    def init_state(self, trials: int | None = None) -> SolverState:
        """Zero iterates and residual y: vectors, or one row per trial."""
        rows = () if trials is None else (trials,)
        return SolverState(beta=np.zeros(rows + (self.system.n,)),
                           residual=np.broadcast_to(self._y, rows + (self.system.m,)).copy())

    def estimate(self, state: SolverState) -> np.ndarray:
        return state.beta

    def sync_residual(self, state: SolverState) -> None:
        """Make state.residual equal y - X beta exactly (up to one matvec)."""
        state.residual = self._y - self._rows_arr @ state.beta

    def draw_order(self) -> list[WeightedIndex]:
        """The distributions one step draws from, in the order it draws."""
        return [self._row_dist]

    def step(self, state: SolverState, draws: tuple[int, ...]) -> tuple:
        """Advance one step; draws holds one index per entry of draw_order().

        Returns the step's scale and the dot products it took, which the
        running stop metric reads (see ``_RunningMetric``).
        """
        raise NotImplementedError

    # -- lockstep batches: one row per trial, driven by run_batch ----------

    def step_batch(self, state: SolverState, draws: list[np.ndarray]) -> None:
        """Advance every trial one step; draws[k][t] is trial t's k-th index."""
        raise NotImplementedError


class _MaintainedResidual(_Solver):
    """RGS and REGS: the residual is updated by every step, so it is current."""

    needs_cols = True

    def sync_residual(self, state: SolverState) -> None:
        """Refresh the residual from scratch every RESIDUAL_REFRESH_EVERY steps.

        One matvec per trial row, each bit for bit ``X @ beta`` of that row.
        """
        if state.iteration % RESIDUAL_REFRESH_EVERY == 0:
            state.residual = self._y - np.matmul(self._rows_arr, state.beta[..., None])[..., 0]


class RandomizedKaczmarz(_Solver):
    kind = SolverKind.RK

    def step(self, state: SolverState, draws: tuple[int, ...]) -> tuple:
        """Returns (scale, x_i . beta before the step)."""
        (i,) = draws
        xi = self._rows_arr[i]
        dot = float(xi @ state.beta)
        scale = (self._y_vals[i] - dot) / self._row_nsq_vals[i]
        state.beta += scale * xi
        state.iteration += 1
        return scale, dot

    def step_batch(self, state: SolverState, draws: list[np.ndarray]) -> None:
        (i,) = draws
        xi = self._rows_arr.take(i, axis=0)
        scale = (self._y.take(i) - np.vecdot(xi, state.beta)) / self._row_nsq.take(i)
        state.beta += scale[:, None] * xi
        state.iteration += 1


class RandomizedGaussSeidel(_MaintainedResidual):
    kind = SolverKind.RGS
    needs_rows = False

    def step(self, state: SolverState, draws: tuple[int, ...]) -> tuple:
        """Returns (scale, x_j . residual before the step)."""
        (j,) = draws
        xj = self._cols_arr[j]
        dot = float(xj @ state.residual)
        scale = dot / self._col_nsq_vals[j]
        state.beta[j] += scale
        state.residual -= scale * xj
        state.iteration += 1
        self.sync_residual(state)
        return scale, dot

    def draw_order(self) -> list[WeightedIndex]:
        return [self._col_dist]

    def step_batch(self, state: SolverState, draws: list[np.ndarray]) -> None:
        (j,) = draws
        xj = self._cols_arr.take(j, axis=0)
        scale = np.vecdot(xj, state.residual) / self._col_nsq.take(j)
        state.beta[np.arange(j.size), j] += scale
        state.residual -= scale[:, None] * xj
        state.iteration += 1
        self.sync_residual(state)


class ExtendedKaczmarz(_Solver):
    kind = SolverKind.REK
    needs_rows = True
    needs_cols = True

    def init_state(self, trials: int | None = None) -> SolverState:
        state = super().init_state(trials)
        state.z = state.residual.copy()  # z starts at y
        return state

    def draw_order(self) -> list[WeightedIndex]:
        return [self._row_dist, self._col_dist]

    def step_batch(self, state: SolverState, draws: list[np.ndarray]) -> None:
        i, j = draws
        xj = self._cols_arr.take(j, axis=0)
        z = state.z
        z -= (np.vecdot(xj, z) / self._col_nsq.take(j))[:, None] * xj
        xi = self._rows_arr.take(i, axis=0)
        zi = z[np.arange(i.size), i]
        scale = (self._y.take(i) - zi - np.vecdot(xi, state.beta)) / self._row_nsq.take(i)
        state.beta += scale[:, None] * xi
        state.iteration += 1

    def step(self, state: SolverState, draws: tuple[int, ...]) -> tuple:
        """Returns (scale, x_i . beta before the step)."""
        i, j = draws
        xj = self._cols_arr[j]
        z = state.z
        z -= (float(xj @ z) / self._col_nsq_vals[j]) * xj
        xi = self._rows_arr[i]
        dot = float(xi @ state.beta)
        scale = (self._y_vals[i] - float(z[i]) - dot) / self._row_nsq_vals[i]
        state.beta += scale * xi
        state.iteration += 1
        return scale, dot


class ExtendedGaussSeidel(_MaintainedResidual):
    kind = SolverKind.REGS

    def init_state(self, trials: int | None = None) -> SolverState:
        state = super().init_state(trials)
        state.z = np.zeros_like(state.beta)
        return state

    def draw_order(self) -> list[WeightedIndex]:
        return [self._col_dist, self._row_dist]

    def step_batch(self, state: SolverState, draws: list[np.ndarray]) -> None:
        j, i = draws
        rows = np.arange(j.size)
        xj = self._cols_arr.take(j, axis=0)
        scale = np.vecdot(xj, state.residual) / self._col_nsq.take(j)
        state.beta[rows, j] += scale
        state.residual -= scale[:, None] * xj
        state.z[rows, j] += scale
        xi = self._rows_arr.take(i, axis=0)
        state.z -= (np.vecdot(xi, state.z) / self._row_nsq.take(i))[:, None] * xi
        state.iteration += 1
        self.sync_residual(state)

    def estimate(self, state: SolverState) -> np.ndarray:
        return state.beta - state.z

    def step(self, state: SolverState, draws: tuple[int, ...]) -> tuple:
        """Returns (scale, x_j . residual, x_i . z, z's projection coefficient)."""
        j, i = draws
        xj = self._cols_arr[j]
        dot = float(xj @ state.residual)
        scale = dot / self._col_nsq_vals[j]
        state.beta[j] += scale
        state.residual -= scale * xj
        z = state.z
        z[j] += scale
        xi = self._rows_arr[i]
        zdot = float(xi @ z)
        coef = zdot / self._row_nsq_vals[i]
        z -= coef * xi
        state.iteration += 1
        self.sync_residual(state)
        return scale, dot, zdot, coef


_SOLVER_CLASSES = {
    SolverKind.RK: RandomizedKaczmarz,
    SolverKind.RGS: RandomizedGaussSeidel,
    SolverKind.REK: ExtendedKaczmarz,
    SolverKind.REGS: ExtendedGaussSeidel,
}


def make_solver(kind: SolverKind, system: LinearSystem) -> _Solver:
    return _SOLVER_CLASSES[kind](system)


def _pairs_help() -> str:
    lines = []
    for kind in SolverKind:
        regimes = [r.value for r in Regime if (kind, r) in CONVERGENT_PAIRS]
        lines.append(f"{kind.name}: {', '.join(regimes)}")
    return "; ".join(lines)


def _require_reference(system: LinearSystem) -> np.ndarray:
    """The system's reference solution, which error-to-reference stopping needs."""
    if system.reference is None:
        raise ConfigurationError(
            "stop metric error-to-reference requires a reference solution; "
            f"convergent solver/regime pairs: {_pairs_help()}"
        )
    return system.reference


def _draw_blocks(dists: list[WeightedIndex], rngs: list[Prng], steps: int):
    """Yield the index draws of `steps` steps of len(rngs) trials, block by block.

    Each block is a list with one (block steps, trials) index array per
    distribution of ``dists``, drawn in one ``batch_uniforms`` call. Trial k
    takes one uniform per draw from rngs[k], step after step and within a
    step in ``dists`` order, so its indices do not depend on the block size
    or on the other trials. The first block is 64 steps, and each next one
    doubles, up to DRAW_BUDGET uniforms across the trials: a long run pays
    the call's fixed cost over many draws, and one that stops early has
    drawn at most about twice its steps. ``rngs`` is read again for each
    block, so a caller that removes a stopped trial's generator from it
    between blocks stops that trial's draws. A consumer that stops early
    leaves the generators advanced past the last block drawn.
    """
    block = 64
    while steps:
        block = min(block, steps, max(1, DRAW_BUDGET // (len(dists) * len(rngs))))
        u = batch_uniforms(rngs, block * len(dists)).reshape(len(rngs), block, len(dists))
        yield [d.sample_block(np.ascontiguousarray(u[:, :, q].T)) for q, d in enumerate(dists)]
        steps -= block
        block *= 2


# ---------------------------------------------------------------------------
# The running stop metric
#
# Notation: u = 2**-53 is the unit roundoff; v is the vector whose squared
# norm the stop metric is (beta - ref, beta - z - ref, or the residual) and
# V = ||v||^2 in exact arithmetic on the solver's current float state. The
# bounds use the standard model fl(a op b) = (a op b)(1 + d) with |d| <= u,
# and bound a dot product of length k, in any summation order, within
# k u |x|.|y| to first order.

#: twice the unit roundoff. Every first-order rounding bound below is
#: evaluated with it in place of u, which leaves room for the second-order
#: terms and for the rounding of the bound's own evaluation.
_EPS = 2.0**-52
#: absolute slack added to the tally each step and at each resync: it covers
#: gradual underflow (at most 2**-1075 per operation) on systems with
#: entries within _SCALE_LIMIT, while the certified metric is below _HUGE
_PAD = 2.0**-900
_SCALE_LIMIT = 2.0**50
_HUGE = 2.0**100
_SHRINK, _GROW = 1.0 - 8 * _EPS, 1.0 + 8 * _EPS


class _RunningMetric:
    """A squared stop metric carried from step to step, with a bound on its own drift.

    ``value`` is the running metric R and ``tally`` a bound T on |R - V|.
    ``resync`` sets R to an exact value and T to that computation's
    rounding bound. ``advance`` follows one ``step``: it moves R by the
    step's exact-arithmetic change of the metric,

        ||v + t a||^2 = ||v||^2 + 2 t (a.v) + t^2 ||a||^2,

    from the scale and dot products the step returns, in O(1) or O(n); and
    it adds to T the rounding of that update, of a.v and ||a||^2, and of the
    step's own vector update.

    The exact check computes ||d||^2 for a float vector d within
    ``a ||v|| + b`` of v, by a dot product of length k, so it returns at
    least (1 - k u)(||v|| - a ||v|| - b)^2. ``advance`` returns whether that
    lower bound, taken at ||v||^2 >= R - T, is >= tol: then the exact check
    cannot stop this step, and ``run`` skips it. It also asks T <= R - T,
    which fails only near the float floor.
    """

    a = _EPS
    b = 0.0

    def __init__(self, solver: _Solver, ref: np.ndarray | None, tol: float, k: int):
        self.k = k
        self.n, self.m = solver.system.n, solver.system.m
        keep = 1.0 - (k + 8) * _EPS
        # with T <= R - T, ||v|| <= sqrt(3 (R - T)): the a-term folds into one factor
        self.shrink = _SHRINK - 2.0 * self.a * _GROW
        self.root_tol = math.sqrt(tol / keep) * _GROW
        self.value = self.tally = 0.0

    def resync(self, state: SolverState, exact: float) -> None:
        """Restart from an exact value; T bounds that computation's own rounding."""
        bound = 2.0 * math.sqrt(exact + self.b * self.b)  # >= ||v|| and ||d||
        self.value = exact
        self.tally = self.k * _EPS * exact + 2.0 * (self.a * bound + self.b) * bound + _PAD

    def _settle(self, value: float, tally: float) -> bool:
        """Store R and T; whether they certify that the exact metric is >= tol."""
        self.value, self.tally = value, tally
        lo = value - tally
        return (tally <= lo <= _HUGE
                and math.sqrt(lo) * self.shrink - self.b * _GROW >= self.root_tol)

    def advance(self, state: SolverState, draws: tuple[int, ...], out: tuple) -> bool:
        """Follow one step of ``step``, whose return value is ``out``."""
        raise NotImplementedError


class _RowError(_RunningMetric):
    """RK and REK on ||beta - ref||^2: beta moves by s x_i.

    a.v = x_i.beta - (X ref)_i, from the step's own x_i.beta and X ref
    taken once; ||a||^2 is the row's squared norm. fl(beta - ref) is
    within u ||v|| of v.
    """

    def __init__(self, solver, ref, tol):
        super().__init__(solver, ref, tol, solver.system.n)
        self.row_nsq = solver._row_nsq_vals
        self.row_norm = np.sqrt(solver._row_nsq).tolist()
        self.x_ref = (solver._rows_arr @ ref).tolist()
        self.ref_norm = math.sqrt(float(ref @ ref)) * (1.0 + self.n * _EPS)

    def advance(self, state, draws, out):
        i = draws[0]
        s, dot = out
        dot -= self.x_ref[i]
        n, ref_norm, value = self.n, self.ref_norm, self.value
        step = abs(s) * self.row_norm[i]  # ||s x_i||
        before = math.sqrt(abs(value) + self.tally)  # >= ||v||
        after = before + step  # >= ||v + s x_i||
        value += s * (2.0 * dot + s * self.row_nsq[i])
        # x_i.beta and (X ref)_i within n u ||x_i|| (||v|| + ||ref||) and n u ||x_i|| ||ref||,
        # ||x_i||^2 within n u of itself, and the update's own rounding
        rounding = (2 * n * step * (before + 2.0 * ref_norm) + (n + 2) * step * step
                    + 6.0 * abs(s * dot) + abs(value))
        # beta + s x_i rounds within u (||s x_i|| + ||beta_new||),
        # with ||beta_new|| <= ||v_new|| + ||ref||
        eta = _EPS * (step + after + ref_norm)
        tally = self.tally + _EPS * rounding + eta * (2.0 * after + eta) + _PAD
        return self._settle(value, tally)


class _ColumnError(_RunningMetric):
    """RGS on ||beta - ref||^2: only beta_j moves, so the change is exact to O(u).

    With the new beta_j = old beta_j + s + e, |e| <= u |beta_j|, and
    d = beta_j - ref_j, the metric moves by 2 (s + e) d - (s + e)^2, taken
    as s (2 d - s).
    """

    def __init__(self, solver, ref, tol):
        super().__init__(solver, ref, tol, solver.system.n)
        self.ref = ref.tolist()

    def advance(self, state, draws, out):
        j = draws[0]
        s = out[0]
        beta_j = float(state.beta[j])
        d = beta_j - self.ref[j]
        value = self.value + s * (2.0 * d - s)
        e = _EPS * abs(beta_j)
        rounding = _EPS * (abs(s) * (4.0 * abs(d) + 2.0 * abs(s)) + abs(value))
        tally = self.tally + rounding + e * (2.0 * (abs(d) + abs(s)) + e) + _PAD
        return self._settle(value, tally)


class _ExtendedColumnError(_RunningMetric):
    """REGS on ||beta - z - ref||^2.

    The coordinate step adds s to beta_j and to z_j, which moves the
    estimate by rounding only. The projection of z then moves it by c x_i,
    with a.v = x_i.beta - x_i.z - (X ref)_i: x_i.z is the step's own, and
    x_i.beta = y_i - r_i for the exact residual r = y - X beta, read off the
    maintained residual within ``drift``, a bound on its distance from r.
    fl(fl(beta - z) - ref) is within u (2 ||v|| + ||ref||) of v.
    ``beta_norm`` and ``res_norm`` bound ||beta|| and the maintained
    ||r||, from the last resync on.
    """

    a = 2 * _EPS

    def __init__(self, solver, ref, tol):
        n = solver.system.n
        self.ref_norm = math.sqrt(float(ref @ ref)) * (1.0 + n * _EPS)
        self.b = _EPS * self.ref_norm
        super().__init__(solver, ref, tol, n)
        self.rows, self.y_arr = solver._rows_arr, solver._y
        self.fro = math.sqrt(solver.system.X.frob_sq * (1.0 + (self.m + n) * _EPS))
        self.y = solver._y_vals
        self.row_nsq = solver._row_nsq_vals
        self.row_norm = np.sqrt(solver._row_nsq).tolist()
        self.col_norm = np.sqrt(solver._col_nsq).tolist()
        self.x_ref = (solver._rows_arr @ ref).tolist()
        self.ref = ref.tolist()
        self.beta_norm = self.res_norm = self.drift = 0.0

    def resync(self, state, exact):
        super().resync(state, exact)
        n, m = self.n, self.m
        beta_norm = self.beta_norm = math.sqrt(float(state.beta @ state.beta)) * (1.0 + n * _EPS)
        res = state.residual
        self.res_norm = math.sqrt(float(res @ res)) * (1.0 + m * _EPS)
        # one matvec: fl(y - X beta) is within u ||r|| + n u ||X||_F ||beta|| of the exact r
        diff = (self.y_arr - self.rows @ state.beta) - res
        gap = math.sqrt(float(diff @ diff)) * (1.0 + m * _EPS)
        self.drift = gap + _EPS * (n * self.fro * beta_norm + self.res_norm + gap)

    def advance(self, state, draws, out):
        j, i = draws
        s, _, zdot, c = out
        n, ref_norm = self.n, self.ref_norm
        beta_j = float(state.beta[j])
        before = math.sqrt(abs(self.value) + self.tally)
        beta_norm = self.beta_norm = (self.beta_norm + abs(s)) * (1.0 + 4 * _EPS)
        # beta_j + s and z_j + s round within u |beta_j| and
        # u |z_j| <= u (|beta_j| + ||v|| + |ref_j|); the maintained r - s x_j rounds within
        # u (||s x_j|| + ||r_new||), and the exact residual moves by x_j times beta_j's rounding
        move = abs(s) * self.col_norm[j]
        res_norm = self.res_norm = (self.res_norm + move) * (1.0 + 4 * _EPS)
        drift = self.drift = (self.drift
                              + _EPS * (move + res_norm + self.col_norm[j] * abs(beta_j)))
        e = _EPS * (2.0 * abs(beta_j) + before + abs(self.ref[j]))
        before += e
        tally = self.tally + e * (2.0 * before + e)
        y_i, r_i = self.y[i], float(state.residual[i])
        dot = ((y_i - r_i) - zdot) - self.x_ref[i]
        step = abs(c) * self.row_norm[i]  # ||c x_i||
        after = before + step
        value = self.value + c * (2.0 * dot + c * self.row_nsq[i])
        # x_i.z and (X ref)_i within n u ||x_i|| (||z|| + ||ref||),
        # with ||z|| <= ||beta|| + ||v|| + ||ref||
        dot_err = (drift + _EPS * (n * self.row_norm[i] * (beta_norm + before + 2.0 * ref_norm)
                                   + 2.0 * (abs(y_i) + abs(r_i)) + abs(zdot) + abs(dot)))
        rounding = (2.0 * abs(c) * dot_err + _EPS * ((n + 2) * step * step
                                                     + 4.0 * abs(c * dot) + abs(value)))
        # z - c x_i rounds within u (||c x_i|| + ||z_new||)
        eta = _EPS * (step + beta_norm + after + ref_norm)
        return self._settle(value, tally + rounding + eta * (2.0 * after + eta) + _PAD)


class _RowResidual(_RunningMetric):
    """RK and REK on ||y - X beta||^2: the residual moves by -s X x_i.

    With W = X (X^T X), p = X X^T y and h_i = ||X x_i||^2 = W_i.x_i taken
    once, the new residual r' satisfies (X x_i).r' = p_i - W_i.beta', one
    O(n) dot on the new beta', and ||r'||^2 = ||r||^2 - 2 s (X x_i).r' -
    s^2 h_i. fl(y - X beta) is within u ||r|| + n u ||X||_F ||beta|| of r,
    so b follows ``beta_norm``, a bound on ||beta|| from the last resync on.
    """

    def __init__(self, solver, ref, tol):
        super().__init__(solver, ref, tol, solver.system.m)
        X, y = solver._rows_arr, solver._y
        m, n = self.m, self.n
        fro_sq = solver.system.X.frob_sq * (1.0 + (m + n) * _EPS)
        self.fro = math.sqrt(fro_sq)  # >= ||X||_2
        # einsum (optimize=False) calls no BLAS: a multi-threaded BLAS call here would
        # wake a thread pool that slows every later small numpy call in the process
        self.W = np.einsum("ik,kj->ij", X, np.einsum("ki,kj->ij", X, X))
        Xty = np.einsum("ki,k->i", X, y)
        p = np.einsum("ij,j->i", X, Xty)
        h = np.einsum("ij,ij->i", self.W, X)
        row_norm = np.sqrt(solver._row_nsq)
        w_norm = np.sqrt(np.einsum("ij,ij->i", self.W, self.W))
        # W_i within (m + n) u ||x_i|| ||X||_F^2 and h_i within n u ||W_i|| ||x_i|| more;
        # p_i within n u ||x_i|| ||X^T y|| + m u ||x_i|| ||X||_F ||y||
        w_err = (m + n) * _EPS * fro_sq * row_norm
        p_err = _EPS * row_norm * (n * math.sqrt(float(Xty @ Xty))
                                   + m * self.fro * math.sqrt(float(y @ y)))
        # (X x_i).r' = p_i - W_i.beta' within p_err_i + (n u ||W_i|| + w_err_i) ||beta'||
        self.w_coef = (n * _EPS * w_norm + w_err).tolist()
        self.p = p.tolist()
        self.p_err = p_err.tolist()
        self.h = h.tolist()
        self.h_err = ((n * _EPS * w_norm + w_err) * row_norm).tolist()
        # |s| ||X x_i|| bounds the residual's move, and ||X eta|| <= ||X||_F ||eta||
        self.h_norm = np.sqrt(np.abs(h)).tolist()
        self.row_norm = row_norm.tolist()
        self.beta_norm = 0.0

    def resync(self, state, exact):
        self.beta_norm = math.sqrt(float(state.beta @ state.beta)) * (1.0 + self.n * _EPS)
        self.b = self.n * _EPS * self.fro * self.beta_norm
        super().resync(state, exact)

    def advance(self, state, draws, out):
        i = draws[0]
        s = out[0]
        wb = float(self.W[i] @ state.beta)
        pi, h, value, fro = self.p[i], self.h[i], self.value, self.fro
        dot = pi - wb
        step = abs(s) * self.row_norm[i]  # ||s x_i||, beta's move
        move = abs(s) * self.h_norm[i]  # ||s X x_i||, the residual's move
        beta_norm = self.beta_norm = (self.beta_norm + step) * (1.0 + 4 * _EPS)
        before = math.sqrt(abs(value) + self.tally)
        after = before + move
        value -= s * (2.0 * dot + s * h)
        # beta + s x_i rounds within eta: r moves by X eta besides -s X x_i
        eta = fro * _EPS * (step + beta_norm)
        # dot is (X x_i).(r' + X eta) within its rounding and ||s X x_i|| ||X eta||
        dot_err = self.p_err[i] + self.w_coef[i] * beta_norm + _EPS * (abs(pi) + abs(wb))
        rounding = (2.0 * (abs(s) * dot_err + move * eta) + s * s * self.h_err[i]
                    + _EPS * (4.0 * abs(s * dot) + 2.0 * s * s * h + abs(value)))
        self.b = self.n * _EPS * fro * beta_norm
        return self._settle(value, self.tally + rounding + eta * (2.0 * after + eta) + _PAD)


class _ColumnResidual(_RunningMetric):
    """RGS and REGS on the maintained ||r||^2: r moves by -s x_j, with x_j.r from the step.

    The exact check reads the maintained r itself, so a = b = 0. A refresh
    replaces r, so ``run`` resyncs at every RESIDUAL_REFRESH_EVERY-th step.
    """

    a = 0.0

    def __init__(self, solver, ref, tol):
        super().__init__(solver, ref, tol, solver.system.m)
        self.col_nsq = solver._col_nsq_vals
        self.col_norm = np.sqrt(solver._col_nsq).tolist()

    def advance(self, state, draws, out):
        j = draws[0]
        s, dot = out[0], out[1]
        m, value = self.m, self.value
        step = abs(s) * self.col_norm[j]  # ||s x_j||
        before = math.sqrt(abs(value) + self.tally)
        after = before + step
        value -= s * (2.0 * dot - s * self.col_nsq[j])
        # x_j.r within m u ||x_j|| ||r||, ||x_j||^2 within m u of itself, the update's rounding
        rounding = 2 * m * step * before + (m + 2) * step * step + 4.0 * abs(s * dot) + abs(value)
        # r - s x_j rounds within u (||s x_j|| + ||r_new||)
        eta = _EPS * (step + after)
        return self._settle(value, self.tally + _EPS * rounding + eta * (2.0 * after + eta) + _PAD)


_RUNNING_METRICS = {
    (SolverKind.RK, StopMetric.ERROR_TO_REFERENCE): _RowError,
    (SolverKind.REK, StopMetric.ERROR_TO_REFERENCE): _RowError,
    (SolverKind.RGS, StopMetric.ERROR_TO_REFERENCE): _ColumnError,
    (SolverKind.REGS, StopMetric.ERROR_TO_REFERENCE): _ExtendedColumnError,
    (SolverKind.RK, StopMetric.RESIDUAL_NORM): _RowResidual,
    (SolverKind.REK, StopMetric.RESIDUAL_NORM): _RowResidual,
    (SolverKind.RGS, StopMetric.RESIDUAL_NORM): _ColumnResidual,
    (SolverKind.REGS, StopMetric.RESIDUAL_NORM): _ColumnResidual,
}


def _running_metric(solver: _Solver, metric: StopMetric, ref, tol: float) -> _RunningMetric | None:
    """The running metric of one run, or None where the bounds' scale assumptions fail.

    They assume no overflow, and no underflow beyond _PAD: entries of X, y
    and ref at most _SCALE_LIMIT in magnitude, and every positive row and
    column norm, which a step scale divides by, at least 1/_SCALE_LIMIT.
    """
    X = solver.system.X
    vectors = [X.data, solver.system.y] + ([] if ref is None else [ref])
    if max(float(np.max(np.abs(v))) for v in vectors) > _SCALE_LIMIT:
        return None
    for nsq in (X.row_norms_sq, X.col_norms_sq):
        if float(np.min(nsq[nsq > 0], initial=np.inf)) < _SCALE_LIMIT**-2:
            return None
    return _RUNNING_METRICS[solver.kind, metric](solver, ref, tol)


def run(
    system: LinearSystem,
    kind: SolverKind,
    config: SolveConfig,
    rng: Prng,
    trial: int = 0,
    *,
    residuals: bool = True,
) -> ConvergenceTrace:
    """Iterate one solver until the stop metric falls below tol or max_iter.

    Records (iteration, error_sq, residual_sq) at iteration 0, every
    record_every iterations, and at termination, with the wall clock from
    the start at each record. error_sq measures the solver's reported
    estimate (beta, or beta - z for REGS) against the system reference; it
    is NaN when no reference is available under residual-norm stopping.
    With ``residuals=False`` the residual is computed only as a stop
    metric, so under error stopping residual_sq is NaN and RK/REK skip the
    full matvec that each recorded residual costs them.

    The exact stop metric decides every stop, but it is computed only at
    iteration 0, at every record, at every RESIDUAL_REFRESH_EVERY-th step,
    and at every step whose running metric (``_RunningMetric``) cannot
    certify that the exact value is still >= tol. The certificate is the
    running value less a tally of its rounding since the last exact value
    and a bound on the rounding of the exact computation it replaces; so
    ``run`` stops at the iteration, and writes the records, of a run that
    computed the exact metric after every step. Once a certificate fails,
    the exact metric is computed at every step, with no running update,
    until the next record or refresh resyncs the running value; near the
    float floor this is every step from then on.
    """
    on_error = config.stop_metric is StopMetric.ERROR_TO_REFERENCE
    ref = _require_reference(system) if on_error else system.reference
    solver = make_solver(kind, system)
    state = solver.init_state()
    trace = ConvergenceTrace(kind, trial, False, 0)
    start = time.perf_counter()

    def error_sq() -> float:
        if ref is None:
            return float("nan")
        diff = solver.estimate(state) - ref
        return float(diff @ diff)

    def residual_sq() -> float:
        solver.sync_residual(state)
        r = state.residual
        return float(r @ r)

    def record(it: int, err: float, res: float):
        trace.records.append((it, err, res))
        trace.seconds.append(time.perf_counter() - start)

    every, last = config.record_every, config.max_iter

    def next_exact(t: int) -> int:
        """The first step after t that records or refreshes, where the exact metric is due."""
        return min(t - t % every + every, t - t % RESIDUAL_REFRESH_EVERY + RESIDUAL_REFRESH_EVERY,
                   last)

    err = error_sq()
    res = residual_sq() if residuals or not on_error else float("nan")
    record(0, err, res)
    metric = err if on_error else res
    if metric < config.tol:
        trace.converged = True
        return trace

    running = _running_metric(solver, config.stop_metric, ref, config.tol)
    due = next_exact(0)
    tracking = running is not None and due > 1  # a resync pays off only before a skippable step
    if tracking:
        running.resync(state, metric)
    blocks = _draw_blocks(solver.draw_order(), [rng], config.max_iter)
    draws = chain.from_iterable(zip(*(b[:, 0].tolist() for b in block)) for block in blocks)
    for t, step_draws in enumerate(draws, 1):
        out = solver.step(state, step_draws)
        if tracking and t != due:
            if running.advance(state, step_draws, out):
                continue
            tracking = False  # exact at every step until the next record or refresh
        if on_error:
            err = error_sq()
            metric = err
        else:
            res = residual_sq()
            metric = res
        hit = metric < config.tol
        if hit or t % every == 0 or t == last:
            if on_error:
                if residuals:
                    res = residual_sq()
            elif ref is not None:
                err = error_sq()
            record(t, err, res)
        if hit:
            trace.converged = True
            break
        if t == due:
            due = next_exact(t)
            tracking = running is not None and due > t + 1
            if tracking:
                running.resync(state, metric)

    trace.final_iteration = state.iteration
    return trace


@dataclass
class BatchTrace:
    """Error history of trials run in lockstep, on the grid 0, stride, 2*stride, ...

    ``errors[k, g]`` is trial k's squared error at iteration g * record_every,
    or its terminal error once it has stopped. ``mean_cum_seconds[g]`` is the
    batch's wall clock from the start to that grid point, divided by the
    number of trials.
    """

    errors: np.ndarray
    mean_cum_seconds: np.ndarray
    final_iterations: np.ndarray
    converged: np.ndarray


def run_batch(
    system: LinearSystem,
    kind: SolverKind,
    config: SolveConfig,
    rngs: list[Prng],
) -> BatchTrace:
    """Run len(rngs) trials of one solver together, stopping on error to reference.

    Trial k makes the same draws from rngs[k] and computes the same updates
    as ``run`` would, bit for bit, so its errors equal ``run``'s and it
    stops at the same iteration. Each trial checks its own error at every
    step and leaves the batch when it falls below tol. One
    ``_draw_blocks`` stream draws every block for the trials still running,
    so a trial that stops leaves its generator advanced past its last draw
    and is drawn for no more.
    """
    if config.stop_metric is not StopMetric.ERROR_TO_REFERENCE:
        raise ConfigurationError("lockstep trials stop on error to reference only")
    ref = _require_reference(system)
    solver = make_solver(kind, system)
    dists = solver.draw_order()
    trials = len(rngs)
    state = solver.init_state(trials)
    start = time.perf_counter()

    active = np.arange(trials)  # trial id of each batch row
    final = np.full(trials, config.max_iter)
    converged = np.zeros(trials, dtype=bool)
    latest = np.empty(trials)  # each trial's latest error, terminal once it stopped
    columns: list[np.ndarray] = []
    seconds: list[float] = []
    live = list(rngs)  # the generators of the trials still running
    draws = _draw_blocks(dists, live, config.max_iter)
    blocks: list[np.ndarray] = []
    used = 0

    def error_sq() -> np.ndarray:
        diff = solver.estimate(state) - ref
        return np.vecdot(diff, diff)

    err = error_sq()
    t = 0
    while True:
        latest[active] = err
        if t % config.record_every == 0:
            columns.append(latest.copy())
            seconds.append(time.perf_counter() - start)
        hit = err < config.tol
        if hit.any():
            final[active[hit]] = t
            converged[active[hit]] = True
            keep = ~hit
            active = active[keep]
            state.beta = state.beta[keep]
            state.residual = state.residual[keep]
            if state.z is not None:
                state.z = state.z[keep]
            blocks = [b[:, keep] for b in blocks]
            if not active.size:
                break
            live[:] = [rngs[k] for k in active]
        if t == config.max_iter:
            break
        if not blocks or used == blocks[0].shape[0]:
            blocks = next(draws)
            used = 0
        solver.step_batch(state, [b[used] for b in blocks])
        used += 1
        t += 1
        err = error_sq()

    return BatchTrace(np.stack(columns, axis=1), np.array(seconds) / trials, final, converged)
