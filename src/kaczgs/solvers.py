"""The four randomized iterative kernels and two run drivers.

Each solver advances a mutable :class:`SolverState` by randomized updates.
Two base kernels:

* RK   — project the iterate onto the hyperplane x_i . beta = b_i of one
         sampled row i, with right-hand side b = y.
* RGS  — exactly minimize the least-squares objective along one sampled
         coordinate (randomized coordinate descent). Its kernels return each
         step's coordinate increment.

Two extensions, each its base kernel plus a sequence z_t (Zouzias & Freris):

* REK  — an RK whose step on row i solves against b_i = y_i - z_i, where
         z_t, started at y, is RGS's residual sequence under column draws:
         it strips the component of y orthogonal to the range of X,
         unlocking convergence to the least-squares solution. The z pass
         never reads beta, so a span runs it first, then RK's row pass.
* REGS — an RGS whose z_t, started at 0, takes each step's coordinate
         increment and then RK's projection onto the drawn row's x_i . z = 0,
         so it tracks the component of the iterate orthogonal to the row
         span; the reported estimate is beta_t - z_t, which converges to the
         least-norm solution. Given REK's draws with each step's row and
         column swapped, it is REK's beta_t up to rounding: both take the
         same row step toward RGS's iterate, so the two are one process.

One combined update (row draw + column draw for the extended methods)
counts as one iteration.

Kaczmarz acts on rows and never reads y - X beta; Gauss-Seidel is
coordinate descent on ||y - X beta||^2 / 2, whose update reads it. So only
RGS and REGS states carry a residual, and ``residual_of`` is the one
routine that computes y - X beta, for a vector or any stack of rows.

A solver's ``draw_order()`` is the one statement of what a step draws (RK:
row; RGS: column; REK: row then column; REGS: column then row), and
``_draw_blocks`` is the one way the draws are made: one uniform per draw
from the trial's own generator, mapped to an index by
``WeightedIndex.sample_block``. It draws a block of steps for all trials
in one ``batch_uniforms`` call: as many steps as DRAW_BUDGET uniforms
hold, or the steps left. Each solver has two span kernels, which only
apply the indices they are given: ``steps``, a span of steps of one trial
in one loop, and ``steps_batch``, a span of steps of many trials in one
loop.

``run`` (``kaczgs solve``) drives one trial through spans of ``steps``
and stops on the exact stop metric after every step. A span is at most
CHECK_CHUNK steps and ends at every record, refresh, max_iter and
draw-block end. Each of its steps writes the one vector its metric reads
into the next row of an ``_ExactChecks`` buffer, with ``out=`` on the
update it already makes, one ``np.vecdot`` takes the metrics of the
span, and a stop inside it is replayed from the state saved before it.
For RK and REK under residual stopping, whose exact check is a full
matvec, on a system that stores its least-squares residual,
``_certified_radius_sq`` gives a radius on ||beta|| inside which the
residual cannot fall below tol, however it rounds; ``run`` skips the
checks of a span's steps before the first whose beta row lies outside it.

``run_batch`` (every ``kaczgs compare`` trial) drives trials of one
solver together, on a state whose arrays hold one row per trial: (T, n)
iterates, a (T, m) residual for RGS and REGS, and a (T, m) z for REK or
a (T, n) z for REGS. Its spans end where ``run``'s do, except at
records. A span of LOCKSTEP_MIN_TRIALS or more running trials is one
``steps_batch`` call (lockstep), of fewer one ``steps`` call per trial
row; every step writes each trial's estimate into an ``_ExactChecks``
row, one ``flush`` takes the errors of the span, and the grid points
inside it are filled from them.
``steps_batch`` takes the span's (steps, T) scalar tables and the flat
indices of its one-entry updates once, and gathers each step's rows or
columns of X into one reused (T, width) buffer. Each trial gets the same
draws and the same updates and residual refreshes as under ``run``,
computed bit for bit the same way: each row's dot product is one
``np.vecdot`` row, the same BLAS dot that ``x.dot(y)`` in ``steps``
calls, and ``residual_of`` refreshes both shapes. So a batched trial's
errors equal those of ``run``, and so of ``kaczgs solve``, of the same
trial exactly.
"""
from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat

import numpy as np

from .errors import ConfigurationError, NumericalError
from .linalg import LinearSystem, Regime
from .sampling import Prng, WeightedIndex, batch_uniforms, col_distribution, row_distribution

#: maintained residuals are recomputed from scratch this often to cap drift, and
#: ``run`` computes the exact stop metric at least this often
RESIDUAL_REFRESH_EVERY = 1000

#: the most uniforms drawn in one call for a block of steps, across its trials
DRAW_BUDGET = 4096

#: the most steps whose exact stop metrics are taken in one ``np.vecdot``
CHECK_CHUNK = 64

#: a span of ``run_batch`` with this many running trials or more is one ``steps_batch``
#: call, else one ``steps`` call per trial. Lockstep over one-by-one process time of the
#: full compare, median of 12 alternating in-process pairs on seed-5 systems of the
#: benchmark's oc, oi and tomo shapes, 1 BLAS thread: at 2 trials 1.08, 1.12 and 1.12 (one
#: by one won 11, 8 and 9 of 12); at 3 trials 0.91, 0.91 and 0.90; at 4 0.81, 0.68 and
#: 0.73; at 8 0.57, 0.58 and 0.52; at 16 0.41, 0.44 and 0.42. So it starts at 3.
LOCKSTEP_MIN_TRIALS = 3


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
    per trial. Only RGS and REGS carry ``residual``, y - X beta: their steps
    update it and refresh it in place every RESIDUAL_REFRESH_EVERY steps, so
    it is current after every step. RK and REK carry None.
    """

    beta: np.ndarray
    residual: np.ndarray | None = None
    iteration: int = 0
    z: np.ndarray | None = None

    def copy(self, rows=...) -> SolverState:
        """A copy of the state; for a batch, of the given trial rows only."""
        def take(a):
            return None if a is None else a[rows].copy()
        return SolverState(take(self.beta), take(self.residual), self.iteration, take(self.z))

    def trial(self, k: int) -> SolverState:
        """Row k of a batch state, as a vector state whose arrays are views into it."""
        def row(a):
            return None if a is None else a[k]
        return SolverState(row(self.beta), row(self.residual), self.iteration, row(self.z))


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


def _flat(a: np.ndarray) -> np.ndarray:
    """A 1-D view of a C-contiguous array, so that writes through it reach a."""
    assert a.flags.c_contiguous  # init_state and SolverState.copy make contiguous arrays
    return a.reshape(-1)


def _flat_index(idx: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The flat positions in a of each trial's entry: a[t, idx[q, t]] for a (trials, width) a."""
    return idx + np.arange(0, a.size, a.shape[1])


class _Solver:
    """Shared setup: sampling distributions are built once per system."""

    kind: SolverKind

    def __init__(self, system: LinearSystem):
        self.system = system
        X = system.X
        self._rows_arr = X.data
        self._y = system.y
        self._row_nsq = X.row_norms_sq
        self._col_nsq = X.col_norms_sq
        # for ``steps``, Python floats and lists of row and column views: the same
        # IEEE arithmetic and the same BLAS dots (``a.dot(b)`` is ``a @ b``), less dispatch
        self._y_vals = self._y.tolist()
        self._row_nsq_vals = self._row_nsq.tolist()
        self._col_nsq_vals = self._col_nsq.tolist()
        self._draws: list[WeightedIndex] = []

    def _draw_rows(self) -> None:
        """Draw a row in each step, after the draws added before; keep row views for ``steps``."""
        self._draws.append(row_distribution(self.system.X))
        self._row_views = list(self._rows_arr)

    def _draw_cols(self) -> None:
        """Draw a column in each step, after the draws added before; copy the columns."""
        self._draws.append(col_distribution(self.system.X))
        # contiguous copy of the columns; column dots dominate RGS-family cost
        self._cols_arr = np.ascontiguousarray(self._rows_arr.T)
        self._col_views = list(self._cols_arr)

    def init_state(self, trials: int | None = None) -> SolverState:
        """Zero iterates: vectors, or one row per trial."""
        return SolverState(np.zeros((() if trials is None else (trials,)) + (self.system.n,)))

    def estimate(self, state: SolverState) -> np.ndarray:
        return state.beta

    def residual_of(self, beta: np.ndarray) -> np.ndarray:
        """A new y - X beta for a vector or any stack of rows, bit for bit ``y - X @ row``."""
        r = np.matmul(self._rows_arr, beta[..., None])[..., 0]
        return np.subtract(self._y, r, out=r)

    def residual(self, state: SolverState) -> np.ndarray:
        """The state's y - X beta: computed here; RGS and REGS read the one they maintain."""
        return self.residual_of(state.beta)

    def draw_order(self) -> list[WeightedIndex]:
        """The distributions one step draws from, in the order it draws."""
        return self._draws

    def steps(self, state: SolverState, draws: list[list[int]], rows=(),
              on_error: bool = False):
        """Advance a span of steps; draws[k][q] is step q's index for entry k of draw_order().

        With ``rows``, one buffer row per step, step q writes into rows[q]
        the vector its stop metric reads: beta for RK and REK; for RGS and
        REGS the estimate under error stopping (``on_error``), else the
        maintained residual. The state's arrays are updated from the last
        row at the end, so none of them shares memory with a row. Without
        rows the state is updated in place. A span may end on a
        RESIDUAL_REFRESH_EVERY step but not pass one.
        """
        raise NotImplementedError

    # -- lockstep batches: one row per trial, driven by run_batch ----------

    def steps_batch(self, state: SolverState, draws: list[np.ndarray], rows):
        """Advance every trial row through a span of steps, each trial by its own indices.

        draws[k][q, t] is trial t's index at step q for entry k of
        draw_order(). Step q writes every trial's estimate into rows[q], a
        (trials, n) buffer row that shares no memory with the state. The
        index tables are taken once a span, and each step gathers its rows or
        columns of X into one reused (trials, width) buffer. A span may end
        on a RESIDUAL_REFRESH_EVERY step but not pass one.
        """
        raise NotImplementedError


class RandomizedKaczmarz(_Solver):
    kind = SolverKind.RK

    def __init__(self, system: LinearSystem):
        super().__init__(system)
        self._draw_rows()

    def _rhs(self, state: SolverState, draws: list[list[int]]):
        """Each step's b_i, as an iterable of floats."""
        return map(self._y_vals.__getitem__, draws[0])

    def _rhs_batch(self, state: SolverState, draws: list[np.ndarray]) -> np.ndarray:
        """Each step's b_i of each trial, a (steps, trials) table."""
        return self._y.take(draws[0])

    def steps(self, state, draws, rows=(), on_error=False):
        X, nsq = self._row_views, self._row_nsq_vals
        add = np.add
        beta = state.beta
        for i, b, out in zip(draws[0], self._rhs(state, draws), rows or repeat(beta)):
            xi = X[i]
            scale = (b - float(xi.dot(beta))) / nsq[i]
            add(beta, scale * xi, out=out)
            beta = out
        if beta is not state.beta:
            np.copyto(state.beta, beta)
        state.iteration += len(draws[0])

    def steps_batch(self, state, draws, rows):
        i = draws[0]
        take, vecdot, add, multiply = self._rows_arr.take, np.vecdot, np.add, np.multiply
        beta = state.beta
        xi = np.empty_like(beta)
        for iq, bq, nq, out in zip(i, self._rhs_batch(state, draws), self._row_nsq.take(i), rows):
            take(iq, axis=0, out=xi, mode="clip")  # "clip" writes to xi without a buffer
            scale = (bq - vecdot(xi, beta)) / nq
            add(beta, multiply(xi, scale[:, None], out=xi), out=out)
            beta = out
        np.copyto(state.beta, beta)
        state.iteration += len(i)


class RandomizedGaussSeidel(_Solver):
    kind = SolverKind.RGS

    def __init__(self, system: LinearSystem):
        super().__init__(system)
        self._draw_cols()

    def init_state(self, trials: int | None = None) -> SolverState:
        state = super().init_state(trials)
        state.residual = np.tile(self._y, state.beta.shape[:-1] + (1,))  # y - X beta at beta = 0
        return state

    def residual(self, state: SolverState) -> np.ndarray:
        return state.residual

    def _end_span(self, state: SolverState, k: int, r: np.ndarray) -> None:
        """Count a span of k steps whose residual ended in r, a buffer row or the state's own."""
        state.iteration += k
        if state.iteration % RESIDUAL_REFRESH_EVERY == 0:
            r[...] = self.residual_of(state.beta)
        if r is not state.residual:
            np.copyto(state.residual, r)

    def steps(self, state, draws, rows=(), on_error=False) -> list[float]:
        cols, nsq = self._col_views, self._col_nsq_vals
        subtract, copyto = np.subtract, np.copyto
        beta, r = state.beta, state.residual
        to_r = rows if rows and not on_error else repeat(r)
        to_est = rows if rows and on_error else repeat(None)
        scales = []
        for j, out, est in zip(draws[0], to_r, to_est):
            xj = cols[j]
            scale = float(xj.dot(r)) / nsq[j]
            beta[j] = beta.item(j) + scale  # the IEEE add of ``+=``, on Python floats
            subtract(r, scale * xj, out=out)
            r = out
            if est is not None:
                copyto(est, beta)
            scales.append(scale)
        self._end_span(state, len(draws[0]), r)
        return scales

    def steps_batch(self, state, draws, rows) -> np.ndarray:
        j = draws[0]
        take, vecdot, multiply, copyto = self._cols_arr.take, np.vecdot, np.multiply, np.copyto
        beta, r = state.beta, state.residual
        flat_beta = _flat(beta)
        xj = np.empty_like(r)
        scales = np.empty(j.shape)
        for jq, fq, nq, scale, out in zip(j, _flat_index(j, beta), self._col_nsq.take(j), scales,
                                          rows):
            take(jq, axis=0, out=xj, mode="clip")
            vecdot(xj, r, out=scale)
            scale /= nq
            flat_beta[fq] += scale
            r -= multiply(xj, scale[:, None], out=xj)
            copyto(out, beta)
        self._end_span(state, len(j), r)
        return scales


class ExtendedKaczmarz(RandomizedKaczmarz):
    kind = SolverKind.REK

    def __init__(self, system: LinearSystem):
        super().__init__(system)
        self._draw_cols()

    def init_state(self, trials: int | None = None) -> SolverState:
        state = super().init_state(trials)
        state.z = np.tile(self._y, state.beta.shape[:-1] + (1,))  # z starts at y
        return state

    def _rhs(self, state, draws):
        """Project z off each step's column; each step's y_i - z_i."""
        cols, nsq, y, z = self._col_views, self._col_nsq_vals, self._y_vals, state.z
        rhs = []
        for i, j in zip(*draws):
            xj = cols[j]
            z -= (float(xj.dot(z)) / nsq[j]) * xj
            rhs.append(y[i] - z.item(i))
        return rhs

    def _rhs_batch(self, state, draws):
        """Project z off each step's column in every trial; a table of y_i - z_i."""
        i, j = draws
        take, vecdot, multiply = self._cols_arr.take, np.vecdot, np.multiply
        z = state.z
        flat_z = _flat(z)
        xj = np.empty_like(z)
        rhs = self._y.take(i)
        for jq, fq, bq, nq in zip(j, _flat_index(i, z), rhs, self._col_nsq.take(j)):
            take(jq, axis=0, out=xj, mode="clip")
            z -= multiply(xj, (vecdot(xj, z) / nq)[:, None], out=xj)
            bq -= flat_z.take(fq)
        return rhs


class ExtendedGaussSeidel(RandomizedGaussSeidel):
    kind = SolverKind.REGS

    def __init__(self, system: LinearSystem):
        super().__init__(system)
        self._draw_rows()

    def init_state(self, trials: int | None = None) -> SolverState:
        state = super().init_state(trials)
        state.z = np.zeros_like(state.beta)
        return state

    def estimate(self, state: SolverState) -> np.ndarray:
        return state.beta - state.z

    def steps(self, state, draws, rows=(), on_error=False):
        X, nsq, subtract = self._row_views, self._row_nsq_vals, np.subtract
        z = state.z
        to_est = rows if rows and on_error else repeat(None)  # each holds its step's beta
        for j, i, scale, est in zip(*draws, super().steps(state, draws, rows, on_error), to_est):
            z[j] = z.item(j) + scale
            xi = X[i]
            z -= (float(xi.dot(z)) / nsq[i]) * xi
            if est is not None:
                subtract(est, z, out=est)

    def steps_batch(self, state, draws, rows):
        j, i = draws
        take, vecdot, multiply, subtract = self._rows_arr.take, np.vecdot, np.multiply, np.subtract
        z = state.z
        flat_z = _flat(z)
        xi = np.empty_like(z)
        scales = super().steps_batch(state, draws, rows)  # each row holds its step's beta
        for iq, fq, scale, nq, out in zip(i, _flat_index(j, z), scales, self._row_nsq.take(i),
                                          rows):
            flat_z[fq] += scale
            take(iq, axis=0, out=xi, mode="clip")
            z -= multiply(xi, (vecdot(xi, z) / nq)[:, None], out=xi)
            subtract(out, z, out=out)


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


def _check_start(values) -> None:
    """Reject a run whose squared error or residual at t = 0, ||ref||^2 or ||y||^2, is inf."""
    if any(map(math.isinf, values)):
        raise NumericalError(f"a squared norm at iteration 0 overflows float64: {values}")


def _draw_blocks(dists: list[WeightedIndex], rngs: list[Prng], steps: int):
    """Yield the index draws of `steps` steps of len(rngs) trials, block by block.

    Each block is a list with one (block steps, trials) index array per
    distribution of ``dists``, drawn in one ``batch_uniforms`` call. Trial k
    takes one uniform per draw from rngs[k], step after step and within a
    step in ``dists`` order, so its indices do not depend on the block size
    or on the other trials. Each block is as many steps as DRAW_BUDGET
    uniforms across the trials hold, or the steps left, so a run pays the
    call's fixed cost once per DRAW_BUDGET draws. ``rngs`` is read again
    for each block, so a caller that removes a stopped trial's generator
    from it between blocks stops that trial's draws. A consumer that stops
    early leaves the generators advanced past the last block drawn.
    """
    while steps:
        block = min(steps, max(1, DRAW_BUDGET // (len(dists) * len(rngs))))
        u = batch_uniforms(rngs, block * len(dists)).reshape(len(rngs), block, len(dists))
        yield [d.sample_block(np.ascontiguousarray(u[:, :, q].T)) for q, d in enumerate(dists)]
        steps -= block


# ---------------------------------------------------------------------------
# The least-squares residual floor
#
# u = 2**-53 is the unit roundoff. A float dot product of length k, in any
# summation order, is within gamma_k |x|.|y| of the exact one, gamma_k = k u
# to first order, plus an absolute 2**-1074 a term for gradual underflow.

#: twice the unit roundoff. Every first-order rounding bound below is
#: evaluated with it in place of u, which leaves room for the second-order
#: terms and for the rounding of the bound's own evaluation.
_EPS = 2.0**-52
#: absolute slack on a norm that covers gradual underflow in every dot below
_PAD = 2.0**-500


def _norm_hi(sq: float, k: int) -> float:
    """An upper bound on ||v||, from sq, the float value of a k-term sum of squares v.v."""
    return math.sqrt(sq * (1.0 + k * _EPS) + _PAD * _PAD) * (1.0 + 2 * _EPS)


def _certified_radius_sq(solver: _Solver, metric: StopMetric, tol: float) -> float | None:
    """A radius R such that the exact check of any beta with ||beta||^2 <= R is >= tol.

    ``run`` skips the checks of the steps whose beta it finds inside R. There
    is an R only for RK and REK under residual stopping, whose exact check is
    a full matvec, on a system that stores its least-squares residual w; else
    None, and every step is checked exactly. For any beta, r = y - X beta has
    w.r = w.y - (X^T w).beta, so

        ||r|| ||w|| >= |w.y| - ||X^T w|| ||beta||,

    which for w = r_LS and beta = 0 reads ||r|| >= ||r_LS||, the floor that no
    beta passes, and which holds whatever w is. ``_ExactChecks.flush`` computes
    d = fl(y - X beta), within u ||r|| + gamma_n ||X||_F ||beta|| of r, and
    returns at least (1 - gamma_m) ||d||^2. R joins the two, with w.y, X^T w,
    ||w|| and ||X||_F bounded from the safe side of their rounding, and with
    room for the rounding of ``run``'s own ||beta||^2. It is None too where
    the floor is within rounding of tol, or on overflow: then R is not a
    finite normal number.
    """
    if metric is not StopMetric.RESIDUAL_NORM or isinstance(solver, RandomizedGaussSeidel):
        return None
    system = solver.system
    w = system.residual_ref
    if w is None:
        return None
    m, n = system.m, system.n
    shrink, grow = 1.0 - 8 * _EPS, 1.0 + 8 * _EPS  # cover the rounding of a few operations
    # einsum (optimize=False) calls no BLAS: a multi-threaded BLAS call here would
    # wake a thread pool that slows every later small numpy call in the process
    g = np.einsum("ij,i->j", solver._rows_arr, w)  # X^T w
    wy, ww, yy, gg = (float(np.einsum("i,i->", a, b))
                      for a, b in ((w, solver._y), (w, w), (solver._y, solver._y), (g, g)))
    w_norm, fro = _norm_hi(ww, m), _norm_hi(system.X.frob_sq, m + n + 1)
    # w.y is within gamma_m ||w|| ||y||, and each (X^T w)_j within gamma_m ||X_j|| ||w||
    wy_lo = (abs(wy) - (m * _EPS * w_norm * _norm_hi(yy, m) + _PAD) * grow) * shrink
    g_norm = (_norm_hi(gg, n) + m * _EPS * fro * w_norm + _PAD) * grow
    # (1 - u) ||r|| - gamma_n ||X||_F ||beta|| >= sqrt(tol / (1 - gamma_m)), with the
    # underflow of the gemv and of the squares, is the exact check's value >= tol
    root_tol = math.sqrt(tol + _PAD * _PAD) * (1.0 + m * _EPS) * grow + _PAD
    reach = wy_lo / w_norm * shrink - root_tol
    if not reach > 0.0:
        return None
    slope = (g_norm / w_norm + n * _EPS * fro) * grow
    radius = reach / slope * shrink
    # run's float ||beta||^2 is within gamma_n of it, and of 2**-1074 n once R is normal
    radius_sq = radius * radius * (1.0 - (n + 8) * _EPS)
    return radius_sq if sys.float_info.min <= radius_sq < math.inf else None


class _ExactChecks:
    """The exact stop metrics of a chunk of steps, taken in one ``np.vecdot``.

    Each row of a (steps, ...) buffer holds the one vector a step's metric
    reads: the estimate under error stopping; under residual stopping the
    maintained residual of RGS and REGS, or beta for RK and REK, whose
    residual ``flush`` takes by ``residual_of``. ``steps`` writes the rows
    of ``run``'s spans; ``steps_batch``, or ``steps`` on one trial's rows,
    the estimates of ``run_batch``'s.
    ``flush`` returns the metric of each row of a range, bit for bit a
    check's value.
    """

    def __init__(self, solver: _Solver, on_error: bool, ref, steps: int, trials: int | None = None):
        self.solver, self.ref, self.on_error = solver, ref, on_error
        self.from_beta = not on_error and not isinstance(solver, RandomizedGaussSeidel)
        width = solver.system.m if not (on_error or self.from_beta) else solver.system.n
        self.full = np.empty((steps,) + (() if trials is None else (trials,)) + (width,))
        self.keep(trials)

    def keep(self, trials: int | None) -> None:
        """Use the first `trials` rows of each step from now on (batches)."""
        self.view = self.full if trials is None else self.full[:, :trials]
        self.rows = list(self.view)

    def flush(self, lo: int, hi: int) -> np.ndarray:
        """The metrics of rows lo to hi - 1; under error stopping the rows are overwritten."""
        v = self.view[lo:hi]
        if self.on_error:
            v -= self.ref
        elif self.from_beta:
            v = self.solver.residual_of(v)
        return np.vecdot(v, v)


def run(
    system: LinearSystem,
    kind: SolverKind,
    config: SolveConfig,
    rng: Prng,
    trial: int = 0,
) -> ConvergenceTrace:
    """Iterate one solver until the stop metric falls below tol or max_iter.

    Records (iteration, error_sq, residual_sq) at iteration 0, every
    record_every iterations, and at termination. error_sq measures the
    solver's reported estimate (beta, or beta - z for REGS) against the
    system reference; it is NaN when no reference is available under
    residual-norm stopping.

    The exact stop metric decides every stop. ``run`` advances the solver
    in spans of at most CHECK_CHUNK steps that end at every record, every
    RESIDUAL_REFRESH_EVERY-th step, max_iter and the end of a draw block,
    each one ``steps`` call that writes every step's metric vector into an
    ``_ExactChecks`` row; one ``np.vecdot`` then takes their metrics. A
    stop inside a span is replayed from the state saved before it, so
    ``run`` stops, records and draws as a check after every step would.
    Where ``_certified_radius_sq`` gives a radius R, one ``np.vecdot`` of
    the span's beta rows finds the first step with ||beta||^2 > R; the
    steps before it, whose exact value R certifies >= tol, are not checked.
    The step that ends at a record or refresh is always checked.
    """
    on_error = config.stop_metric is StopMetric.ERROR_TO_REFERENCE
    ref = _require_reference(system) if on_error else system.reference
    solver = make_solver(kind, system)
    state = solver.init_state()
    trace = ConvergenceTrace(kind, trial, False, 0)

    def error_sq() -> float:
        if ref is None:
            return float("nan")
        diff = solver.estimate(state) - ref
        return float(diff @ diff)

    def residual_sq() -> float:
        r = solver.residual(state)
        return float(r @ r)

    def record(it: int, metric: float):
        trace.records.append((it, metric, residual_sq()) if on_error else (it, error_sq(), metric))

    every, last, tol = config.record_every, config.max_iter, config.tol

    def next_exact(t: int) -> int:
        """The first step after t that records or refreshes, where a span must end."""
        return min(t - t % every + every, t - t % RESIDUAL_REFRESH_EVERY + RESIDUAL_REFRESH_EVERY,
                   last)

    with np.errstate(over="ignore"):  # an overflow is rejected just below
        metric = error_sq() if on_error else residual_sq()
        record(0, metric)
    _check_start(trace.records[0][1:])
    if metric < tol:
        trace.converged = True
        return trace

    radius_sq = _certified_radius_sq(solver, config.stop_metric, tol)
    due = next_exact(0)
    checks = _ExactChecks(solver, on_error, ref, min(CHECK_CHUNK, every))  # a record ends a span
    rows = checks.rows
    t = 0
    for block in _draw_blocks(solver.draw_order(), [rng], last):
        indices = [b[:, 0].tolist() for b in block]  # one list per draw of a step
        base, end = t, t + len(indices[0])
        while t < end:
            k = min(CHECK_CHUNK, due - t, end - t)
            span = [i[t - base:t - base + k] for i in indices]
            saved = state.copy() if k > 1 else None  # to replay a stop before the span's end
            solver.steps(state, span, rows[:k], on_error)
            t += k
            lo = 0  # the first step of the span to check exactly
            if radius_sq is not None:
                betas = checks.view[:k - (t == due)]  # the due step is always checked
                outside = np.flatnonzero(np.vecdot(betas, betas) > radius_sq)
                lo = int(outside[0]) if outside.size else len(betas)
            if lo == k:
                continue
            values = checks.flush(lo, k)
            below = np.flatnonzero(values < tol)
            if below.size:
                stop = lo + int(below[0]) + 1  # steps of the span up to the stop
                if stop < k:
                    state = saved
                    solver.steps(state, [i[:stop] for i in span])
                record(t - k + stop, float(values[below[0]]))
                trace.converged = True
                break
            metric = float(values[-1])
            if t % every == 0 or t == last:
                record(t, metric)
            if t == due:
                due = next_exact(t)
        if trace.converged:
            break

    trace.final_iteration = state.iteration
    return trace


@dataclass
class BatchTrace:
    """Error history of trials run together, on the grid 0, stride, 2*stride, ...

    ``errors[k, g]`` is trial k's squared error at iteration g * record_every,
    or its terminal error ``final_errors[k]`` once it has stopped; C-contiguous.
    ``mean_cum_seconds[g]`` is the batch's wall clock from the start to that
    grid point, divided by the number of trials. The clock is read once a
    span, at its end, where a grid point gets that read; a grid point inside
    a span gets the clock interpolated linearly by step count between the
    reads at the span's start and end, so the times never decrease.
    """

    errors: np.ndarray
    mean_cum_seconds: np.ndarray
    final_iterations: np.ndarray
    final_errors: np.ndarray
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
    stops at the same iteration. The trials advance together in spans, each
    at most CHECK_CHUNK steps, which end at every RESIDUAL_REFRESH_EVERY-th
    step, max_iter and the end of a draw block, but not at grid points. A
    span of at least LOCKSTEP_MIN_TRIALS running trials is one
    ``steps_batch`` call (lockstep); a span of fewer is one ``steps`` call
    per running trial, on a view of its row. One ``_ExactChecks.flush``
    takes every step's errors of the span, and the grid points inside it are
    filled from them. A trial whose error falls below tol inside a span gets
    that step and error as its final ones, carries that error forward on the
    grid, and leaves the batch at the span's end, before the next
    ``_draw_blocks`` block is drawn for the trials still running, so it
    draws no block past the one it stopped in. Its generator ends where
    ``run`` leaves it when the trial runs to max_iter or max_iter fits in
    one batch block; else the two may stop at different block ends, since a
    batch block shares DRAW_BUDGET among the trials. The grid runs up to the
    last step that some trial took.
    """
    if config.stop_metric is not StopMetric.ERROR_TO_REFERENCE:
        raise ConfigurationError("batched trials stop on error to reference only")
    ref = _require_reference(system)
    solver = make_solver(kind, system)
    trials = len(rngs)
    state = solver.init_state(trials)
    start = time.perf_counter_ns()

    every, last, tol = config.record_every, config.max_iter, config.tol
    diff = solver.estimate(state) - ref
    with np.errstate(over="ignore"):  # an overflow is rejected just below
        latest = np.vecdot(diff, diff)  # each trial's latest error, terminal once it stopped
    _check_start(latest[:1].tolist())
    columns = [latest[None].copy()]  # blocks of grid columns, (grid points, trials) each
    clock = time.perf_counter_ns() - start
    ticks = [np.array([clock])]  # nanoseconds from the start to each grid point
    at_0 = bool(latest[0] < tol)  # every trial starts from the same state: all stop at 0 or none
    steps = 0 if at_0 else last

    active = np.arange(trials)  # trial id of each batch row
    rows = np.arange(trials)  # the batch rows
    final = np.full(trials, steps)
    converged = np.full(trials, at_0)
    live = list(rngs)  # the generators of the trials still running
    checks = _ExactChecks(solver, True, ref, min(CHECK_CHUNK, last), trials)
    # the buffer rows for ``steps`` of each batch row that runs one by one
    trial_rows = [list(checks.full[:, row]) for row in range(min(trials, LOCKSTEP_MIN_TRIALS - 1))]
    t = 0
    for block in _draw_blocks(solver.draw_order(), live, steps):
        base, end = t, t + len(block[0])
        while t < end:
            k = min(CHECK_CHUNK, end - t, RESIDUAL_REFRESH_EVERY - t % RESIDUAL_REFRESH_EVERY)
            span = [b[t - base:t - base + k] for b in block]
            if active.size >= LOCKSTEP_MIN_TRIALS:
                solver.steps_batch(state, span, checks.rows)
            else:
                for row in range(active.size):
                    solver.steps(state.trial(row), [d[:, row].tolist() for d in span],
                                 trial_rows[row][:k], True)
                state.iteration += k
            errors = checks.flush(0, k)  # (span steps, active trials)
            t0, t = t, t + k
            stopped = None
            at = k - 1  # the span row of each trial's last step
            reach = k  # the steps of the span up to the last step a trial took
            if np.fmin.reduce(errors, axis=None) < tol:  # one reduction; fmin skips NaN
                hit = errors < tol
                stopped = hit.any(axis=0)
                at = np.where(stopped, hit.argmax(axis=0), k - 1)
                reach = int(at.max()) + 1
            now = time.perf_counter_ns() - start
            if every - t0 % every <= reach:  # the span's grid points, as step counts from t0
                points = np.arange(every - t0 % every, reach + 1, every)
                grid = np.repeat(latest[None], points.size, axis=0)
                grid[:, active] = errors[np.minimum(points[:, None] - 1, at), rows]
                columns.append(grid)
                ticks.append(clock + (now - clock) * points // k)
            clock = now
            latest[active] = errors[at, rows]
            if stopped is not None:
                gone = active[stopped]
                final[gone] = t0 + 1 + at[stopped]
                converged[gone] = True
                keep = ~stopped
                active = active[keep]
                rows = rows[:active.size]
                if not active.size:
                    break
                state = state.copy(keep)
                block = [b[:, keep] for b in block]
                live[:] = [rngs[a] for a in active]
                checks.keep(active.size)
        if not active.size:
            break

    errors = np.ascontiguousarray(np.concatenate(columns).T)
    return BatchTrace(errors, np.concatenate(ticks) * 1e-9 / trials, final, latest, converged)
