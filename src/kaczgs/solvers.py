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

``run`` drives one trial through ``step``. ``run_batch`` drives several
trials of one solver in lockstep through ``step_batch``, on a state whose
arrays hold one row per trial: (T, n) iterates, a (T, m) residual, and a
(T, m) z for REK or a (T, n) z for REGS. Each trial draws from its own
generator in the same order as ``step`` (RK: row; RGS: column; REK: row then
column; REGS: column then row) and gets the same updates and residual
refreshes, computed bit for bit the same way: each row's dot product is one
``np.vecdot`` row, the same BLAS dot that ``x @ y`` calls, and the refresh
is one routine for both shapes. So a batched trial's errors equal those of
``run``, and so of ``kaczgs solve``, of the same trial exactly.

A note on the extended Gauss-Seidel coordinate update: the per-step
increment along coordinate j is the coordinate least-squares correction
X_(j)^T (y - X beta) / ||X_(j)||^2, identical to the plain RGS update, so
driving both kernels with the same column draws produces identical beta
sequences; only the auxiliary z sequence differs.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .linalg import LinearSystem, Regime, apply_row_projector
from .sampling import Prng, WeightedIndex, col_distribution, row_distribution

#: maintained residuals are recomputed from scratch this often to cap drift
RESIDUAL_REFRESH_EVERY = 1000


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
    before any read. ``last_row``/``last_col`` record the indices drawn by
    the most recent per-trial step, for invariant checking.
    """

    beta: np.ndarray
    residual: np.ndarray
    iteration: int = 0
    z: np.ndarray | None = None
    last_row: int | None = None
    last_col: int | None = None


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

    def step(self, state: SolverState, rng: Prng) -> SolverState:
        raise NotImplementedError

    # -- lockstep batches: one row per trial, driven by run_batch ----------

    def draw_order(self) -> list[WeightedIndex]:
        """The distributions one step draws from, in the order it draws."""
        return [self._row_dist]

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

    def step(self, state: SolverState, rng: Prng) -> SolverState:
        i = self._row_dist.sample(rng)
        xi = self._rows_arr[i]
        scale = (self._y[i] - xi @ state.beta) / self._row_nsq[i]
        state.beta += scale * xi
        state.iteration += 1
        state.last_row = i
        state.last_col = None
        return state

    def step_batch(self, state: SolverState, draws: list[np.ndarray]) -> None:
        (i,) = draws
        xi = self._rows_arr.take(i, axis=0)
        scale = (self._y.take(i) - np.vecdot(xi, state.beta)) / self._row_nsq.take(i)
        state.beta += scale[:, None] * xi
        state.iteration += 1


class RandomizedGaussSeidel(_MaintainedResidual):
    kind = SolverKind.RGS
    needs_rows = False

    def step(self, state: SolverState, rng: Prng) -> SolverState:
        j = self._col_dist.sample(rng)
        xj = self._cols_arr[j]
        scale = (xj @ state.residual) / self._col_nsq[j]
        state.beta[j] += scale
        state.residual -= scale * xj
        state.iteration += 1
        state.last_col = j
        state.last_row = None
        self.sync_residual(state)
        return state

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

    def step(self, state: SolverState, rng: Prng) -> SolverState:
        i = self._row_dist.sample(rng)
        j = self._col_dist.sample(rng)
        xj = self._cols_arr[j]
        z = state.z
        z -= ((xj @ z) / self._col_nsq[j]) * xj
        xi = self._rows_arr[i]
        scale = (self._y[i] - z[i] - xi @ state.beta) / self._row_nsq[i]
        state.beta += scale * xi
        state.iteration += 1
        state.last_row = i
        state.last_col = j
        return state


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

    def step(self, state: SolverState, rng: Prng) -> SolverState:
        j = self._col_dist.sample(rng)
        i = self._row_dist.sample(rng)
        xj = self._cols_arr[j]
        scale = (xj @ state.residual) / self._col_nsq[j]
        state.beta[j] += scale
        state.residual -= scale * xj
        state.z[j] += scale
        state.z = apply_row_projector(self.system.X, i, state.z)
        state.iteration += 1
        state.last_row = i
        state.last_col = j
        self.sync_residual(state)
        return state


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
    """
    solver = make_solver(kind, system)
    ref = system.reference
    if config.stop_metric is StopMetric.ERROR_TO_REFERENCE and ref is None:
        raise ConfigurationError(
            "stop metric error-to-reference requires a reference solution; "
            f"convergent solver/regime pairs: {_pairs_help()}"
        )

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

    on_error = config.stop_metric is StopMetric.ERROR_TO_REFERENCE
    err = error_sq()
    res = residual_sq() if residuals or not on_error else float("nan")
    record(0, err, res)
    if (err if on_error else res) < config.tol:
        trace.converged = True
        return trace

    for t in range(1, config.max_iter + 1):
        solver.step(state, rng)
        if on_error:
            err = error_sq()
            metric = err
        else:
            res = residual_sq()
            metric = res
        hit = metric < config.tol
        if hit or t % config.record_every == 0 or t == config.max_iter:
            if on_error:
                if residuals:
                    res = residual_sq()
            elif ref is not None:
                err = error_sq()
            record(t, err, res)
        if hit:
            trace.converged = True
            break

    trace.final_iteration = state.iteration
    return trace


#: lockstep steps whose index draws are taken per trial in one block
DRAW_BLOCK = 64


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
    step and leaves the batch when it falls below tol. Draws are taken
    DRAW_BLOCK steps at a time, so a trial that stops leaves its generator
    advanced past its last draw.
    """
    if config.stop_metric is not StopMetric.ERROR_TO_REFERENCE:
        raise ConfigurationError("lockstep trials stop on error to reference only")
    ref = system.reference
    if ref is None:
        raise ConfigurationError(
            "stop metric error-to-reference requires a reference solution; "
            f"convergent solver/regime pairs: {_pairs_help()}"
        )
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
        if t == config.max_iter:
            break
        if not blocks or used == blocks[0].shape[0]:
            steps = min(DRAW_BLOCK, config.max_iter - t)
            u = np.array([rngs[k].uniforms(steps * len(dists)) for k in active])
            u = u.reshape(active.size, steps, len(dists))
            blocks = [d.sample_block(np.ascontiguousarray(u[:, :, q].T))
                      for q, d in enumerate(dists)]
            used = 0
        solver.step_batch(state, [b[used] for b in blocks])
        used += 1
        t += 1
        err = error_sq()

    return BatchTrace(np.stack(columns, axis=1), np.array(seconds) / trials, final, converged)
