"""Experiment orchestration: aggregation, determinism, CSV emission."""
from __future__ import annotations

import io
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaczgs import harness, solvers
from kaczgs.errors import ConfigurationError
from kaczgs.harness import (
    BOUNDS_CHUNK,
    CSV_HEADER,
    AggregateTrace,
    ExperimentConfig,
    compare_solvers,
    emit_bounds_csv,
    emit_csv,
    emit_timings_csv,
    run_experiment,
)
from kaczgs.linalg import DenseMatrix, LinearSystem, Regime
from kaczgs.problems import (
    GenSpec,
    TomoSpec,
    gen_gaussian,
    gen_tomography,
    load_system,
    save_system,
)
from kaczgs.solvers import LOCKSTEP_MIN_TRIALS, SolveConfig, SolverKind, run
from kaczgs.theory import TheoryBound


@pytest.fixture
def saved_system(tmp_path):
    spec = GenSpec(m=40, n=8, regime=Regime.OVER_CONSISTENT, seed=2)
    target = tmp_path / "sys"
    save_system(gen_gaussian(spec), target, spec)
    return target


def _csv_bytes(trace) -> bytes:
    buf = io.StringIO()
    emit_csv(trace, buf)
    return buf.getvalue().encode()


class TestRunExperiment:
    def test_single_trial_degenerate_band(self, saved_system):
        cfg = ExperimentConfig(system_dir=saved_system, solvers=[SolverKind.RK],
                               trials=1, max_iter=3000, record_every=10, base_seed=1)
        trace = run_experiment(cfg)
        for _it, _kind, mean, median, mn, mx, _bound in trace.rows:
            assert mean == median == mn == mx

    def test_band_ordering_and_mean_inside(self, saved_system):
        cfg = ExperimentConfig(system_dir=saved_system, solvers=[SolverKind.REGS],
                               trials=9, max_iter=3000, record_every=10, base_seed=1)
        trace = run_experiment(cfg)
        assert trace.rows, "experiment produced no rows"
        for _it, _kind, mean, median, mn, mx, _bound in trace.rows:
            assert mn <= median <= mx
            assert mn <= mean <= mx

    def test_identical_config_identical_bytes(self, saved_system):
        cfg = dict(system_dir=saved_system, solvers=[SolverKind.RK, SolverKind.REGS],
                   trials=6, max_iter=2000, record_every=25, base_seed=7)
        a = run_experiment(ExperimentConfig(**cfg))
        b = run_experiment(ExperimentConfig(**cfg))
        assert _csv_bytes(a) == _csv_bytes(b)

    def test_missing_reference_lists_valid_pairs(self, tmp_path, rng_numpy):
        X = DenseMatrix(rng_numpy.normal(size=(10, 3)))
        sys_ = LinearSystem(X, rng_numpy.normal(size=10), Regime.OVER_INCONSISTENT)
        target = tmp_path / "noref"
        save_system(sys_, target)
        cfg = ExperimentConfig(system_dir=target, solvers=[SolverKind.RK], trials=2,
                               max_iter=100)
        with pytest.raises(ConfigurationError, match="RK: over-consistent"):
            run_experiment(cfg)

    # LOCKSTEP_MIN_TRIALS - 1 trials run one by one, LOCKSTEP_MIN_TRIALS trials in lockstep;
    # a redraw runs each trial on its own system, as a batch of one
    @pytest.mark.parametrize("redraw", [False, True], ids=["shared", "redraw"])
    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("trials", [LOCKSTEP_MIN_TRIALS - 1, LOCKSTEP_MIN_TRIALS])
    def test_forward_fill_repeats_terminal_value(self, saved_system, trials, stride, redraw):
        # past its stop, a trial contributes its terminal error to every grid point; at
        # stride 7 a stop lies between grid points, so that is not its last grid value
        cfg = ExperimentConfig(system_dir=saved_system, solvers=[SolverKind.RK],
                               trials=trials, max_iter=30_000, record_every=stride,
                               base_seed=5, redraw_matrix_per_trial=redraw)
        trace = run_experiment(cfg)
        systems = harness._trial_systems(cfg, load_system(saved_system))
        traces = [run(s, SolverKind.RK, cfg.solve_config(), harness.trial_rng(5, SolverKind.RK, k))
                  for k, s in enumerate(systems)]
        last = max(tr.final_iteration for tr in traces)
        assert [r[0] for r in trace.rows] == list(range(0, last + 1, stride))
        errors = []
        for tr in traces:
            assert tr.converged
            by_iter = {it: err for it, err, _res in tr.records}
            errors.append([by_iter[r[0]] if r[0] <= tr.final_iteration else tr.records[-1][1]
                           for r in trace.rows])
        assert [r[4:6] for r in trace.rows] == [(min(e), max(e)) for e in zip(*errors)]
        if stride > 1:  # some trial stops between grid points, before the last one
            assert any(tr.final_iteration % stride and tr.final_iteration < last - stride
                       for tr in traces)

    def test_bound_column_present_for_each_solver(self, saved_system):
        cfg = ExperimentConfig(system_dir=saved_system,
                               solvers=[SolverKind.RK, SolverKind.RGS, SolverKind.REK,
                                        SolverKind.REGS],
                               trials=3, max_iter=2000, record_every=50, base_seed=2)
        trace = run_experiment(cfg)
        for kind in cfg.solvers:
            bounds = [r[6] for r in trace.rows if r[1] is kind]
            assert bounds and all(math.isfinite(b) for b in bounds)
            assert all(b2 <= b1 * (1 + 1e-12) for b1, b2 in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("trials", [LOCKSTEP_MIN_TRIALS - 1, LOCKSTEP_MIN_TRIALS])
    def test_redraw_per_trial_deterministic_and_distinct(self, saved_system, trials):
        base = dict(system_dir=saved_system, solvers=[SolverKind.RK], trials=trials,
                    max_iter=2000, record_every=50, base_seed=9)
        shared = run_experiment(ExperimentConfig(**base))
        redraw_a = run_experiment(ExperimentConfig(**base, redraw_matrix_per_trial=True))
        redraw_b = run_experiment(ExperimentConfig(**base, redraw_matrix_per_trial=True))
        assert _csv_bytes(redraw_a) == _csv_bytes(redraw_b)
        assert _csv_bytes(redraw_a) != _csv_bytes(shared)

    # at t = 0 each trial's error is its own system's ||ref||^2, which the base
    # system's bound alone does not bound on these two cases
    @pytest.mark.parametrize("spec, kind", [
        (GenSpec(m=600, n=60, regime=Regime.OVER_INCONSISTENT, seed=11), SolverKind.RGS),
        (TomoSpec(grid_n=10, oversample=3, seed=11), SolverKind.RK),
    ], ids=["gaussian-rgs", "tomography-rk"])
    def test_redraw_bound_is_the_mean_of_the_trial_systems_bounds(self, tmp_path, spec, kind):
        generate = gen_gaussian if isinstance(spec, GenSpec) else gen_tomography
        save_system(generate(spec), tmp_path, spec)
        cfg = ExperimentConfig(system_dir=tmp_path, solvers=[kind], trials=3, max_iter=2000,
                               record_every=50, redraw_matrix_per_trial=True)
        trace = run_experiment(cfg)
        _it, _kind, mean, _median, _mn, _mx, bound = trace.rows[0]
        assert mean <= bound
        systems = harness._trial_systems(cfg, load_system(tmp_path))
        bounds = [TheoryBound.from_system(s).curve(kind) for s in systems]
        for it, _kind, _mean, _median, _mn, _mx, bound in trace.rows:
            assert bound == sum(b(it) for b in bounds) / 3

    def test_redraw_draws_each_trial_system_once(self, saved_system, monkeypatch):
        drawn = []
        real = harness.redraw
        monkeypatch.setattr(harness, "redraw", lambda *a: drawn.append(a[2]) or real(*a))
        solvers = [SolverKind.RK, SolverKind.REK, SolverKind.REGS]
        cfg = ExperimentConfig(system_dir=saved_system, solvers=solvers, trials=3, max_iter=200,
                               record_every=50, redraw_matrix_per_trial=True)
        run_experiment(cfg)
        assert len(drawn) == len(set(drawn)) == 3

    def test_invalid_configs(self, saved_system):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(system_dir=saved_system, solvers=[], trials=1)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(system_dir=saved_system, solvers=[SolverKind.RK], trials=0)
        with pytest.raises(ConfigurationError, match="record_every"):
            ExperimentConfig(system_dir=saved_system, solvers=[SolverKind.RK], record_every=0)


class TestCompareSolvers:
    def test_excludes_wrong_limit_pairs_underdetermined(self, tmp_path):
        spec = GenSpec(m=8, n=40, regime=Regime.UNDERDETERMINED, seed=4)
        target = tmp_path / "under"
        save_system(gen_gaussian(spec), target, spec)
        cfg = ExperimentConfig(system_dir=target, solvers=list(SolverKind), trials=3,
                               max_iter=30_000, record_every=100, base_seed=1)
        trace = compare_solvers(cfg)
        assert trace.excluded == [SolverKind.RGS]
        kinds = {r[1] for r in trace.rows}
        assert kinds == {SolverKind.RK, SolverKind.REK, SolverKind.REGS}

    def test_excludes_rk_on_inconsistent(self, tmp_path):
        spec = GenSpec(m=40, n=8, regime=Regime.OVER_INCONSISTENT, seed=4)
        target = tmp_path / "incons"
        save_system(gen_gaussian(spec), target, spec)
        cfg = ExperimentConfig(system_dir=target, solvers=list(SolverKind), trials=3,
                               max_iter=30_000, record_every=100, base_seed=1)
        trace = compare_solvers(cfg)
        assert trace.excluded == [SolverKind.RK]

    def test_all_four_kept_on_consistent(self, saved_system):
        cfg = ExperimentConfig(system_dir=saved_system, solvers=list(SolverKind), trials=2,
                               max_iter=20_000, record_every=100, base_seed=1)
        trace = compare_solvers(cfg)
        assert trace.excluded == []
        assert {r[1] for r in trace.rows} == set(SolverKind)

    @pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
    def test_lockstep_never_changes_bytes(self, regime, tmp_path, monkeypatch):
        shape = (8, 30) if regime is Regime.UNDERDETERMINED else (40, 8)
        spec = GenSpec(m=shape[0], n=shape[1], regime=regime, seed=3)
        target = tmp_path / "sys"
        save_system(gen_gaussian(spec), target, spec)
        cfg = ExperimentConfig(system_dir=target, solvers=list(SolverKind),
                               trials=max(8, LOCKSTEP_MIN_TRIALS), max_iter=30_000,
                               record_every=7, base_seed=2)
        lockstep = compare_solvers(cfg)
        monkeypatch.setattr(solvers, "LOCKSTEP_MIN_TRIALS", cfg.trials + 1)
        per_trial = compare_solvers(cfg)
        assert _csv_bytes(lockstep) == _csv_bytes(per_trial)

    def test_timings_collected(self, saved_system):
        cfg = ExperimentConfig(system_dir=saved_system, solvers=[SolverKind.RK], trials=2,
                               max_iter=2000, record_every=100, base_seed=1)
        trace = compare_solvers(cfg)
        assert trace.timings
        secs = [s for _it, _k, s in trace.timings]
        assert all(s >= 0 for s in secs)
        assert all(b >= a for a, b in zip(secs, secs[1:]))  # cumulative


class TestEmitCsv:
    def test_header_only_for_empty_trace(self):
        buf = io.StringIO()
        emit_csv(AggregateTrace(rows=[]), buf)
        assert buf.getvalue() == CSV_HEADER + "\n"

    def test_golden_format(self):
        trace = AggregateTrace(rows=[(0, SolverKind.RK, 1.5, 1.25, 1.0, 2.0, 3.5)])
        buf = io.StringIO()
        emit_csv(trace, buf)
        assert buf.getvalue() == (
            CSV_HEADER + "\n" + "0,RK,1.5,1.25,1.0,2.0,3.5\n"
        )

    def test_roundtrip_parse_exact(self, saved_system):
        cfg = ExperimentConfig(system_dir=saved_system, solvers=[SolverKind.RK], trials=3,
                               max_iter=1500, record_every=25, base_seed=4)
        trace = run_experiment(cfg)
        buf = io.StringIO()
        emit_csv(trace, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        for row, line in zip(trace.rows, lines[1:]):
            it, name, *floats = line.split(",")
            assert int(it) == row[0]
            assert name == row[1].name
            for parsed, original in zip(map(float, floats), row[2:]):
                assert parsed == original or (math.isnan(parsed) and math.isnan(original))

    def test_lf_line_endings_on_disk(self, tmp_path, saved_system):
        cfg = ExperimentConfig(system_dir=saved_system, solvers=[SolverKind.RK], trials=1,
                               max_iter=500, record_every=100, base_seed=4)
        trace = run_experiment(cfg)
        path = tmp_path / "out.csv"
        with open(path, "w", newline="") as fh:  # no newline translation
            emit_csv(trace, fh)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_timings_csv(self, saved_system):
        cfg = ExperimentConfig(system_dir=saved_system, solvers=[SolverKind.RK], trials=1,
                               max_iter=500, record_every=100, base_seed=4)
        trace = compare_solvers(cfg)
        buf = io.StringIO()
        emit_timings_csv(trace, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "iteration,solver,mean_cum_seconds"
        assert len(lines) > 1


def _nan_with_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: values whose text a value-keyed memo would get wrong or that format unusually:
#: both zeros, NaNs of three bit patterns, infinities, subnormals and tiny normals
_SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, _nan_with_bits(0xFFF8000000000000), _nan_with_bits(0x7FF0000000000001),
    math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 9.234364956133329e-144, 1.0,
]
_floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_subnormal=True))
#: lists drawn from a small pool, so most values repeat, side by side or far apart
_float_lists = st.lists(_floats, min_size=1, max_size=12).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=300)
)


def _bounds_csv_row_by_row(bound, cfg) -> str:
    """The bounds CSV as one write of ``repr(bound(t))`` per grid row."""
    buf = io.StringIO()
    buf.write("iteration,bound_value\n")
    for t in range(0, cfg.max_iter + 1, cfg.record_every):
        buf.write(f"{t},{bound(t)!r}\n")
    return buf.getvalue()


def _halving(t: int) -> float:
    """Halves every second step, as REK's bound does, through the subnormals to 0.0."""
    return 0.5 ** (t // 2) * 3.0


def _cycling(t: int) -> float:
    """The special floats in turn, so every chunk holds each of them many times."""
    return _SPECIAL_FLOATS[t % len(_SPECIAL_FLOATS)]


class TestEmitBoundsCsv:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_float_lists)
    @example([0.0, -0.0, 0.0, -0.0])
    @example([-0.0, 0.0])
    @example([])
    def test_reprs_are_repr_of_each_value(self, values):
        assert harness._reprs(values) == list(map(repr, values))

    @pytest.mark.parametrize("bound", [_halving, _cycling])
    @pytest.mark.parametrize("max_iter, every", [
        (5, 10),  # 1 row
        (BOUNDS_CHUNK - 2, 1),  # a chunk less one
        (BOUNDS_CHUNK - 1, 1),  # a chunk
        (BOUNDS_CHUNK, 1),  # a chunk and one row
        (7 * BOUNDS_CHUNK + 6, 7),  # a chunk and one row, the stride not dividing max_iter
        (3 * BOUNDS_CHUNK - 2, 3),  # a chunk, the stride not dividing max_iter
    ])
    def test_bytes_are_those_of_a_row_at_a_time_writer(self, bound, max_iter, every):
        cfg = SolveConfig(max_iter=max_iter, record_every=every)
        buf = io.StringIO()
        emit_bounds_csv(bound, cfg, buf)
        # compared as lines: pytest's diff of two strings this long takes minutes
        expected = _bounds_csv_row_by_row(bound, cfg)
        assert buf.getvalue().splitlines(keepends=True) == expected.splitlines(keepends=True)

    def test_a_grid_past_sys_maxsize_is_written_chunk_by_chunk(self):
        # 10**30 + 1 rows: a writer that took len() of the grid would fail before writing
        class Enough(Exception):
            pass

        def bound(t):
            if t == 2 * BOUNDS_CHUNK:
                raise Enough
            return _halving(t)

        buf = io.StringIO()
        with pytest.raises(Enough):
            emit_bounds_csv(bound, SolveConfig(max_iter=10**30, record_every=1), buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 1 + 2 * BOUNDS_CHUNK
        assert lines[-1] == f"{2 * BOUNDS_CHUNK - 1},{_halving(2 * BOUNDS_CHUNK - 1)!r}"
