"""CLI subcommands, schemas, determinism, exit codes."""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from kaczgs import cli, problems
from kaczgs.errors import NumericalError, SingularMatrixError
from kaczgs.linalg import DenseMatrix, LinearSystem, Regime
from kaczgs.problems import (
    SIDECAR,
    load_system,
    read_vector,
    save_system,
    write_matrix,
    write_vector,
)
from kaczgs.sampling import Prng
from kaczgs.solvers import CONVERGENT_PAIRS, LOCKSTEP_MIN_TRIALS, SolverKind
from kaczgs.theory import TheoryBound


def _run(argv):
    return cli.main(argv)


def _spy_seeds(monkeypatch) -> list[int]:
    """Record the seed of every generator the problem generators start."""
    seeds = []

    def prng(seed):
        seeds.append(seed)
        return Prng(seed)

    monkeypatch.setattr(problems, "Prng", prng)
    return seeds


@pytest.fixture
def system_dir(tmp_path):
    out = tmp_path / "sys"
    code = _run(["gen", "--m", "40", "--n", "8", "--regime", "over-consistent",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


class TestGen:
    def test_writes_loadable_system(self, system_dir):
        sys_ = load_system(system_dir)
        assert (sys_.m, sys_.n) == (40, 8)
        assert sys_.reference is not None

    def test_inconsistent_regime(self, tmp_path):
        out = tmp_path / "inc"
        assert _run(["gen", "--m", "30", "--n", "5", "--regime", "over-inconsistent",
                     "--seed", "2", "--noise-scale", "0.5", "--out", str(out)]) == 0
        sys_ = load_system(out)
        assert sys_.residual_ref is not None

    def test_bad_shape_exits_2(self, tmp_path, capsys):
        code = _run(["gen", "--m", "5", "--n", "5", "--regime", "over-consistent",
                     "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_noise_scale_exits_2(self, scale, tmp_path, capsys):
        out = tmp_path / "sys"
        assert _run(["gen", "--m", "20", "--n", "4", "--regime", "over-consistent",
                     f"--noise-scale={scale}", "--out", str(out)]) == 2
        assert "noise_scale must be finite" in capsys.readouterr().err
        assert not out.exists()

    # each seed overflows at a different place: y itself (0, 4) or X^T y (1-3)
    @pytest.mark.parametrize("seed", ["0", "1", "4"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_noise_scale_exits_2_without_warnings(self, seed, tmp_path, capsys):
        out = tmp_path / "sys"
        assert _run(["gen", "--m", "20", "--n", "4", "--regime", "over-inconsistent",
                     "--noise-scale", "1e308", "--seed", seed, "--out", str(out)]) == 2
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        import kaczgs.cli as cli_mod

        def boom(spec):
            raise NumericalError("forced failure")

        monkeypatch.setattr(cli_mod, "gen_gaussian", boom)
        code = _run(["gen", "--m", "6", "--n", "2", "--regime", "over-consistent",
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    # each retry seed wraps mod 2**64
    @pytest.mark.parametrize("seed", [7, 2**64 - 2])
    def test_rank_degenerate_draws_exit_3_after_every_retry(self, seed, tmp_path, monkeypatch,
                                                            capsys):
        seeds = _spy_seeds(monkeypatch)
        monkeypatch.setattr(problems, "numeric_rank", lambda matrix: 0)
        out = tmp_path / "sys"
        assert _run(["gen", "--m", "6", "--n", "2", "--regime", "over-consistent",
                     "--seed", str(seed), "--out", str(out)]) == 3
        tried = [(seed + k) % 2**64 for k in range(5)]
        assert seeds == tried
        assert capsys.readouterr().err == (
            f"numerical error: gen_gaussian failed after 5 attempts (seeds {seed} + 0..4 "
            f"mod 2**64): rank-degenerate draw at seed {tried[-1]}\n"
        )
        assert not out.exists()


# X of either shape holds more float64 bytes than np.intp can count
OVERSIZE = {
    "gen": ["gen", "--m", "4000000000", "--n", "3000000000", "--regime", "over-consistent"],
    "tomo": ["tomo", "--grid-n", "1000000", "--oversample", "2"],
}


@pytest.mark.parametrize("command", sorted(OVERSIZE))
def test_oversize_generator_shape_exits_2_before_drawing(command, tmp_path, monkeypatch, capsys):
    seeds = _spy_seeds(monkeypatch)
    out = tmp_path / "sys"
    assert _run([*OVERSIZE[command], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: a ") and err.count("\n") == 1
    assert f"bytes of float64, more than the {np.iinfo(np.intp).max} one array can hold" in err
    assert seeds == []  # rejected by the spec: no generator started, no array allocated
    assert not out.exists()


# X of either shape fits np.intp's byte count but not in memory
UNALLOCATABLE = {
    "gen": (["gen", "--m", "1100000000", "--n", "1000000000", "--regime", "over-consistent"],
            "empty", 11 * 10**17),
    "tomo": (["tomo", "--grid-n", "20000", "--oversample", "2"], "zeros", (400000000, 800000000)),
}


@pytest.mark.parametrize("command", sorted(UNALLOCATABLE))
def test_unallocatable_generator_shape_exits_2(command, tmp_path, monkeypatch, capsys):
    argv, allocator, shape = UNALLOCATABLE[command]
    allocate = getattr(np, allocator)

    def no_memory(size, *args, **kwargs):  # refuses X's allocation instead of attempting it
        if math.prod(size if isinstance(size, tuple) else (size,)) > 10**12:
            raise MemoryError(f"Unable to allocate an array with shape {size}")
        return allocate(size, *args, **kwargs)

    monkeypatch.setattr(np, allocator, no_memory)
    out = tmp_path / "sys"
    assert _run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: out of memory: Unable to allocate an array with shape {shape}\n"
    )
    assert not out.exists()


class TestTomo:
    def test_writes_system(self, tmp_path):
        out = tmp_path / "tomo"
        assert _run(["tomo", "--grid-n", "4", "--oversample", "2", "--seed", "5",
                     "--out", str(out)]) == 0
        sys_ = load_system(out)
        assert (sys_.m, sys_.n) == (16, 32)
        assert sys_.regime is Regime.UNDERDETERMINED

    def test_oversample_one_exits_2(self, tmp_path):
        assert _run(["tomo", "--grid-n", "4", "--oversample", "1",
                     "--out", str(tmp_path / "t")]) == 2

    def test_singular_references_exit_3_after_every_retry(self, tmp_path, monkeypatch, capsys):
        seeds = _spy_seeds(monkeypatch)

        def singular(*args):
            raise SingularMatrixError("forced singular Gram")

        monkeypatch.setattr(problems, "least_norm_ref", singular)
        out = tmp_path / "tomo"
        assert _run(["tomo", "--grid-n", "4", "--oversample", "2", "--seed", "5",
                     "--out", str(out)]) == 3
        assert seeds == [5, 6, 7, 8, 9]
        assert capsys.readouterr().err == (
            "numerical error: gen_tomography failed after 5 attempts: forced singular Gram\n"
        )
        assert not out.exists()


class TestSolve:
    def test_csv_schema(self, system_dir, tmp_path):
        out = tmp_path / "trace.csv"
        assert _run(["solve", "--system", str(system_dir), "--solver", "rk",
                     "--record-every", "10", "--max-iter", "5000",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,iteration,solver,error_sq,residual_sq"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0" and first[2] == "RK"
        assert float(first[3]) >= 0 and float(first[4]) >= 0

    def test_deterministic_bytes(self, system_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["solve", "--system", str(system_dir), "--solver", "regs",
                "--record-every", "5", "--max-iter", "4000", "--seed", "9"]
        assert _run(args + ["--out", str(a)]) == 0
        assert _run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_residual_metric(self, system_dir, tmp_path):
        out = tmp_path / "r.csv"
        assert _run(["solve", "--system", str(system_dir), "--solver", "rgs",
                     "--stop-metric", "residual", "--max-iter", "5000",
                     "--record-every", "50", "--out", str(out)]) == 0

    def test_missing_system_exits_2(self, tmp_path):
        assert _run(["solve", "--system", str(tmp_path / "nope"), "--solver", "rk",
                     "--out", "-"]) == 2

    def test_negative_trial_exits_2(self, system_dir, tmp_path, capsys):
        # trials count from 0; a negative index names no compare trial
        out = tmp_path / "neg.csv"
        assert _run(["solve", "--system", str(system_dir), "--solver", "rk",
                     "--trial", "-1", "--seed", "4", "--out", str(out)]) == 2
        assert "trial must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_trial_whose_stream_would_wrap_exits_2(self, system_dir, tmp_path, capsys):
        # trial * 4 + ordinal must stay below 2**64: trial 2**62 would alias trial 0
        out = tmp_path / "wrap.csv"
        args = ["solve", "--system", str(system_dir), "--solver", "rk", "--seed", "4",
                "--max-iter", "20"]
        assert _run(args + ["--trial", str(2**62), "--out", str(out)]) == 2
        assert f"trial must be < {2**62}, got {2**62}" in capsys.readouterr().err
        assert not out.exists()
        assert _run(args + ["--trial", str(2**62 - 1), "--out", str(out)]) == 0
        assert out.exists()

    def test_no_reference_with_error_metric_exits_2(self, tmp_path, rng_numpy):
        X = DenseMatrix(rng_numpy.normal(size=(12, 3)))
        beta = rng_numpy.normal(size=3)
        sys_ = LinearSystem(X, X.data @ beta, Regime.OVER_CONSISTENT)
        target = tmp_path / "noref"
        save_system(sys_, target)
        assert _run(["solve", "--system", str(target), "--solver", "rk",
                     "--out", "-"]) == 2

    def test_no_reference_with_residual_metric_writes_nan_errors(self, system_dir, tmp_path):
        (system_dir / "reference.txt").unlink()
        out = tmp_path / "r.csv"
        assert _run(["solve", "--system", str(system_dir), "--solver", "rk",
                     "--stop-metric", "residual", "--record-every", "20",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) > 2
        assert all(row[3] == "nan" and math.isfinite(float(row[4])) for row in rows)

    @pytest.mark.parametrize("solver, what", [("rk", "rows"), ("rgs", "columns")])
    def test_all_zero_system_exits_2(self, solver, what, tmp_path, capsys):
        sys_ = LinearSystem(DenseMatrix(np.zeros((4, 2))), np.zeros(4), Regime.OVER_CONSISTENT,
                            reference=np.zeros(2))
        save_system(sys_, tmp_path / "zero")
        out = tmp_path / "z.csv"
        assert _run(["solve", "--system", str(tmp_path / "zero"), "--solver", solver,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: cannot sample {what} of an all-zero matrix\n")
        assert not out.exists()


class TestCompare:
    def test_deterministic_including_workers(self, system_dir, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        args = ["compare", "--system", str(system_dir), "--trials", "6",
                "--max-iter", "3000", "--record-every", "20", "--seed", "11"]
        assert _run(args + ["--out", str(a)]) == 0
        assert _run(args + ["--out", str(b)]) == 0
        assert _run(args + ["--workers", "4", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_header_and_solver_subset(self, system_dir, tmp_path):
        out = tmp_path / "cmp.csv"
        assert _run(["compare", "--system", str(system_dir), "--solvers", "rk,regs",
                     "--trials", "2", "--max-iter", "2000", "--record-every", "50",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("iteration,solver,mean_err_sq,median_err_sq,"
                            "min_err_sq,max_err_sq,bound_value")
        solvers = {line.split(",")[1] for line in lines[1:]}
        assert solvers == {"RK", "REGS"}

    def test_unknown_solver_exits_2(self, system_dir):
        assert _run(["compare", "--system", str(system_dir), "--solvers", "bogus",
                     "--out", "-"]) == 2

    @pytest.mark.parametrize("solvers, message", [
        ("rk,rgs,rk", "each solver may be given once, got rk,rgs,rk"),
        (" , ", "at least one solver is required"),
    ], ids=["repeated", "empty"])
    def test_repeated_or_no_solver_exits_2_and_writes_nothing(self, system_dir, tmp_path, capsys,
                                                              solvers, message):
        out = tmp_path / "cmp.csv"
        assert _run(["compare", "--system", str(system_dir), "--solvers", solvers,
                     "--trials", "2", "--max-iter", "100", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("regime, shape, solver", [
        ("underdetermined", (8, 30), "rgs"),
        ("over-inconsistent", (40, 8), "rk"),
    ], ids=["underdetermined-rgs", "over-inconsistent-rk"])
    def test_no_convergent_solver_exits_2_and_writes_nothing(self, regime, shape, solver,
                                                             tmp_path, capsys):
        target = tmp_path / "sys"
        assert _run(["gen", "--m", str(shape[0]), "--n", str(shape[1]), "--regime", regime,
                     "--seed", "3", "--out", str(target)]) == 0
        capsys.readouterr()
        out = tmp_path / "cmp.csv"
        assert _run(["compare", "--system", str(target), "--solvers", solver,
                     "--trials", "2", "--max-iter", "100", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: no requested solver converges on an {regime} system; "
            "convergent pairs: RK: over-consistent, underdetermined; ")
        assert not out.exists()

    def test_timings_out(self, system_dir, tmp_path):
        out, tout = tmp_path / "c.csv", tmp_path / "t.csv"
        assert _run(["compare", "--system", str(system_dir), "--solvers", "rk",
                     "--trials", "2", "--max-iter", "1000", "--record-every", "100",
                     "--out", str(out), "--timings-out", str(tout)]) == 0
        assert tout.read_text().splitlines()[0] == "iteration,solver,mean_cum_seconds"

    def test_timings_to_stdout(self, system_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "c.csv"
        assert _run(["compare", "--system", str(system_dir), "--solvers", "rk",
                     "--trials", "2", "--max-iter", "1000", "--record-every", "100",
                     "--out", str(out), "--timings-out", "-"]) == 0
        assert capsys.readouterr().out.startswith("iteration,solver,mean_cum_seconds\n")
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("generator, key, bad", [
        (["gen", "--m", "20", "--n", "4", "--regime", "over-consistent"], "noise_scale", "abc"),
        (["tomo", "--grid-n", "3", "--oversample", "2"], "grid_n", "ten"),
        (["tomo", "--grid-n", "3", "--oversample", "2"], "oversample", "2.5"),
    ])
    def test_malformed_generator_metadata_exits_2(self, generator, key, bad, tmp_path, capsys):
        directory = tmp_path / "sys"
        assert _run(generator + ["--seed", "1", "--out", str(directory)]) == 0
        meta = directory / "meta.txt"
        lines = [f"{key} {bad}" if line.split()[0] == key else line
                 for line in meta.read_text().splitlines()]
        meta.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c.csv"
        assert _run(["compare", "--system", str(directory), "--trials", "2", "--redraw-per-trial",
                     "--max-iter", "50", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{key} {bad!r}" in err

    def test_zero_workers_exits_2(self, system_dir, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert _run(["compare", "--system", str(system_dir), "--trials", "2",
                     "--workers", "0", "--out", str(out)]) == 2
        assert "workers must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_lockstep_band_is_the_band_of_solve_trials(self, system_dir, tmp_path):
        # these trials run in lockstep; each must be bit for bit the solve of that trial
        trials = max(8, LOCKSTEP_MIN_TRIALS)
        out = tmp_path / "c.csv"
        assert _run(["compare", "--system", str(system_dir), "--solvers", "rk",
                     "--trials", str(trials), "--record-every", "1", "--seed", "4",
                     "--out", str(out)]) == 0
        errors = []
        for trial in range(trials):
            tout = tmp_path / f"s{trial}.csv"
            assert _run(["solve", "--system", str(system_dir), "--solver", "rk",
                         "--trial", str(trial), "--record-every", "1", "--seed", "4",
                         "--out", str(tout)]) == 0
            errors.append([float(line.split(",")[3])
                           for line in tout.read_text().splitlines()[1:]])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == max(len(e) for e in errors)
        for it, row in enumerate(rows):
            at_it = [e[min(it, len(e) - 1)] for e in errors]  # terminal value carried forward
            assert int(row[0]) == it
            assert float(row[4]) == min(at_it)
            assert float(row[5]) == max(at_it)


class TestBounds:
    def test_schema_and_monotone(self, system_dir, tmp_path):
        out = tmp_path / "b.csv"
        assert _run(["bounds", "--system", str(system_dir), "--solver", "regs",
                     "--max-iter", "500", "--record-every", "25",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,bound_value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 21
        assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))

    def test_rek_curve_is_the_zouzias_freris_bound(self, system_dir, tmp_path):
        out = tmp_path / "rek.csv"
        assert _run(["bounds", "--system", str(system_dir), "--solver", "rek",
                     "--max-iter", "100", "--record-every", "10", "--out", str(out)]) == 0
        sys_ = load_system(system_dir)
        tb = TheoryBound.from_system(sys_)
        ref_sq = float(sys_.reference @ sys_.reference)
        expected = ["iteration,bound_value"] + [
            f"{t},{tb.alpha ** (t // 2) * tb.kappa_sq_term * ref_sq!r}" for t in range(0, 101, 10)
        ]
        assert out.read_text().splitlines() == expected
        assert float(expected[1].split(",")[1]) >= ref_sq

    @pytest.mark.parametrize("regime, m, n", [
        ("over-consistent", 40, 8), ("over-inconsistent", 30, 5), ("underdetermined", 8, 30),
    ])
    def test_compare_and_bounds_emit_the_same_curve(self, regime, m, n, tmp_path):
        target = tmp_path / "sys"
        assert _run(["gen", "--m", str(m), "--n", str(n), "--regime", regime, "--seed", "2",
                     "--out", str(target)]) == 0
        stride = ["--max-iter", "400", "--record-every", "10"]
        assert _run(["compare", "--system", str(target), "--trials", "2", *stride,
                     "--out", str(tmp_path / "c.csv")]) == 0
        emitted = {}  # solver -> {iteration: bound_value text}
        for line in (tmp_path / "c.csv").read_text().splitlines()[1:]:
            fields = line.split(",")
            emitted.setdefault(fields[1].lower(), {})[fields[0]] = fields[-1]
        convergent = {k.value for k in SolverKind if (k, Regime(regime)) in CONVERGENT_PAIRS}
        assert set(emitted) == convergent
        for solver in ("rk", "rgs", "rek", "regs"):
            out = tmp_path / f"{solver}.csv"
            assert _run(["bounds", "--system", str(target), "--solver", solver, *stride,
                         "--out", str(out)]) == 0
            curve = dict(line.split(",") for line in out.read_text().splitlines()[1:])
            if solver in emitted:
                shared = curve.keys() & emitted[solver].keys()
                assert "0" in shared and len(shared) > 1
                assert all(emitted[solver][t] == curve[t] for t in shared), solver
            if solver == "rgs" and regime == "underdetermined":
                assert set(curve.values()) == {"nan"}
            else:
                assert "nan" not in curve.values()

    @pytest.mark.parametrize("flag, value, message", [
        ("--record-every", "0", "record_every must be >= 1, got 0"),
        ("--max-iter", "-5", "max_iter must be >= 1, got -5"),
        ("--tol", "0", "tol must be positive, got 0.0"),
    ])
    def test_bad_flag_exits_2_as_in_solve(self, system_dir, tmp_path, capsys,
                                          flag, value, message):
        outs = {}
        for command in ("bounds", "solve"):
            outs[command] = tmp_path / f"{command}.csv"
            assert _run([command, "--system", str(system_dir), "--solver", "rk",
                         flag, value, "--out", str(outs[command])]) == 2
            assert f"configuration error: {message}" in capsys.readouterr().err
        assert not any(out.exists() for out in outs.values())

    @pytest.mark.parametrize("max_iter, every, iterations", [
        (5, 10, [0]), (25, 10, [0, 10, 20]), (30, 10, [0, 10, 20, 30]), (7, 1, list(range(8))),
    ])
    def test_rows_stop_at_the_last_multiple_of_record_every(self, system_dir, tmp_path,
                                                            max_iter, every, iterations):
        # the same grid as a compare whose trials all run to the cap
        stride = ["--max-iter", str(max_iter), "--record-every", str(every)]
        assert _run(["bounds", "--system", str(system_dir), "--solver", "rk", *stride,
                     "--out", str(tmp_path / "b.csv")]) == 0
        assert _run(["compare", "--system", str(system_dir), "--solvers", "rk", "--trials", "1",
                     "--tol", "1e-300", *stride, "--out", str(tmp_path / "c.csv")]) == 0
        for name in ("b.csv", "c.csv"):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            assert [int(row.split(",")[0]) for row in rows] == iterations, name

    def test_rek_form_option_is_gone(self, system_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["bounds", "--system", str(system_dir), "--solver", "rek",
                  "--rek-form", "comparison"])
        assert exc.value.code == 2
        assert "--rek-form" in capsys.readouterr().err


class TestSeedRange:
    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    @pytest.mark.parametrize("command", ["gen", "tomo", "solve", "compare", "bounds"])
    def test_out_of_range_seed_exits_2_before_writing(self, command, seed, system_dir,
                                                      tmp_path, capsys):
        out = tmp_path / "out"
        argv = {
            "gen": ["gen", "--m", "6", "--n", "2", "--regime", "over-consistent"],
            "tomo": ["tomo", "--grid-n", "3", "--oversample", "2"],
            "solve": ["solve", "--system", str(system_dir), "--solver", "rk"],
            "compare": ["compare", "--system", str(system_dir), "--trials", "1"],
            "bounds": ["bounds", "--system", str(system_dir), "--solver", "rk"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            _run(argv + ["--seed", seed, "--out", str(out)])
        assert exc.value.code == 2
        assert "64-bit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["abc", "1.5", "-7"])
    @pytest.mark.parametrize("command", ["solve", "compare", "bounds"])
    def test_malformed_meta_seed_exits_2(self, command, seed, system_dir, tmp_path, capsys):
        meta = system_dir / "meta.txt"
        meta.write_text(meta.read_text().replace("seed 3\n", f"seed {seed}\n"))
        out = tmp_path / "out"
        argv = {
            "solve": ["solve", "--system", str(system_dir), "--solver", "rk"],
            "compare": ["compare", "--system", str(system_dir), "--trials", "1"],
            "bounds": ["bounds", "--system", str(system_dir), "--solver", "rk"],
        }[command]
        assert _run(argv + ["--out", str(out)]) == 2
        assert f"{meta}:2: seed '{seed}'" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_accepted(self, tmp_path):
        out = tmp_path / "top"
        assert _run(["gen", "--m", "6", "--n", "2", "--regime", "over-consistent",
                     "--seed", str(2**64 - 1), "--out", str(out)]) == 0
        assert load_system(out).seed == 2**64 - 1


_SMALL_X = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]


class TestOverflowingNorms:
    """A finite system whose squared norms overflow exits 2 or 3 and writes nothing.

    Without the checks, solve, compare and bounds exit 0 with inf rows, and a
    long bounds curve ends in NaN once alpha^t underflows to 0.
    """

    @pytest.fixture(params=["reference", "residual"])
    def overflow_dir(self, request, tmp_path):
        X = np.array(_SMALL_X)
        if request.param == "reference":  # ||ref||^2 = 5e320
            ref, r, regime = np.array([1e160, 2e160]), None, Regime.OVER_CONSISTENT
        else:  # ||r||^2 = 3e320, r orthogonal to the columns of X
            ref, r, regime = np.zeros(2), np.array([1e160, 1e160, -1e160]), Regime.OVER_INCONSISTENT
        y = X @ ref if r is None else X @ ref + r
        target = tmp_path / "overflow"
        save_system(LinearSystem(DenseMatrix(X), y, regime, reference=ref, residual_ref=r), target)
        return target

    @pytest.mark.parametrize("argv", [
        ["solve", "--solver", "rk"],
        ["solve", "--solver", "rgs", "--stop-metric", "residual"],
        ["compare", "--trials", "1"],
        ["compare", "--trials", "4", "--solvers", "rek,regs"],
        ["bounds", "--solver", "rk"],
        ["bounds", "--solver", "regs", "--max-iter", "3000", "--record-every", "500"],
    ], ids=lambda a: "-".join(a[:1] + a[2:3] + a[-1:]))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exits_3_and_writes_nothing(self, overflow_dir, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert _run(argv + ["--system", str(overflow_dir), "--out", str(out)]) == 3
        assert "float64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gen_noise_overflowing_the_residual_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sys"  # y stays finite, but ||r||^2 does not
        assert _run(["gen", "--m", "30", "--n", "3", "--regime", "over-inconsistent",
                     "--noise-scale", "1e160", "--seed", "1", "--out", str(out)]) == 2
        assert "overflows y or ||r||^2" in capsys.readouterr().err
        assert not out.exists()


class TestEigensolveFailure:
    """A system whose squared norms overflow exits 3 from every command that loads it."""

    @pytest.fixture
    def overflow_dir(self, tmp_path):
        # entries near 1e160 square to about 1e320: the cached squared norms and the
        # Gram matrix overflow to inf. The files are written without DenseMatrix,
        # which refuses such a matrix.
        data = 1e160 * np.random.default_rng(4).normal(size=(8, 3))
        beta = np.ones(3)
        target = tmp_path / "overflow"
        target.mkdir()
        write_matrix(target / "X.txt", data)
        write_vector(target / "y.txt", data @ beta)
        write_vector(target / "reference.txt", beta)
        (target / "meta.txt").write_text("regime over-consistent\nseed none\n")
        return target

    def test_solve_exits_3(self, overflow_dir, capsys):
        assert _run(["solve", "--system", str(overflow_dir), "--solver", "rk",
                     "--max-iter", "10", "--out", "-"]) == 3
        assert "numerical error" in capsys.readouterr().err

    def test_bounds_exits_3(self, overflow_dir, capsys):
        assert _run(["bounds", "--system", str(overflow_dir), "--solver", "rk",
                     "--max-iter", "10", "--out", "-"]) == 3
        assert "numerical error" in capsys.readouterr().err

    def test_compare_exits_3(self, overflow_dir, tmp_path, capsys):
        assert _run(["compare", "--system", str(overflow_dir), "--trials", "1",
                     "--max-iter", "10", "--out", str(tmp_path / "c.csv")]) == 3
        assert "numerical error" in capsys.readouterr().err


class TestInconsistentSystemFiles:
    """An over-inconsistent directory whose array files do not fit together exits 2."""

    @pytest.fixture
    def oi_dir(self, tmp_path):
        target = tmp_path / "oi"
        assert _run(["gen", "--m", "30", "--n", "5", "--regime", "over-inconsistent",
                     "--seed", "2", "--out", str(target)]) == 0
        return target

    @pytest.mark.parametrize("argv", [
        ["solve", "--solver", "rek"],
        ["compare", "--trials", "2"],
        ["bounds", "--solver", "rek"],
    ], ids=lambda a: a[0])
    def test_reference_that_misses_y_minus_r_exits_2(self, oi_dir, argv, tmp_path, capsys):
        # the least-squares reference must solve X ref = y - r like any other
        ref = read_vector(oi_dir / "reference.txt")
        ref[0] += 5.0
        write_vector(oi_dir / "reference.txt", ref)
        (oi_dir / SIDECAR).unlink()
        out = tmp_path / "out.csv"
        assert _run(argv + ["--system", str(oi_dir), "--max-iter", "100",
                            "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: reference does not solve the system: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @staticmethod
    def _gen_without_residual(target, m, n, noise_scale="1.0"):
        """gen an over-inconsistent system at seed 1, then delete its residual and cache."""
        assert _run(["gen", "--m", str(m), "--n", str(n), "--regime", "over-inconsistent",
                     "--seed", "1", "--noise-scale", noise_scale, "--out", str(target)]) == 0
        (target / "residual.txt").unlink()
        (target / SIDECAR).unlink()

    @pytest.mark.parametrize("argv", [
        ["solve", "--solver", "rek"],
        ["compare", "--trials", "2"],
        ["bounds", "--solver", "rek"],
    ], ids=lambda a: a[0])
    def test_reference_off_the_normal_equations_exits_2(self, argv, tmp_path, capsys):
        # stored without its residual, a least-squares reference must still meet
        # X^T (y - X ref) = 0; unchecked, solve measured every step against it
        target = tmp_path / "oi"
        self._gen_without_residual(target, 60, 6)
        ref = read_vector(target / "reference.txt")
        ref[0] += 5.0
        write_vector(target / "reference.txt", ref)
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert _run(argv + ["--system", str(target), "--max-iter", "2000",
                            "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "configuration error: reference does not meet the normal equations: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("noise_scale", ["1e-9", "1e6"])
    @pytest.mark.parametrize("shape", [(60, 6), (300, 30)], ids=["60x6", "300x30"])
    def test_generated_reference_without_residual_solves(self, shape, noise_scale, tmp_path):
        target = tmp_path / "oi"
        self._gen_without_residual(target, *shape, noise_scale)
        assert _run(["solve", "--system", str(target), "--solver", "rek", "--max-iter", "100",
                     "--out", str(tmp_path / "out.csv")]) == 0

    def test_missing_residual_fails_compare_as_it_fails_bounds(self, oi_dir, tmp_path, capsys):
        # compare's bound_value column would be nan without the horizon term
        (oi_dir / "residual.txt").unlink()
        for argv in (["bounds", "--solver", "rek"], ["compare", "--trials", "2"]):
            out = tmp_path / f"{argv[0]}.csv"
            assert _run(argv + ["--system", str(oi_dir), "--max-iter", "100",
                                "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "configuration error: inconsistent system needs residual_ref for the horizon term\n"
            )
            assert not out.exists()


class TestParserBasics:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            _run([])
        assert exc.value.code == 2

    @staticmethod
    def _text(parse, argv, capsys):
        """(exit code, stdout, stderr) of a parse that ends the program, as argparse's do."""
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    # main builds the arguments of the dispatched subcommand only; every help
    # text, usage line and parse error must be those of the full parser
    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], *([name, "-h"] for name in cli._COMMANDS), [], ["nosuch"],
        ["-h", "bounds"], ["--", "bounds", "-h"], ["--verbose", "bounds", "-h"], ["gen", "bounds"],
        ["--verbose", "bounds", "--system", "s", "--solver", "rk"],
        ["gen", "--m", "3"], ["tomo"], ["solve", "--solver", "rk"], ["compare"],
        ["bounds", "--solver", "rk"],
        ["solve", "--system", "s", "--solver", "nope"],
        ["bounds", "--system", "s", "--solver", "nope"],
        ["compare", "--system", "s", "--seed", "-1"],
        ["bounds", "--system", "s", "--solver", "rk", "--rek-form", "comparison"],
    ])
    def test_text_is_the_full_parsers(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        full = self._text(cli.build_parser().parse_args, argv, capsys)
        assert self._text(cli.main, argv, capsys) == full
        assert full[1] or full[2]

    @pytest.mark.parametrize("argv", [["bounds", "-h"], ["solve", "--solver", "nope"], ["nosuch"]])
    def test_argv_defaults_to_sys_argv(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(sys, "argv", ["kaczgs", *argv])
        full = self._text(cli.build_parser().parse_args, argv, capsys)
        assert self._text(lambda _: cli.main(), None, capsys) == full

    @pytest.mark.parametrize("argv, built", [
        (["bounds", "--system", "missing", "--solver", "rk"], ["bounds"]),
        (["--verbose", "tomo", "--grid-n", "0", "--oversample", "2", "--out", "t"], ["tomo"]),
        (["nosuch"], []),
        (["-h"], []),
    ])
    def test_only_the_dispatched_subcommand_is_built(self, argv, built, monkeypatch, capsys):
        calls = []
        for name, (help_line, add_arguments, run) in cli._COMMANDS.items():
            def spy(parser, name=name, add_arguments=add_arguments):
                calls.append(name)
                add_arguments(parser)

            monkeypatch.setitem(cli._COMMANDS, name, (help_line, spy, run))
        try:
            cli.main(argv)
        except SystemExit:
            pass
        capsys.readouterr()
        assert calls == built

    def test_stdout_output(self, system_dir, capsys):
        assert _run(["bounds", "--system", str(system_dir), "--solver", "rk",
                     "--max-iter", "10", "--record-every", "5", "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("iteration,bound_value")


class TestUnopenablePaths:
    """A path that cannot be opened or created is a configuration error: exit 2, one line."""

    @pytest.mark.parametrize("command", [
        ["solve", "--solver", "rk", "--max-iter", "50", "--out", "{missing}"],
        ["compare", "--trials", "2", "--max-iter", "50", "--out", "{missing}"],
        ["compare", "--trials", "2", "--max-iter", "50", "--out", "{ok}", "--timings-out", "{missing}"],
        ["bounds", "--solver", "rk", "--max-iter", "50", "--out", "{missing}"],
        ["gen", "--m", "20", "--n", "4", "--regime", "over-consistent", "--out", "{file}"],
        ["tomo", "--grid-n", "4", "--oversample", "2", "--out", "{file}"],
    ], ids=["solve", "compare", "compare-timings", "bounds", "gen", "tomo"])
    def test_exits_2_with_one_line(self, command, system_dir, tmp_path, capsys):
        existing = tmp_path / "afile"
        existing.write_text("not a directory\n")
        paths = {"missing": tmp_path / "missing" / "x.csv", "ok": tmp_path / "ok.csv", "file": existing}
        argv = [arg.format(**paths) for arg in command]
        if command[0] not in ("gen", "tomo"):
            argv[1:1] = ["--system", str(system_dir)]
        capsys.readouterr()
        assert _run(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("configuration error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "missing").exists()
        assert existing.read_text() == "not a directory\n"


class TestMalformedSystemFiles:
    """A system file that does not parse exits 2 with one line naming the file and line."""

    @staticmethod
    def _replace_lines(path, edit):
        path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))

    @pytest.mark.parametrize("name, edit, message", [
        ("X.txt", lambda lines: ["40"] + lines[1:], "X.txt:1: expected header 'm n', got '40'"),
        ("X.txt", lambda lines: ["40 eight"] + lines[1:],
         "X.txt:1: non-integer dimensions in header '40 eight'"),
        ("X.txt", lambda lines: lines[:-1], "X.txt:40: expected 40 matrix rows, found 39"),
        ("y.txt", lambda lines: [], "y.txt:1: empty vector file"),
        ("meta.txt", lambda lines: lines[:1] + ["seed"] + lines[2:],
         "meta.txt:2: expected 'key value', got 'seed'"),
    ], ids=["one-field-header", "non-integer-dimension", "one-row-short", "empty-y",
            "meta-key-without-value"])
    def test_exits_2_with_path_and_line(self, name, edit, message, system_dir, tmp_path, capsys):
        (system_dir / SIDECAR).unlink()  # the text is parsed, with no cache to read
        self._replace_lines(system_dir / name, edit)
        out = tmp_path / "b.csv"
        assert _run(["bounds", "--system", str(system_dir), "--solver", "rk",
                     "--max-iter", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {system_dir / message}\n"
        assert not out.exists()

    def test_missing_meta_exits_2(self, system_dir, tmp_path, capsys):
        (system_dir / "meta.txt").unlink()
        out = tmp_path / "b.csv"
        assert _run(["bounds", "--system", str(system_dir), "--solver", "rk",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: missing system file: {system_dir / 'meta.txt'}\n")
        assert not out.exists()

    def test_blank_meta_lines_are_skipped(self, system_dir, tmp_path):
        argv = ["bounds", "--system", str(system_dir), "--solver", "rk", "--max-iter", "10"]
        assert _run(argv + ["--out", str(tmp_path / "a.csv")]) == 0
        self._replace_lines(system_dir / "meta.txt",
                            lambda lines: ["", lines[0], "  ", "\t", *lines[1:], ""])
        assert _run(argv + ["--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestNonUtf8Input:
    """A byte that is not UTF-8 in a system's text file is a ParseError on its line: exit 2."""

    @pytest.mark.parametrize("name", ["y.txt", "meta.txt"])
    def test_bad_byte_exits_2_with_path_and_line(self, name, system_dir, capsys):
        (system_dir / SIDECAR).unlink()
        path = system_dir / name
        lines = len(path.read_bytes().splitlines())
        with open(path, "ab") as fh:
            fh.write(b"\xff\n")
        capsys.readouterr()
        assert _run(["bounds", "--system", str(system_dir), "--solver", "rk",
                     "--max-iter", "10", "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}:{lines + 1}: not UTF-8 text")
        assert len(err.splitlines()) == 1
