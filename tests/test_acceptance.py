"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines as they complete. Criteria with stated runtime targets assert them.
"""
from __future__ import annotations

import time

import numpy as np

from kaczgs import cli
from kaczgs.harness import ExperimentConfig, run_experiment, trial_rng
from kaczgs.linalg import (
    DenseMatrix,
    LinearSystem,
    Regime,
    cholesky_factor,
    cholesky_solve,
    least_norm_ref,
    spectral_summary,
)
from kaczgs.problems import (
    SIDECAR,
    GenSpec,
    TomoSpec,
    gen_gaussian,
    gen_tomography,
    save_system,
)
from kaczgs.solvers import (
    CONVERGENT_PAIRS,
    SolveConfig,
    SolverKind,
    make_solver,
    run,
)
from kaczgs.theory import TheoryBound

from conftest import (
    apply_row_projector,
    reference_draws,
    rgs_enumerated_expected_xerror,
    rgs_one_step,
    rk_enumerated_expected_error,
    step,
)

TOL = 1e-6


def _report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {number}] {name}: {status}" + (f"  ({detail})" if detail else ""))
    return ok


def test_criterion_1_regs_bound_domination(tmp_path):
    started = time.perf_counter()
    spec = GenSpec(m=150, n=500, regime=Regime.UNDERDETERMINED, seed=1)
    system = gen_gaussian(spec)
    sys_dir = tmp_path / "regs_under"
    save_system(system, sys_dir, spec)
    cfg = ExperimentConfig(
        system_dir=sys_dir,
        solvers=[SolverKind.REGS],
        trials=50,
        max_iter=50_000,
        tol=TOL,
        base_seed=1,
        record_every=20,
    )
    trace = run_experiment(cfg, system=system)
    below = total = 0
    for _it, kind, mean, *_rest, bound in trace.rows:
        assert kind is SolverKind.REGS
        total += 1
        if mean <= bound:
            below += 1
    elapsed = time.perf_counter() - started
    frac = below / total
    ok = frac >= 0.95 and elapsed < 60.0
    assert _report(
        1,
        "REGS 150x500 mean below the REGS bound at >=95% of recorded iterations",
        ok,
        f"fraction={frac:.3f} over {total} rows, {elapsed:.1f}s",
    )


def test_criterion_2_table1_matrix():
    started = time.perf_counter()
    trials = 5
    max_iter = 100_000
    systems = {}
    for seed in (1, 2, 3):
        systems[(Regime.OVER_CONSISTENT, seed)] = gen_gaussian(
            GenSpec(m=500, n=50, regime=Regime.OVER_CONSISTENT, seed=seed)
        )
        systems[(Regime.OVER_INCONSISTENT, seed)] = gen_gaussian(
            GenSpec(m=500, n=50, regime=Regime.OVER_INCONSISTENT, seed=seed)
        )
        systems[(Regime.UNDERDETERMINED, seed)] = gen_gaussian(
            GenSpec(m=50, n=500, regime=Regime.UNDERDETERMINED, seed=seed)
        )
    failures = []
    for kind in SolverKind:
        for regime in Regime:
            expect_converge = (kind, regime) in CONVERGENT_PAIRS
            for seed in (1, 2, 3):
                system = systems[(regime, seed)]
                cfg = SolveConfig(max_iter=max_iter, tol=TOL, record_every=max_iter)
                finals = []
                for trial in range(trials):
                    tr = run(system, kind, cfg, trial_rng(seed, kind, trial), trial=trial)
                    finals.append(tr.records[-1][1])
                median = float(np.median(finals))
                if expect_converge and not median < 1e-6:
                    failures.append(f"{kind.name}/{regime.value}/seed{seed}: median={median:.2e}")
                if not expect_converge and not median > 1e-5:
                    failures.append(
                        f"{kind.name}/{regime.value}/seed{seed}: median={median:.2e} too low"
                    )
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 300.0
    assert _report(
        2,
        "Table-1 matrix (12 cells x seeds 1..3, 500x50 / 50x500)",
        ok,
        f"{elapsed:.1f}s" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_3_exact_enumeration_oracles():
    rng = np.random.default_rng(2024)
    violations = []
    checked = 0
    for case in range(20):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        X = DenseMatrix(rng.normal(size=(m, n)))
        beta_star = rng.normal(size=n)
        y = X.data @ beta_star
        if m >= n:
            regime = Regime.OVER_CONSISTENT
            sys_ = LinearSystem(X, y, regime)
            ref = beta_star
        else:
            regime = Regime.UNDERDETERMINED
            sys_ = LinearSystem(X, y, regime)
            try:
                ref = least_norm_ref(sys_.X, sys_.y)
            except Exception:
                continue  # rank-degenerate tiny draw: not a valid test instance
        summary = spectral_summary(X)
        alpha = 1.0 - summary.lambda_min / X.frob_sq
        frob = X.frob_sq
        state = rng.normal(size=n)

        # RK contraction identity
        err = float(np.linalg.norm(state - ref) ** 2)
        xerr = float(np.linalg.norm(X.data @ (state - ref)) ** 2)
        enum_rk = rk_enumerated_expected_error(sys_, state, ref)
        ident_rk = err * (1.0 - xerr / (frob * err))
        if abs(enum_rk - ident_rk) > 1e-12:
            violations.append(f"case{case}: RK identity gap {abs(enum_rk - ident_rk):.2e}")

        # RGS contraction identity in the fitted-value space
        xdiff = X.data @ (state - ref)
        xerr_s = float(xdiff @ xdiff)
        grad = X.data.T @ xdiff
        enum_rgs = rgs_enumerated_expected_xerror(sys_, state, ref)
        ident_rgs = xerr_s * (1.0 - float(grad @ grad) / (frob * xerr_s))
        if abs(enum_rgs - ident_rgs) > 1e-12:
            violations.append(f"case{case}: RGS identity gap {abs(enum_rgs - ident_rgs):.2e}")

        # projector expectation inequality (row span when underdetermined)
        row_probs = X.row_norms_sq / frob
        for _ in range(10):
            w = rng.normal(size=n)
            if m < n:
                low = cholesky_factor(X.data @ X.data.T)
                w = X.data.T @ cholesky_solve(low, X.data @ w)
            expect = sum(
                p * float(np.linalg.norm(apply_row_projector(X, i, w)) ** 2)
                for i, p in enumerate(row_probs)
                if p > 0
            )
            if expect > alpha * float(w @ w) + 1e-12:
                violations.append(f"case{case}: projector expectation exceeds alpha*||w||^2")

        # double-expectation inequality over (column, row) pairs
        col_probs = X.col_norms_sq / frob
        lhs = 0.0
        for j, pj in enumerate(col_probs):
            if pj == 0:
                continue
            stepped = rgs_one_step(sys_, state, j) - ref
            for i, pi in enumerate(row_probs):
                if pi == 0:
                    continue
                xi = X.data[i]
                coef = (xi @ stepped) / X.row_norms_sq[i]
                lhs += pj * pi * float(np.linalg.norm(coef * xi) ** 2)
        rhs = alpha * float(np.linalg.norm(X.data @ (state - ref)) ** 2) / frob
        if lhs > rhs + 1e-12:
            violations.append(f"case{case}: double expectation {lhs:.3e} > {rhs:.3e}")
        checked += 1
    ok = not violations and checked >= 15
    assert _report(
        3,
        "exact one-step expectation + projector inequalities on small systems",
        ok,
        f"{checked} systems" + (f"; {violations}" if violations else ""),
    )


def _rowspan_projector(X: DenseMatrix) -> np.ndarray:
    low = cholesky_factor(X.data @ X.data.T)
    inv_cols = np.column_stack([cholesky_solve(low, col) for col in X.data.T])  # G^-1 X
    return X.data.T @ inv_cols


def test_criterion_4_per_step_invariants():
    started = time.perf_counter()
    violations = []
    counts = {"hyperplane": 0, "optimality": 0, "pythagorean": 0, "decomposition": 0,
              "rowspan": 0}

    # RK hyperplane satisfaction: relative 1e-10 per accepted step
    for regime, shape, seed in [
        (Regime.OVER_CONSISTENT, (100, 30), 101),
        (Regime.UNDERDETERMINED, (30, 100), 102),
    ]:
        sys_ = gen_gaussian(GenSpec(m=shape[0], n=shape[1], regime=regime, seed=seed))
        solver = make_solver(SolverKind.RK, sys_)
        state = solver.init_state()
        for draws in reference_draws(sys_, SolverKind.RK, seed, 5000):
            step(solver, state, draws)
            (i,) = draws
            xi = sys_.X.data[i]
            gap = abs(xi @ state.beta - sys_.y[i])
            scale = max(abs(sys_.y[i]), np.linalg.norm(xi) * np.linalg.norm(state.beta), 1e-30)
            counts["hyperplane"] += 1
            if gap > 1e-10 * scale:
                violations.append(f"hyperplane: {gap:.2e} vs scale {scale:.2e}")

    # RGS coordinate optimality against the fresh residual (inconsistent
    # systems keep the residual away from the float-noise floor)
    for seed in (103, 104):
        sys_ = gen_gaussian(GenSpec(m=100, n=25, regime=Regime.OVER_INCONSISTENT, seed=seed))
        solver = make_solver(SolverKind.RGS, sys_)
        state = solver.init_state()
        for draws in reference_draws(sys_, SolverKind.RGS, seed, 5000):
            step(solver, state, draws)
            (j,) = draws
            xj = sys_.X.data[:, j]
            fresh = sys_.y - sys_.X.data @ state.beta
            counts["optimality"] += 1
            if abs(xj @ fresh) > 1e-10 * np.linalg.norm(xj) * max(np.linalg.norm(fresh), 1e-30):
                violations.append("optimality")

    # Pythagorean recursions, kept above the float-noise floor by run length
    for regime, shape, seed, steps in [
        (Regime.OVER_CONSISTENT, (100, 50), 105, 1500),
        (Regime.UNDERDETERMINED, (50, 100), 106, 1500),
        (Regime.OVER_CONSISTENT, (100, 50), 107, 1500),
        (Regime.UNDERDETERMINED, (50, 100), 108, 1500),
    ]:
        sys_ = gen_gaussian(GenSpec(m=shape[0], n=shape[1], regime=regime, seed=seed))
        ref = sys_.reference
        solver = make_solver(SolverKind.RK, sys_)
        state = solver.init_state()
        prev = state.beta.copy()
        for draws in reference_draws(sys_, SolverKind.RK, seed, steps):
            before = float(np.linalg.norm(prev - ref) ** 2)
            step(solver, state, draws)
            after = float(np.linalg.norm(state.beta - ref) ** 2)
            step_sq = float(np.linalg.norm(state.beta - prev) ** 2)
            counts["pythagorean"] += 1
            if abs(after - (before - step_sq)) > 1e-8 * max(before, 1e-18):
                violations.append("rk pythagorean")
            prev = state.beta.copy()
    for regime, seed, steps in [
        (Regime.OVER_CONSISTENT, 109, 1500),
        (Regime.OVER_INCONSISTENT, 110, 1500),
        (Regime.OVER_CONSISTENT, 111, 1500),
        (Regime.OVER_INCONSISTENT, 112, 1500),
    ]:
        sys_ = gen_gaussian(GenSpec(m=100, n=50, regime=regime, seed=seed))
        ref = sys_.reference
        X = sys_.X.data
        solver = make_solver(SolverKind.RGS, sys_)
        state = solver.init_state()
        prev = state.beta.copy()
        for draws in reference_draws(sys_, SolverKind.RGS, seed, steps):
            before = float(np.linalg.norm(X @ (prev - ref)) ** 2)
            step(solver, state, draws)
            after = float(np.linalg.norm(X @ (state.beta - ref)) ** 2)
            step_sq = float(np.linalg.norm(X @ (state.beta - prev)) ** 2)
            counts["pythagorean"] += 1
            if abs(after - (before - step_sq)) > 1e-8 * max(before, 1e-18):
                violations.append("rgs pythagorean")
            prev = state.beta.copy()

    # REGS per-step decomposition identity
    for regime, shape, seed, steps in [
        (Regime.UNDERDETERMINED, (40, 80), 113, 2500),
        (Regime.UNDERDETERMINED, (40, 80), 114, 2500),
        (Regime.OVER_CONSISTENT, (80, 40), 115, 1250),
        (Regime.OVER_INCONSISTENT, (80, 40), 116, 1250),
        (Regime.UNDERDETERMINED, (40, 80), 117, 2500),
    ]:
        sys_ = gen_gaussian(GenSpec(m=shape[0], n=shape[1], regime=regime, seed=seed))
        ref = sys_.reference
        solver = make_solver(SolverKind.REGS, sys_)
        state = solver.init_state()
        for draws in reference_draws(sys_, SolverKind.REGS, seed, steps):
            prev_est = solver.estimate(state)
            step(solver, state, draws)
            _, i = draws
            xi = sys_.X.data[i]
            term_a = apply_row_projector(sys_.X, i, prev_est - ref)
            v = state.beta - ref
            term_b = ((xi @ v) / sys_.X.row_norms_sq[i]) * xi
            lhs = float(np.linalg.norm(solver.estimate(state) - ref) ** 2)
            rhs = float(term_a @ term_a) + float(term_b @ term_b)
            counts["decomposition"] += 1
            if abs(lhs - rhs) > 1e-8 * max(lhs, rhs, 1e-18):
                violations.append("regs decomposition")

    # RK/REK iterates never leave the row span (underdetermined, beta_0 = 0)
    for kind, seed in [(SolverKind.RK, 118), (SolverKind.REK, 119),
                       (SolverKind.RK, 120), (SolverKind.REK, 121)]:
        sys_ = gen_gaussian(GenSpec(m=30, n=90, regime=Regime.UNDERDETERMINED, seed=seed))
        proj = _rowspan_projector(sys_.X)
        solver = make_solver(kind, sys_)
        state = solver.init_state()
        for t, draws in enumerate(reference_draws(sys_, kind, seed, 2500), 1):
            step(solver, state, draws)
            if t % 5 == 0:
                counts["rowspan"] += 1
                off = state.beta - proj @ state.beta
                if np.linalg.norm(off) > 1e-8 * max(np.linalg.norm(state.beta), 1e-30):
                    violations.append(f"{kind.name} rowspan")

    elapsed = time.perf_counter() - started
    enough = all(c >= 10_000 for c in (counts["hyperplane"], counts["optimality"])) and \
        counts["pythagorean"] >= 10_000 and counts["decomposition"] >= 10_000
    ok = not violations and enough
    assert _report(
        4,
        "per-step invariants over 1e4 steps per family, zero violations",
        ok,
        f"checks={counts}, {elapsed:.1f}s" + (f"; {violations[:5]}" if violations else ""),
    )


def test_criterion_5_rk_horizon():
    system = gen_gaussian(GenSpec(m=500, n=50, regime=Regime.OVER_INCONSISTENT, seed=1))
    tb = TheoryBound.from_system(system)
    assert tb.horizon > 0
    cfg = SolveConfig(max_iter=100_000, tol=TOL, record_every=10_000)
    rk = run(system, SolverKind.RK, cfg, trial_rng(1, SolverKind.RK, 0))
    rek = run(system, SolverKind.REK, cfg, trial_rng(1, SolverKind.REK, 0))
    regs = run(system, SolverKind.REGS, cfg, trial_rng(1, SolverKind.REGS, 0))
    rk_final = rk.records[-1][1]
    ok = (
        not rk.converged
        and rk_final >= 1e-3 * tb.horizon
        and rek.converged
        and rek.records[-1][1] < TOL
        and regs.converged
        and regs.records[-1][1] < TOL
    )
    assert _report(
        5,
        "RK stalls at the inconsistency horizon while REK/REGS reach 1e-6",
        ok,
        f"rk_final={rk_final:.3e}, horizon={tb.horizon:.3e}, "
        f"rek@{rek.final_iteration}, regs@{regs.final_iteration}",
    )


def test_criterion_6_compare_determinism(tmp_path):
    spec = GenSpec(m=100, n=20, regime=Regime.OVER_CONSISTENT, seed=3)
    sys_dir = tmp_path / "sys"
    save_system(gen_gaussian(spec), sys_dir, spec)

    def csv_for(workers: int, name: str) -> bytes:
        out = tmp_path / f"{name}.csv"
        code = cli.main([
            "compare", "--system", str(sys_dir), "--solvers", "rk,rgs,rek,regs",
            "--trials", "8", "--max-iter", "5000", "--tol", repr(TOL), "--seed", "6",
            "--record-every", "20", "--workers", str(workers), "--out", str(out),
        ])
        assert code == 0
        return out.read_bytes()

    first = csv_for(1, "first")
    second = csv_for(1, "second")
    four_workers = csv_for(4, "four_workers")
    (sys_dir / SIDECAR).unlink()  # the binary sidecar is a cache of the text files
    from_text = csv_for(1, "from_text")
    ok = first == second == four_workers == from_text and len(first) > 100
    assert _report(
        6,
        "compare twice (at any --workers value, with or without the sidecar) "
        "yields byte-identical CSV",
        ok,
        f"{len(first)} bytes",
    )


def test_criterion_7_tomography_smoke():
    started = time.perf_counter()
    spec = TomoSpec(grid_n=20, oversample=3, seed=5)
    system = gen_tomography(spec)
    n_grid = spec.grid_n
    structural = (
        (system.m, system.n) == (400, 1200)
        and bool(np.all(system.X.data >= 0.0))
        and int((system.X.data > 0).sum(axis=0).max()) <= 2 * n_grid
        and int((system.X.data > 0).sum(axis=1).max()) <= 6 * n_grid * spec.oversample
        and bool(np.all(system.y >= 0.0))
    )
    cfg = SolveConfig(max_iter=1_000_000, tol=TOL, record_every=10_000)
    rk = run(system, SolverKind.RK, cfg, trial_rng(5, SolverKind.RK, 0))
    regs = run(system, SolverKind.REGS, cfg, trial_rng(5, SolverKind.REGS, 0))
    elapsed = time.perf_counter() - started
    ok = (
        structural
        and rk.converged
        and rk.records[-1][1] < TOL
        and regs.converged
        and regs.records[-1][1] < TOL
    )
    assert _report(
        7,
        "tomography N=20 d=3 (400x1200): structure + RK/REGS to 1e-6 within 1e6 iters",
        ok,
        f"rk@{rk.final_iteration}, regs@{regs.final_iteration}, {elapsed:.1f}s",
    )
