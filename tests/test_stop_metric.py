"""The stop check: ``run`` stops where an exact check at every step stops.

``run`` decides every stop on the exact metric, but computes it only where
its running value cannot certify that the metric is still at or above tol.
Two kinds of tests hold it to that: sha256 pins of ``kaczgs solve`` and
``compare`` CSVs as written by a driver that computed the exact metric after
every step, and a property test that places tol one ulp around the metric at
a drawn step.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kaczgs import cli
from kaczgs.linalg import DenseMatrix, LinearSystem, Regime
from kaczgs.problems import load_system
from kaczgs.sampling import Prng
from kaczgs.solvers import (
    CONVERGENT_PAIRS,
    SolveConfig,
    SolverKind,
    StopMetric,
    _running_metric,
    make_solver,
    run,
)

from conftest import gaussian_system, reference_draws

#: one small system per regime, all from `kaczgs gen --seed 3`
SHAPES = {
    Regime.OVER_CONSISTENT: ("40", "8"),
    Regime.OVER_INCONSISTENT: ("40", "8"),
    Regime.UNDERDETERMINED: ("8", "30"),
}

#: a tol each convergent run crosses mid-run; the inconsistent residual
#: falls towards ||r_LS||^2 = 41.8104..., so its tol sits just above that
MID_TOL = {
    "error": dict.fromkeys(Regime, "1e-08"),
    "residual": {
        Regime.OVER_CONSISTENT: "1e-08",
        Regime.OVER_INCONSISTENT: "41.82",
        Regime.UNDERDETERMINED: "1e-08",
    },
}

#: sha256 of `kaczgs solve --tol <tol> --max-iter 3000 --record-every 37 --seed 5`,
#: keyed (solver, regime, stop metric, tol); the comment is the final iteration.
#: A tol of 1e-300 runs every solver into its float floor and to the cap, where
#: both stop metrics write the same records.
SOLVE_SHA256 = {
    ("rk", "over-consistent", "error", "mid"): "63a7ba4ef08ce1a7158538810f90aa0654a5d4ea3ebdbe09c8fc32343becc0e1",  # 166
    ("rk", "over-consistent", "error", "floor"): "a249a2ad039e834f60d8d2e896bb4dc2e95f0bce754b319ab9c0af7e68b391ce",  # 3000
    ("rk", "over-consistent", "residual", "mid"): "3ec2f1198712ecbe92a9ff8aaa914f186710ddda64744c7329531ce88c1011cd",  # 206
    ("rk", "over-consistent", "residual", "floor"): "a249a2ad039e834f60d8d2e896bb4dc2e95f0bce754b319ab9c0af7e68b391ce",  # 3000
    ("rk", "underdetermined", "error", "mid"): "42b9337539bc17ee4874b01e688e5a5282d09773d689ea897c31880734e3a2cc",  # 475
    ("rk", "underdetermined", "error", "floor"): "024ed4738bacfe85f4cc657db59f3447ae022ff8095e4ccfd359400e6f9c169d",  # 3000
    ("rk", "underdetermined", "residual", "mid"): "594ed9c069701755cc5b8ec6656f0ad0c03cc5f0552f771f16a28594070a1bfc",  # 528
    ("rk", "underdetermined", "residual", "floor"): "024ed4738bacfe85f4cc657db59f3447ae022ff8095e4ccfd359400e6f9c169d",  # 3000
    ("rgs", "over-consistent", "error", "mid"): "983ab6a6b3787321d31e9c10460a718dfddaae3c218d23fcfe46c7255734af0c",  # 181
    ("rgs", "over-consistent", "error", "floor"): "09efcbc7a26bc3002cf23887f11eb22daf4c799d362d76b7ab47a85ac57253ee",  # 3000
    ("rgs", "over-consistent", "residual", "mid"): "551946a8112219bc95c0b9ab804e6fcf29be8676de9fde7cef2ac342f1b91859",  # 198
    ("rgs", "over-consistent", "residual", "floor"): "09efcbc7a26bc3002cf23887f11eb22daf4c799d362d76b7ab47a85ac57253ee",  # 3000
    ("rgs", "over-inconsistent", "error", "mid"): "de95a1fb6f59b4d4438ce95b830be0b30d71f3f9b64a94d7506f3bebccfbd59f",  # 181
    ("rgs", "over-inconsistent", "error", "floor"): "a17511305b083a884ef086a7bf6d8a6574e7265815fd0127e7388425d1f126a6",  # 3000
    ("rgs", "over-inconsistent", "residual", "mid"): "518534499eedfcc18f614eeec99cb37ed1e51ca1c39a14feedcf976adff22343",  # 84
    ("rgs", "over-inconsistent", "residual", "floor"): "a17511305b083a884ef086a7bf6d8a6574e7265815fd0127e7388425d1f126a6",  # 3000
    ("rek", "over-consistent", "error", "mid"): "a907ba1b4c8e06405c5c29ded4bca1d03eec8bdcf4758d5894c845096d8dfada",  # 242
    ("rek", "over-consistent", "error", "floor"): "10869c9e02b3a51486e07159407823b3b95a9bd0237b922f60127c92b78eeb7b",  # 3000
    ("rek", "over-consistent", "residual", "mid"): "981f70a57c5593c872eda140751310eeb92bfc163a2b80a2f6392ecfbb8f2a61",  # 267
    ("rek", "over-consistent", "residual", "floor"): "10869c9e02b3a51486e07159407823b3b95a9bd0237b922f60127c92b78eeb7b",  # 3000
    ("rek", "over-inconsistent", "error", "mid"): "aa1b929820f66e24c0d8b16affdd92746c17b77d15e8756b7d9c444dd8b3615e",  # 242
    ("rek", "over-inconsistent", "error", "floor"): "a100a00866298b33cab28093d779630a23dc78f589ec81515f5e74011133cac3",  # 3000
    ("rek", "over-inconsistent", "residual", "mid"): "0fb28a639f01ce79f5eee7116665ec9a2fd16f349c5f33b75fde30d63c224a81",  # 105
    ("rek", "over-inconsistent", "residual", "floor"): "a100a00866298b33cab28093d779630a23dc78f589ec81515f5e74011133cac3",  # 3000
    ("rek", "underdetermined", "error", "mid"): "9d318dd39940fb2e713e786ea50a8f8fce7e5c00f275448fc0ed2d222549ebec",  # 611
    ("rek", "underdetermined", "error", "floor"): "036c90119bc589a1691d70f8fcc328bfc13164bd30775f463a0c0580fa7dc182",  # 3000
    ("rek", "underdetermined", "residual", "mid"): "bba2656f521c9cb0ad08bf6be4bb76d1cb5a1814c760adc2beaab412878fa1c7",  # 649
    ("rek", "underdetermined", "residual", "floor"): "036c90119bc589a1691d70f8fcc328bfc13164bd30775f463a0c0580fa7dc182",  # 3000
    ("regs", "over-consistent", "error", "mid"): "933f5d19c1ab551fcf8534fdc272e234f00c06cdbe49677483812a27de28c039",  # 163
    ("regs", "over-consistent", "error", "floor"): "d81d3f327f03a8f45306914f3f7c3d4e8870e97961df386665a049543541c87e",  # 3000
    ("regs", "over-consistent", "residual", "mid"): "a65ab5d6f677a5b074de483c1bc1b0a955f367fbaa65a38c0f8c4135ad269fc6",  # 133
    ("regs", "over-consistent", "residual", "floor"): "d81d3f327f03a8f45306914f3f7c3d4e8870e97961df386665a049543541c87e",  # 3000
    ("regs", "over-inconsistent", "error", "mid"): "7c68a2f520d9e148ee73af1a6ce9508ca9a829c2170c1fcdfbce62da1f80bf0a",  # 163
    ("regs", "over-inconsistent", "error", "floor"): "fa0691fefdb48f7f9dd795847f1dcd38ea5f23390731f16253cd61f134c201b0",  # 3000
    ("regs", "over-inconsistent", "residual", "mid"): "a147edf4e405ee28942478c53095183765dd6afd4b19dec3b28ef5613c47c7e9",  # 46
    ("regs", "over-inconsistent", "residual", "floor"): "fa0691fefdb48f7f9dd795847f1dcd38ea5f23390731f16253cd61f134c201b0",  # 3000
    ("regs", "underdetermined", "error", "mid"): "87e8954fec1420795abc5f0756ae6f4589eb47a8834db0110b18e0247d1cfc80",  # 779
    ("regs", "underdetermined", "error", "floor"): "fee0716c2563db396450017471a61c6b06f671dfa538ab87f8f14e1f0566bd6d",  # 3000
    ("regs", "underdetermined", "residual", "mid"): "79305f7a06ff32797972aa43c32ca046adc77dc52931889ad0d8a80142a8bac1",  # 643
    ("regs", "underdetermined", "residual", "floor"): "fee0716c2563db396450017471a61c6b06f671dfa538ab87f8f14e1f0566bd6d",  # 3000
}

#: sha256 of the per-trial `kaczgs compare --trials 4 --record-every 10 --max-iter 3000
#: --tol 1e-8 --seed 5` CSV on the over-consistent system
COMPARE_SHA256 = "38d9463de746e205a27230d4fd9ea80f777a2c5fd01e0bda025b8e6e24348ecc"

#: sha256 of the pinned systems' arrays and of the BLAS dots and matvecs a solve
#: takes on them. The CSV digests above hold where these round as they did when
#: the digests were recorded (numpy 2.4 with its OpenBLAS 0.3.31 on x86-64);
#: elsewhere the property test below checks the same agreement without them.
ARITHMETIC_SHA256 = "fe6a43ac253320517f926a823e50b441fda31af122ac8f5fb5c2b91733a32fd6"


def _arithmetic_sha256(root) -> str:
    digest = hashlib.sha256()
    for regime in SHAPES:
        system = load_system(root / regime.value)
        X, y, ref = system.X.data, system.y, system.reference
        for arr in (X, y, ref, X @ ref, y - X @ ref, X.T @ y,
                    [float(row @ ref) for row in X], [float(col @ y) for col in X.T.copy()]):
            digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def system_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    for regime, (m, n) in SHAPES.items():
        assert cli.main(["gen", "--m", m, "--n", n, "--regime", regime.value,
                         "--seed", "3", "--out", str(root / regime.value)]) == 0
    if _arithmetic_sha256(root) != ARITHMETIC_SHA256:
        pytest.skip("this numpy/BLAS rounds the pinned systems' dot products differently")
    return root


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedBytes:
    @pytest.mark.parametrize("key", sorted(SOLVE_SHA256), ids="-".join)
    def test_solve_csv(self, key, system_dirs, tmp_path):
        solver, regime, metric, setting = key
        tol = MID_TOL[metric][Regime(regime)] if setting == "mid" else "1e-300"
        out = tmp_path / "solve.csv"
        assert cli.main(["solve", "--system", str(system_dirs / regime), "--solver", solver,
                         "--stop-metric", metric, "--tol", tol, "--max-iter", "3000",
                         "--record-every", "37", "--seed", "5", "--out", str(out)]) == 0
        assert _sha256(out) == SOLVE_SHA256[key]

    def test_every_convergent_pair_is_pinned(self):
        pinned = {(SolverKind(s), Regime(r)) for s, r, _, _ in SOLVE_SHA256}
        assert pinned == CONVERGENT_PAIRS

    def test_per_trial_compare_csv(self, system_dirs, tmp_path):
        out = tmp_path / "compare.csv"
        assert cli.main(["compare", "--system", str(system_dirs / "over-consistent"),
                         "--trials", "4", "--record-every", "10", "--max-iter", "3000",
                         "--tol", "1e-8", "--seed", "5", "--out", str(out)]) == 0
        assert _sha256(out) == COMPARE_SHA256


# --- the stop check against an exact check at every step ---------------------

_SYSTEMS = {
    regime: gaussian_system(m, n, regime, seed=11)
    for regime, (m, n) in {
        Regime.OVER_CONSISTENT: (30, 6),
        Regime.OVER_INCONSISTENT: (30, 6),
        Regime.UNDERDETERMINED: (6, 20),
    }.items()
}
_PAIRS = sorted(CONVERGENT_PAIRS, key=lambda p: (p[0].value, p[1].value))
_STEPS = 400


def exact_every_step(system, kind, metric, tol, seed, record_every):
    """(converged, final_iteration, records) of a run that computes both metrics every step.

    The draws come from the test's own generator and sampler; the solver's
    ``step`` applies them.
    """
    solver = make_solver(kind, system)
    state = solver.init_state()

    def record(t):
        diff = solver.estimate(state) - system.reference
        solver.sync_residual(state)
        return (t, float(diff @ diff), float(state.residual @ state.residual))

    column = 1 if metric is StopMetric.ERROR_TO_REFERENCE else 2
    records = [record(0)]
    if records[0][column] < tol:
        return True, 0, records
    for t, draws in enumerate(reference_draws(system, kind, seed, _STEPS), 1):
        solver.step(state, draws)
        rec = record(t)
        hit = rec[column] < tol
        if hit or t % record_every == 0 or t == _STEPS:
            records.append(rec)
        if hit:
            return True, t, records
    return False, _STEPS, records


def _metric_at(system, kind, metric, seed, k):
    _, _, records = exact_every_step(system, kind, metric, 0.0, seed, 1)
    return records[k][1 if metric is StopMetric.ERROR_TO_REFERENCE else 2]


_crossing_settings = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                              suppress_health_check=[HealthCheck.too_slow])


@_crossing_settings
@given(
    pair=st.sampled_from(_PAIRS),
    metric=st.sampled_from(list(StopMetric)),
    seed=st.integers(0, 2**64 - 1),
    k=st.integers(0, _STEPS),
    side=st.sampled_from(["above", "at", "below"]),
    record_every=st.integers(7, 150),
)
def test_stop_matches_an_exact_check_at_every_step(pair, metric, seed, k, side, record_every):
    """tol one ulp around the metric at step k: run stops where the exact loop stops."""
    kind, regime = pair
    system = _SYSTEMS[regime]
    value = _metric_at(system, kind, metric, seed, k)
    tol = {"above": math.nextafter(value, math.inf), "at": value,
           "below": math.nextafter(value, 0.0)}[side]
    if not tol > 0:
        tol = math.nextafter(0.0, 1.0)
    expected = exact_every_step(system, kind, metric, tol, seed, record_every)
    cfg = SolveConfig(max_iter=_STEPS, tol=tol, stop_metric=metric, record_every=record_every)
    trace = run(system, kind, cfg, Prng(seed))
    assert (trace.converged, trace.final_iteration, trace.records) == expected


def test_a_system_beyond_the_scale_limit_is_checked_every_step():
    """Entries above 2**50 get no running metric; run then matches the exact loop."""
    base = _SYSTEMS[Regime.OVER_CONSISTENT]
    scale = 2.0**60  # a power of two: the scaled system and its reference stay exact
    system = LinearSystem(DenseMatrix(base.X.data * scale), base.y * scale, base.regime,
                          reference=base.reference)
    solver = make_solver(SolverKind.RK, system)
    assert _running_metric(solver, StopMetric.RESIDUAL_NORM, system.reference, 1.0) is None
    tol = math.nextafter(_metric_at(system, SolverKind.RK, StopMetric.RESIDUAL_NORM, 3, 120),
                         math.inf)
    expected = exact_every_step(system, SolverKind.RK, StopMetric.RESIDUAL_NORM, tol, 3, 50)
    cfg = SolveConfig(max_iter=_STEPS, tol=tol, stop_metric=StopMetric.RESIDUAL_NORM,
                      record_every=50)
    trace = run(system, SolverKind.RK, cfg, Prng(3))
    assert (trace.converged, trace.final_iteration, trace.records) == expected
