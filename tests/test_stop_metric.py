"""The stop check: ``run`` stops where an exact check at every step stops.

``run`` decides every stop on the exact metric, which it takes in chunks of
steps and replays up to a stop inside a chunk, and skips only the steps of
RK and REK under residual stopping whose ||beta||^2 lies inside the radius
that the least-squares residual floor certifies (``_certified_radius_sq``).
Three kinds of tests hold it to that: sha256 pins of ``kaczgs solve`` and
``compare`` CSVs as written by a driver that computed the exact metric
after every step; property tests that place tol one ulp around the metric
at a drawn step, or where the radius passes through a drawn step's beta,
for ``run`` and for the lockstep ``run_batch``; and exact checks of betas
on the radius' sphere.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from kaczgs import cli, solvers
from kaczgs.linalg import DenseMatrix, LinearSystem, Regime
from kaczgs.problems import load_system
from kaczgs.sampling import Prng
from kaczgs.solvers import (
    CHECK_CHUNK,
    CONVERGENT_PAIRS,
    SolveConfig,
    SolverKind,
    StopMetric,
    _certified_radius_sq,
    _ExactChecks,
    make_solver,
    run,
    run_batch,
)

from conftest import gaussian_system, reference_draws, step

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

#: sha256 of `kaczgs solve --tol <tol> --max-iter 3000 --record-every 100 --seed 5` on
#: `kaczgs tomo --grid-n 4 --oversample 2 --seed 1` (16x32, underdetermined), keyed
#: (solver, stop metric, tol); the comment is the final iteration. "mid" is 1e-4, crossed
#: inside a span; "floor" is 1e-300, fixed work. RGS's error to the least-norm reference never falls below its start, so
#: RGS under error stopping is pinned at fixed work only.
TOMO_SOLVE_SHA256 = {
    ("rk", "error", "mid"): "d3f5d609ef40fc103a94896b04c58214131611791538827e18caf837dd5285a7",  # 747
    ("rk", "error", "floor"): "22606d41fa5ff98ec26c53eb6380141c4fc38284aa5b9e43f285c8baf8dac75e",  # 3000
    ("rk", "residual", "mid"): "3518d2b556e751d77939e03a8daa5ce1ca766e1055023fd4f8eefe9383bff23b",  # 715
    ("rk", "residual", "floor"): "22606d41fa5ff98ec26c53eb6380141c4fc38284aa5b9e43f285c8baf8dac75e",  # 3000
    ("rgs", "error", "floor"): "5af75da0e4131f8453593721b789cf3e0ad83c9a4e18373c5c01d490e7a30534",  # 3000
    ("rgs", "residual", "mid"): "d60172d4039a6785f9335d54e8c426b8acbdcd61dea1e55652ac6a87aa704302",  # 1514
    ("rgs", "residual", "floor"): "5af75da0e4131f8453593721b789cf3e0ad83c9a4e18373c5c01d490e7a30534",  # 3000
    ("rek", "error", "mid"): "71e3004654b19399bc923788e479a39bacec4b2366dcf93d4668d65cd85ce417",  # 2029
    ("rek", "error", "floor"): "d8402917473a12a846d9931536b06162aa69840bba2d513d6271302016e6c073",  # 3000
    ("rek", "residual", "mid"): "d9a5d84acaa3f59b701fb087ddb0b5435520de5d3dcbfc2c41eb4274186e9ca6",  # 1996
    ("rek", "residual", "floor"): "d8402917473a12a846d9931536b06162aa69840bba2d513d6271302016e6c073",  # 3000
    ("regs", "error", "mid"): "e8670ad9e0c710bb88bb4307425418923d8b0ff3f4bb14c2e0f38e1424ab32bd",  # 2135
    ("regs", "error", "floor"): "e39e3c4b613d6467abf8d6af2c5b9e776672bd18f643a04464a279cd3e64c3f3",  # 3000
    ("regs", "residual", "mid"): "e77dfd5f19c044f50c62b68adb9423ff91c358d0f618668d226899beacdf29fa",  # 1501
    ("regs", "residual", "floor"): "e39e3c4b613d6467abf8d6af2c5b9e776672bd18f643a04464a279cd3e64c3f3",  # 3000
}

#: sha256 of the per-trial `kaczgs compare --trials 4 --record-every 10 --max-iter 3000
#: --tol 1e-8 --seed 5` CSV on the over-consistent system; its RGS rows carry the
#: bound alpha^t ||X ref||^2 / lambda_min
COMPARE_SHA256 = "f6089091c817ed5dde2dc5290d2a96483f31eddb5cf2340e0859fbeb544c222c"

#: sha256 of `kaczgs compare --trials 3 --redraw-per-trial --record-every 10 --max-iter 3000
#: --tol 1e-8 --seed 5` on the over-consistent system. Each trial runs on its own redrawn
#: system, and 11 of the 12 (solver, trial) runs stop between grid points, so the grid
#: past a stop carries that trial's terminal error, not its last grid value.
REDRAW_COMPARE_SHA256 = "6532273bd45e0d47222e003bf83820b4ab2026852a83432eaac62bf13dc11aa2"

#: sha256 of `kaczgs bounds --max-iter 20000 --record-every 1`, keyed (system, solver), on
#: the three Gaussian systems above and the tomography system of ``tomo_dir``, as the
#: row-at-a-time writer wrote them. The two over-determined systems have the same bound
#: constants but for RK's horizon, so their other curves share a digest; RGS's curve on
#: an underdetermined system is 20 001 rows of nan.
BOUNDS_SHA256 = {
    ("over-consistent", "rk"): "7fa2f3083210efc4307ed8f3fe54c5b0629acac3df975f3cf993d4ebfb0790a7",
    ("over-consistent", "rgs"): "6032585789e7369269eed19ee555e2bb5eebb3a7067e50d2d62fa12ae15274f6",
    ("over-consistent", "rek"): "9fa299629763bec1e1bb24254c2930b53b514f246011aa2b1401f0562ad30f7b",
    ("over-consistent", "regs"): "c112b0099768805a14407acf9876fe10c491e872e8c5e49bc585e3f0d5f656d0",
    ("over-inconsistent", "rk"): "41524ab24aa1039d681cc6e2c0e60a65d05285f7e945fd06eb4f2d70ea402d11",
    ("over-inconsistent", "rgs"): "6032585789e7369269eed19ee555e2bb5eebb3a7067e50d2d62fa12ae15274f6",
    ("over-inconsistent", "rek"): "9fa299629763bec1e1bb24254c2930b53b514f246011aa2b1401f0562ad30f7b",
    ("over-inconsistent", "regs"): "c112b0099768805a14407acf9876fe10c491e872e8c5e49bc585e3f0d5f656d0",
    ("underdetermined", "rk"): "badb8d8a52dd60c406e549dac1b704c1ffa0ad2063f715d119a453815e7cebc5",
    ("underdetermined", "rgs"): "c6e69d20d38f279b014f4f8bd7a9cb921151bcb185d20ceeff9c04b01e434aa0",
    ("underdetermined", "rek"): "74cb98413d6a340e04e415e44f461257a761a159b504fc476a5df64c7c7304b6",
    ("underdetermined", "regs"): "92912bae80bf3d4e1d477e8bbffc4f98b7351692e8b3e7e79788eeb39c87c659",
    ("tomo", "rk"): "a389231b8c766580c8f2c7356812f9860925dc35cca2a5c56bab1140464b0741",
    ("tomo", "rgs"): "c6e69d20d38f279b014f4f8bd7a9cb921151bcb185d20ceeff9c04b01e434aa0",
    ("tomo", "rek"): "0a7e38e81831c128c85437677e64d6c947a94af743fb1d075ec9a04ed951c2af",
    ("tomo", "regs"): "428f7479f1f2a9ef3d8a64bd9b25d8e45360682ed45febb35e1b881b42feedaa",
}

#: sha256 of `kaczgs bounds --max-iter 10**30 --record-every 10**29` on the over-inconsistent
#: system, keyed by solver: 11 rows, more than ``sys.maxsize`` apart
HUGE_GRID_BOUNDS_SHA256 = {
    "rk": "1797a696f96833af5e19260a947ec99b0255ba85253ced018dbb5ecd0ae3cda1",
    "rgs": "68336a302bef46151e449c4e710b8e65429edc61d8b9c64cf1b0230c8f34a129",
    "rek": "f2d459ebff60912f649868631f5e5eb5a84d25deccfbe88a5785e0d2334beef0",
    "regs": "36aec1e8bef4cbf94603d2011e2abb7691dc8909bf0113e149b18093f3bc90b5",
}

#: sha256 of y.txt and reference.txt of `kaczgs tomo --grid-n <grid> --oversample <d>
#: --seed <seed>`; y is X times the phantom, whose uniforms follow the n-th kept chord
TOMO_Y_REFERENCE_SHA256 = {
    ("10", "3", "1"): (
        "88804b0cb45a42a45b1fcf644ad1038baa26167fa7477b31cf496036727445d7",
        "315331f814e499c2d4443746517cb2c83d3cb786f80607e29eeae59b1f3f24d4",
    ),
    ("5", "3", "2"): (
        "d13b5ceab22c19eeec8dc06ff8e9e8dd92329f9d60bff76a9f48e002c40a1fd7",
        "58cdb6f06e632866c9893ac2695a56f52a3ebccddf1a7acf11e7f9563ffa93b7",
    ),
}

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


@pytest.fixture(scope="module")
def tomo_dir(system_dirs):
    """The pinned tomography system; skipped with the Gaussian pins where BLAS rounds apart."""
    out = system_dirs / "tomo"
    assert cli.main(["tomo", "--grid-n", "4", "--oversample", "2", "--seed", "1",
                     "--out", str(out)]) == 0
    return out


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

    @pytest.mark.parametrize("key", sorted(TOMO_SOLVE_SHA256), ids="-".join)
    def test_tomography_solve_csv(self, key, tomo_dir, tmp_path):
        solver, metric, setting = key
        out = tmp_path / "solve.csv"
        assert cli.main(["solve", "--system", str(tomo_dir), "--solver", solver,
                         "--stop-metric", metric, "--tol", "1e-04" if setting == "mid" else "1e-300",
                         "--max-iter", "3000", "--record-every", "100", "--seed", "5",
                         "--out", str(out)]) == 0
        assert _sha256(out) == TOMO_SOLVE_SHA256[key]

    @pytest.mark.parametrize("key", sorted(TOMO_Y_REFERENCE_SHA256), ids="x".join)
    def test_tomography_y_and_reference(self, key, system_dirs, tmp_path):
        grid, oversample, seed = key
        assert cli.main(["tomo", "--grid-n", grid, "--oversample", oversample, "--seed", seed,
                         "--out", str(tmp_path)]) == 0
        digests = _sha256(tmp_path / "y.txt"), _sha256(tmp_path / "reference.txt")
        assert digests == TOMO_Y_REFERENCE_SHA256[key]

    @pytest.mark.parametrize("key", sorted(BOUNDS_SHA256), ids="-".join)
    def test_bounds_csv(self, key, system_dirs, tomo_dir, tmp_path):
        system, solver = key
        out = tmp_path / "bounds.csv"
        assert cli.main(["bounds", "--system", str(system_dirs / system), "--solver", solver,
                         "--max-iter", "20000", "--record-every", "1", "--out", str(out)]) == 0
        assert _sha256(out) == BOUNDS_SHA256[key]

    @pytest.mark.parametrize("solver", sorted(HUGE_GRID_BOUNDS_SHA256))
    def test_bounds_csv_on_a_grid_past_sys_maxsize(self, solver, system_dirs, tmp_path):
        out = tmp_path / "bounds.csv"
        assert cli.main(["bounds", "--system", str(system_dirs / "over-inconsistent"),
                         "--solver", solver, "--max-iter", str(10**30),
                         "--record-every", str(10**29), "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 12
        assert _sha256(out) == HUGE_GRID_BOUNDS_SHA256[solver]

    def test_every_convergent_pair_is_pinned(self):
        pinned = {(SolverKind(s), Regime(r)) for s, r, _, _ in SOLVE_SHA256}
        assert pinned == CONVERGENT_PAIRS

    def test_per_trial_compare_csv(self, system_dirs, tmp_path, monkeypatch):
        # 4 trials run one by one here, each span of a trial one ``steps`` call
        monkeypatch.setattr(solvers, "LOCKSTEP_MIN_TRIALS", 5)
        out = tmp_path / "compare.csv"
        assert cli.main(["compare", "--system", str(system_dirs / "over-consistent"),
                         "--trials", "4", "--record-every", "10", "--max-iter", "3000",
                         "--tol", "1e-8", "--seed", "5", "--out", str(out)]) == 0
        assert _sha256(out) == COMPARE_SHA256

    def test_redraw_compare_csv(self, system_dirs, tmp_path):
        out = tmp_path / "compare.csv"
        assert cli.main(["compare", "--system", str(system_dirs / "over-consistent"),
                         "--trials", "3", "--redraw-per-trial", "--record-every", "10",
                         "--max-iter", "3000", "--tol", "1e-8", "--seed", "5",
                         "--out", str(out)]) == 0
        assert _sha256(out) == REDRAW_COMPARE_SHA256


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
    ``steps`` applies them one at a time.
    """
    solver = make_solver(kind, system)
    state = solver.init_state()

    def record(t):
        diff = solver.estimate(state) - system.reference
        r = solver.residual(state)
        return (t, float(diff @ diff), float(r @ r))

    column = 1 if metric is StopMetric.ERROR_TO_REFERENCE else 2
    records = [record(0)]
    if records[0][column] < tol:
        return True, 0, records
    for t, draws in enumerate(reference_draws(system, kind, seed, _STEPS), 1):
        step(solver, state, draws)
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


def _beta_at(system, kind, seed, k):
    solver = make_solver(kind, system)
    state = solver.init_state()
    for draws in reference_draws(system, kind, seed, k):
        step(solver, state, draws)
    return state.beta


def _tol_at_radius(system, kind, radius_sq):
    """The largest tol, to bisection, whose certified radius is at least radius_sq."""
    solver = make_solver(kind, system)
    lo, hi = 0.0, 2.0 * float(system.residual_ref @ system.residual_ref)
    while (mid := (lo + hi) / 2) not in (lo, hi):
        certified = _certified_radius_sq(solver, StopMetric.RESIDUAL_NORM, mid)
        lo, hi = (mid, hi) if certified is not None and certified >= radius_sq else (lo, mid)
    assert lo > 0
    return lo


_crossing_settings = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                              suppress_health_check=[HealthCheck.too_slow])

_REK_INCONSISTENT = (SolverKind.REK, Regime.OVER_INCONSISTENT)


@_crossing_settings
@given(
    pair=st.sampled_from(_PAIRS),
    metric=st.sampled_from(list(StopMetric)),
    seed=st.integers(0, 2**64 - 1),
    k=st.integers(0, _STEPS),
    side=st.sampled_from(["above", "at", "below", "radius"]),
    record_every=st.integers(7, 150),
)
# the radius through beta at step k: certified spans before it, exact checks after
@example(_REK_INCONSISTENT, StopMetric.RESIDUAL_NORM, 1, 40, "radius", 7)
@example(_REK_INCONSISTENT, StopMetric.RESIDUAL_NORM, 2, 150, "radius", 150)
@example(_REK_INCONSISTENT, StopMetric.RESIDUAL_NORM, 3, 300, "radius", 37)
@example(_REK_INCONSISTENT, StopMetric.RESIDUAL_NORM, 4, 90, "radius", 64)
def test_stop_matches_an_exact_check_at_every_step(pair, metric, seed, k, side, record_every):
    """tol one ulp around the metric at step k, or certifying R = ||beta_k||^2: run stops where
    the exact loop stops."""
    kind, regime = pair
    system = _SYSTEMS[regime]
    if side == "radius":  # a tol just under the least-squares residual floor
        assume(metric is StopMetric.RESIDUAL_NORM and system.residual_ref is not None
               and kind in (SolverKind.RK, SolverKind.REK))
        beta = _beta_at(system, kind, seed, k)
        tol = _tol_at_radius(system, kind, float(beta @ beta))
    else:
        value = _metric_at(system, kind, metric, seed, k)
        tol = {"above": math.nextafter(value, math.inf), "at": value,
               "below": math.nextafter(value, 0.0)}[side]
    if not tol > 0:
        tol = math.nextafter(0.0, 1.0)
    expected = exact_every_step(system, kind, metric, tol, seed, record_every)
    cfg = SolveConfig(max_iter=_STEPS, tol=tol, stop_metric=metric, record_every=record_every)
    trace = run(system, kind, cfg, Prng(seed))
    assert (trace.converged, trace.final_iteration, trace.records) == expected


def test_a_scaled_system_keeps_its_certificate_and_guard():
    """Scaled by 2**60, R is the unscaled one, and None above the floor; run matches the exact loop."""
    base = _SYSTEMS[Regime.OVER_INCONSISTENT]
    scale = 2.0**60  # a power of two: the scaled system, its reference and w stay exact
    system = LinearSystem(DenseMatrix(base.X.data * scale), base.y * scale, base.regime,
                          reference=base.reference, residual_ref=base.residual_ref * scale)
    metric = StopMetric.RESIDUAL_NORM
    ref_sq = float(base.reference @ base.reference)
    under = _tol_at_radius(base, SolverKind.RK, ref_sq)  # R passes through the LS solution
    crossed = math.nextafter(_metric_at(system, SolverKind.RK, metric, 3, 120), math.inf)
    radius = _certified_radius_sq(make_solver(SolverKind.RK, base), metric, under)
    solver = make_solver(SolverKind.RK, system)
    assert ref_sq <= radius == _certified_radius_sq(solver, metric, under * scale**2)
    assert _certified_radius_sq(solver, metric, crossed) is None  # crossed: above the floor
    for tol in (under * scale**2, crossed):
        expected = exact_every_step(system, SolverKind.RK, metric, tol, 3, 50)
        cfg = SolveConfig(max_iter=_STEPS, tol=tol, stop_metric=metric, record_every=50)
        trace = run(system, SolverKind.RK, cfg, Prng(3))
        assert (trace.converged, trace.final_iteration, trace.records) == expected
    # w.w overflows: no certificate
    huge = 2.0**600
    overflow = LinearSystem(base.X, base.y * huge, base.regime, reference=base.reference * huge,
                            residual_ref=base.residual_ref * huge)
    assert _certified_radius_sq(make_solver(SolverKind.RK, overflow), metric, 1.0) is None


def test_the_exact_check_on_the_certified_sphere_is_at_least_tol():
    """tol just under ||r_LS||^2: every beta with float ||beta||^2 <= R checks >= tol.

    The betas lie on the sphere ||beta||^2 = R, along X^T w (which lowers
    w.r fastest), in random directions, and towards and around the
    least-squares solution, where the exact check rounds about the floor
    itself; R runs from inside the solution's norm to far beyond it.
    """
    system = _SYSTEMS[Regime.OVER_INCONSISTENT]
    solver = make_solver(SolverKind.RK, system)
    w, ref = system.residual_ref, system.reference
    g = system.X.data.T @ w
    noise = np.random.default_rng(5).normal(size=(560, system.n))
    directions = np.vstack([g, -g, ref, ref + g / np.linalg.norm(g), noise[:60],
                            ref + noise[60:] * np.geomspace(1e-10, 1e-6, 500)[:, None]])
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    floor = float(w @ w)
    ref_sq = float(ref @ ref)
    tols = [_tol_at_radius(system, SolverKind.RK, ref_sq * f) for f in (0.25, 1.0, 4.0)]
    tols += [floor * (1.0 - 2.0**-e) for e in range(30, 44, 2)]
    for tol in tols:
        radius_sq = _certified_radius_sq(solver, StopMetric.RESIDUAL_NORM, tol)
        assert radius_sq is not None and tol < floor
        betas = directions * math.sqrt(radius_sq)
        while (over := np.vecdot(betas, betas) > radius_sq).any():  # as run tests them
            betas[over] *= 1.0 - 2.0**-52
        checks = _ExactChecks(solver, False, None, len(betas))
        checks.view[:] = betas
        assert (checks.flush(0, len(betas)) >= tol).all()


@_crossing_settings
@given(
    pair=st.sampled_from(_PAIRS),
    seed=st.integers(0, 2**64 - 3),
    k=st.integers(0, _STEPS),
    side=st.sampled_from(["above", "at", "below"]),
    record_every=st.integers(CHECK_CHUNK + 1, 250),
)
def test_batch_stops_where_run_stops(pair, seed, k, side, record_every):
    """tol one ulp around one trial's error at step k: the batch stops each trial where run does.

    With record_every above CHECK_CHUNK, stops land inside a chunk. Each
    generator ends where it ends under run: a trial that stops draws no
    block more.
    """
    kind, regime = pair
    system = _SYSTEMS[regime]
    value = _metric_at(system, kind, StopMetric.ERROR_TO_REFERENCE, seed, k)
    tol = {"above": math.nextafter(value, math.inf), "at": value,
           "below": math.nextafter(value, 0.0)}[side]
    if not tol > 0:
        tol = math.nextafter(0.0, 1.0)
    cfg = SolveConfig(max_iter=_STEPS, tol=tol, record_every=record_every)
    seeds = [seed, seed + 1, seed + 2]
    alone = [Prng(s) for s in seeds]
    traces = [run(system, kind, cfg, rng) for rng in alone]
    together = [Prng(s) for s in seeds]
    batch = run_batch(system, kind, cfg, together)

    assert batch.final_iterations.tolist() == [tr.final_iteration for tr in traces]
    assert batch.converged.tolist() == [tr.converged for tr in traces]
    assert [rng._state for rng in together] == [rng._state for rng in alone]
    last = max(tr.final_iteration for tr in traces)
    assert batch.errors.shape == (len(seeds), last // record_every + 1)
    for errors, tr in zip(batch.errors, traces):
        by_iter = {it: err for it, err, _res in tr.records}
        terminal = tr.records[-1][1]
        grid = range(0, errors.size * record_every, record_every)
        assert errors.tolist() == [by_iter[it] if it <= tr.final_iteration else terminal
                                   for it in grid]


@pytest.mark.parametrize("kind, metric, scale", [
    (SolverKind.REK, StopMetric.ERROR_TO_REFERENCE, 1.0),  # the chunk holds estimate - ref
    (SolverKind.RGS, StopMetric.RESIDUAL_NORM, 1.0),  # the maintained residual
    (SolverKind.RK, StopMetric.RESIDUAL_NORM, 2.0**60),  # beta, of a system that stores no w
], ids=["estimate", "maintained-residual", "beta"])
def test_a_stop_inside_a_chunk_is_replayed(kind, metric, scale, monkeypatch):
    """The stop falls before its span's end: run replays the span's draws up to it."""
    base = _SYSTEMS[Regime.OVER_CONSISTENT]
    system = LinearSystem(DenseMatrix(base.X.data * scale), base.y * scale, base.regime,
                          reference=base.reference)
    tol = math.nextafter(_metric_at(system, kind, metric, 3, 100), math.inf)
    expected = exact_every_step(system, kind, metric, tol, 3, 300)
    steps = []  # the iteration each step run reaches, span after span
    cls = type(make_solver(kind, system))
    real_steps = cls.steps

    def counting_steps(self, state, draws, *args):
        steps.extend(range(state.iteration + 1, state.iteration + len(draws[0]) + 1))
        return real_steps(self, state, draws, *args)

    monkeypatch.setattr(cls, "steps", counting_steps)
    cfg = SolveConfig(max_iter=_STEPS, tol=tol, stop_metric=metric, record_every=300)
    trace = run(system, kind, cfg, Prng(3))
    assert (trace.converged, trace.final_iteration, trace.records) == expected
    stop = trace.final_iteration
    assert stop % CHECK_CHUNK  # not the end of a span: the steps past it were run and replayed
    assert steps[-1] == stop and max(steps) > stop
