"""Problem generators and system directory serialization."""
from __future__ import annotations

import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczgs import cli, problems
from kaczgs.errors import ConfigurationError, ParseError
from kaczgs.linalg import DenseMatrix, LinearSystem, Regime
from kaczgs.problems import (
    SIDECAR,
    GenSpec,
    TomoSpec,
    gen_gaussian,
    gen_tomography,
    load_meta,
    load_system,
    read_matrix,
    read_vector,
    redraw,
    save_system,
    write_matrix,
    write_vector,
)
from kaczgs.sampling import Prng
from kaczgs.solvers import SolveConfig, SolverKind, run

from conftest import RefGenerator


def _replay_drawn_beta(system, m, n):
    """Re-derive the generator's drawn beta by replaying the documented draw order."""
    rng = RefGenerator(system.seed)
    for _ in range(m * n):
        rng.gaussian()
    return np.array([rng.gaussian() for _ in range(n)])


class TestGenGaussian:
    def test_over_consistent_reference_solves_system(self):
        sys_ = gen_gaussian(GenSpec(m=4, n=2, regime=Regime.OVER_CONSISTENT, seed=9))
        assert np.linalg.norm(sys_.X.data @ sys_.reference - sys_.y) < 1e-10

    def test_over_inconsistent_residual_orthogonal(self):
        sys_ = gen_gaussian(GenSpec(m=4, n=2, regime=Regime.OVER_INCONSISTENT, seed=9))
        r = sys_.residual_ref
        lhs = np.linalg.norm(sys_.X.data.T @ r)
        assert lhs < 1e-10 * np.sqrt(sys_.X.frob_sq) * np.linalg.norm(r)
        assert np.linalg.norm(r) > 0

    def test_underdetermined_reference_is_minimum_norm(self):
        sys_ = gen_gaussian(GenSpec(m=2, n=4, regime=Regime.UNDERDETERMINED, seed=9))
        beta_drawn = _replay_drawn_beta(sys_, 2, 4)
        assert np.linalg.norm(sys_.X.data @ beta_drawn - sys_.y) < 1e-10
        assert np.linalg.norm(sys_.reference) <= np.linalg.norm(beta_drawn)

    def test_deterministic_in_spec(self):
        spec = GenSpec(m=10, n=3, regime=Regime.OVER_CONSISTENT, seed=77)
        a, b = gen_gaussian(spec), gen_gaussian(spec)
        assert np.array_equal(a.X.data, b.X.data)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.reference, b.reference)

    def test_noise_scale_scales_residual(self):
        small = gen_gaussian(GenSpec(m=12, n=3, regime=Regime.OVER_INCONSISTENT, seed=5,
                                     noise_scale=0.5))
        big = gen_gaussian(GenSpec(m=12, n=3, regime=Regime.OVER_INCONSISTENT, seed=5,
                                   noise_scale=2.0))
        ratio = np.linalg.norm(big.residual_ref) / np.linalg.norm(small.residual_ref)
        assert ratio == pytest.approx(4.0, rel=1e-10)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            GenSpec(m=3, n=3, regime=Regime.OVER_CONSISTENT, seed=0)
        with pytest.raises(ConfigurationError):
            GenSpec(m=5, n=2, regime=Regime.UNDERDETERMINED, seed=0)
        with pytest.raises(ConfigurationError):
            GenSpec(m=5, n=2, regime=Regime.OVER_INCONSISTENT, seed=0, noise_scale=0.0)
        for seed in (-1, 2**64):
            with pytest.raises(ConfigurationError, match="64-bit"):
                GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=seed)

    def test_retry_seed_wraps_past_2_64(self, monkeypatch):
        # force one rank-degenerate draw: the retry after 2**64 - 1 is seed 0
        import kaczgs.problems as problems

        real_rank, calls = problems.numeric_rank, []

        def degenerate_first(X):
            calls.append(X)
            return 0 if len(calls) == 1 else real_rank(X)

        monkeypatch.setattr(problems, "numeric_rank", degenerate_first)
        wrapped = gen_gaussian(GenSpec(m=6, n=2, regime=Regime.OVER_CONSISTENT, seed=2**64 - 1))
        monkeypatch.undo()
        plain = gen_gaussian(GenSpec(m=6, n=2, regime=Regime.OVER_CONSISTENT, seed=0))
        assert len(calls) == 2
        assert wrapped.seed == plain.seed == 0
        assert np.array_equal(wrapped.X.data, plain.X.data)


class TestGenTomography:
    def test_structure(self):
        spec = TomoSpec(grid_n=4, oversample=2, seed=5)
        sys_ = gen_tomography(spec)
        n_grid = spec.grid_n
        assert (sys_.m, sys_.n) == (n_grid**2, spec.oversample * n_grid**2)
        assert sys_.regime is Regime.UNDERDETERMINED
        data = sys_.X.data
        assert np.all(data >= 0.0)
        # one line crosses at most 2N - 1 cells
        col_nnz = (data > 0).sum(axis=0)
        assert col_nnz.max() <= 2 * n_grid
        assert np.all(sys_.y >= 0.0)
        assert sys_.reference is not None
        assert np.linalg.norm(data @ sys_.reference - sys_.y) <= 1e-8 * np.linalg.norm(sys_.y)

    def test_line_lengths_bounded_by_diameter(self):
        sys_ = gen_tomography(TomoSpec(grid_n=5, oversample=2, seed=1))
        diameter = 5.0 * np.sqrt(2.0)
        col_sums = sys_.X.data.sum(axis=0)  # total in-grid length of each line
        assert np.all(col_sums <= diameter + 1e-9)
        assert np.all(col_sums > 0.0)

    def test_oversample_below_two_rejected(self):
        with pytest.raises(ConfigurationError):
            TomoSpec(grid_n=4, oversample=1, seed=0)

    def test_seed_past_64_bits_rejected(self):
        with pytest.raises(ConfigurationError, match="64-bit"):
            TomoSpec(grid_n=4, oversample=2, seed=2**64)

    def test_deterministic(self):
        a = gen_tomography(TomoSpec(grid_n=4, oversample=2, seed=5))
        b = gen_tomography(TomoSpec(grid_n=4, oversample=2, seed=5))
        assert np.array_equal(a.X.data, b.X.data)
        assert np.array_equal(a.y, b.y)

    def test_small_instance_rk_end_to_end(self):
        sys_ = gen_tomography(TomoSpec(grid_n=4, oversample=2, seed=5))
        cfg = SolveConfig(max_iter=200_000, tol=1e-6, record_every=500)
        trace = run(sys_, SolverKind.RK, cfg, Prng(5))
        assert trace.converged
        assert trace.records[-1][1] < 1e-6


class TestGoldenDraws:
    """The whole draw order of each generator, pinned by the sha256 of X.txt.

    The Gaussian file fixes the Box-Muller pairing of X's entries; the
    tomography file fixes every endpoint draw, the rejected ones included.
    """

    @pytest.mark.parametrize("argv, digest", [
        (["gen", "--m", "6", "--n", "3", "--regime", "over-consistent", "--seed", "1"],
         "2b3d26f95af29b4ace263b72e55747b9e76b4c30c4d3e5b4b85210efe6fbefed"),
        (["tomo", "--grid-n", "3", "--oversample", "2", "--seed", "1"],
         "9bdd9a88363eccae0cf6861807e2ac44b51ee8db1b71030d5d5e2b97cb85b822"),
    ], ids=["gen", "tomo"])
    def test_x_file_digest(self, tmp_path, argv, digest):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "X.txt").read_bytes()).hexdigest() == digest


class TestTextFormats:
    def test_matrix_roundtrip_bit_exact(self, tmp_path, rng_numpy):
        values = rng_numpy.normal(size=(7, 3)) * np.exp(rng_numpy.normal(size=(7, 3)) * 5)
        path = tmp_path / "X.txt"
        write_matrix(path, values)
        back = read_matrix(path)
        assert np.array_equal(back.data, values)

    def test_vector_roundtrip_bit_exact(self, tmp_path):
        vec = np.array([0.1, -1e-300, 3.0, 7.25e100, 0.0])
        path = tmp_path / "v.txt"
        write_vector(path, vec)
        assert np.array_equal(read_vector(path), vec)

    def test_hand_written_identity(self, tmp_path):
        path = tmp_path / "X.txt"
        path.write_text("2 2\n1 0\n0 1\n")
        assert np.array_equal(read_matrix(path).data, np.eye(2))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "X.txt"
        path.write_text("2 2\n1 0\n0\n")
        with pytest.raises(ParseError, match=r"X\.txt:3"):
            read_matrix(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2\n1.5\nbogus\n")
        with pytest.raises(ParseError, match=r"v\.txt:3"):
            read_vector(path)

    def test_empty_matrix_file(self, tmp_path):
        path = tmp_path / "X.txt"
        path.write_text("")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_extra_matrix_row_rejected(self, tmp_path):
        path = tmp_path / "X.txt"
        path.write_text("2 2\n1 0\n0 1\n5 6\n")
        with pytest.raises(ParseError, match=r"X\.txt:4: extra line after the 2 matrix rows"):
            read_matrix(path)

    def test_extra_vector_value_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2\n1.5\n2.5\n\n3.5\n")
        with pytest.raises(ParseError, match=r"v\.txt:5: extra line after the 2 values"):
            read_vector(path)

    def test_trailing_blank_lines_accepted(self, tmp_path):
        (tmp_path / "X.txt").write_text("2 2\n1 0\n0 1\n\n  \n")
        (tmp_path / "v.txt").write_text("2\n1.5\n2.5\n\n")
        assert np.array_equal(read_matrix(tmp_path / "X.txt").data, np.eye(2))
        assert np.array_equal(read_vector(tmp_path / "v.txt"), [1.5, 2.5])

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("-1\n")
        with pytest.raises(ParseError, match=r"v\.txt:1: negative"):
            read_vector(path)

    def test_system_with_extra_rows_rejected(self, tmp_path):
        # a 3-row X and 3-value y under 2-row headers used to load as 2x2
        (tmp_path / "X.txt").write_text("2 2\n1 0\n0 1\n1 1\n")
        (tmp_path / "y.txt").write_text("2\n1.0\n2.0\n3.0\n")
        (tmp_path / "meta.txt").write_text("regime over-consistent\n")
        with pytest.raises(ParseError, match=r"X\.txt:4"):
            load_system(tmp_path)


class TestSystemDirectories:
    def test_roundtrip_all_regimes(self, tmp_path):
        for regime, shape in [
            (Regime.OVER_CONSISTENT, (6, 2)),
            (Regime.OVER_INCONSISTENT, (6, 2)),
            (Regime.UNDERDETERMINED, (2, 6)),
        ]:
            spec = GenSpec(m=shape[0], n=shape[1], regime=regime, seed=13)
            sys_ = gen_gaussian(spec)
            target = tmp_path / regime.value
            save_system(sys_, target, spec)
            back = load_system(target)
            assert np.array_equal(back.X.data, sys_.X.data)
            assert np.array_equal(back.y, sys_.y)
            assert np.array_equal(back.reference, sys_.reference)
            assert back.regime is sys_.regime
            assert back.seed == sys_.seed
            if regime is Regime.OVER_INCONSISTENT:
                assert np.array_equal(back.residual_ref, sys_.residual_ref)
            meta = load_meta(target)
            assert meta["kind"] == "gaussian"

    def test_save_twice_byte_identical(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path / "a")
        save_system(sys_, tmp_path / "b")
        for name in ("X.txt", "y.txt", "reference.txt", "meta.txt", SIDECAR):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_y_named(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path / "sys")
        (tmp_path / "sys" / "y.txt").unlink()
        with pytest.raises(ConfigurationError, match="y.txt"):
            load_system(tmp_path / "sys")

    def test_corrupt_reference_fails_invariants(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path / "sys")
        write_vector(tmp_path / "sys" / "reference.txt", np.array([100.0, -100.0]))
        with pytest.raises(ConfigurationError, match="reference"):
            load_system(tmp_path / "sys")

    def test_meta_without_regime(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path / "sys")
        (tmp_path / "sys" / "meta.txt").write_text("seed 3\n")
        with pytest.raises(ParseError, match="regime"):
            load_system(tmp_path / "sys")

    @pytest.mark.parametrize("spec, meta", [
        (GenSpec(m=6, n=2, regime=Regime.OVER_INCONSISTENT, seed=3, noise_scale=0.5),
         "regime over-inconsistent\nseed 3\nkind gaussian\nnoise_scale 0.5\n"),
        (TomoSpec(grid_n=3, oversample=2, seed=4),
         "regime underdetermined\nseed 4\nkind tomography\ngrid_n 3\noversample 2\n"),
    ], ids=["gaussian", "tomography"])
    def test_meta_records_the_generator_and_redraw_follows_it(self, tmp_path, spec, meta):
        generate = gen_gaussian if isinstance(spec, GenSpec) else gen_tomography
        save_system(generate(spec), tmp_path, spec)
        assert (tmp_path / "meta.txt").read_text() == meta
        again = redraw(tmp_path, load_system(tmp_path), 9)
        expected = generate(replace(spec, seed=9))
        assert np.array_equal(again.X.data, expected.X.data)
        assert np.array_equal(again.y, expected.y)
        assert again.seed == expected.seed

    def test_redraw_without_generator_metadata(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        assert (tmp_path / "meta.txt").read_text() == "regime over-consistent\nseed 3\n"
        with pytest.raises(ConfigurationError, match="generator metadata"):
            redraw(tmp_path, sys_, 9)


_sidecar_settings = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# finite float64 values that text and binary must both carry exactly
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, 1e-300]
_entries = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_subnormal=True),
)
# vectors carry no norm cache, so they also reach 1e+300 and the largest float
_vector_entries = st.one_of(
    _entries, st.sampled_from([1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308])
)


@st.composite
def _edge_systems(draw):
    """Over-inconsistent systems built from edge values that pass validation.

    X entries stay within 1e150 (DenseMatrix rejects overflowing squared
    norms). The last row of X is signed zeros and the residual is zero
    elsewhere, so X^T r is exactly zero whatever the residual's last entry.
    An over-inconsistent reference has no identity to meet.
    """
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, m - 1))
    data = draw(st.lists(_entries, min_size=(m - 1) * n, max_size=(m - 1) * n))
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n + m - 1, max_size=n + m - 1))
    X = np.array(data + zeros[:n]).reshape(m, n)
    y = np.array(draw(st.lists(_vector_entries, min_size=m, max_size=m)))
    reference = None
    if draw(st.booleans()):
        reference = np.array(draw(st.lists(_vector_entries, min_size=n, max_size=n)))
    residual = None
    if draw(st.booleans()):
        residual = np.array(zeros[n:] + [draw(_vector_entries)])
    return LinearSystem(DenseMatrix(X), y, Regime.OVER_INCONSISTENT, reference=reference,
                        residual_ref=residual, seed=draw(st.integers(0, 2**64 - 1)))


def _bits(system) -> list:
    arrays = (system.X.data, system.y, system.reference, system.residual_ref)
    return [None if a is None else (a.shape, a.dtype.str, a.tobytes()) for a in arrays]


def _text_parses(monkeypatch) -> list[str]:
    """Record the files load_system parses as text (none when the sidecar hits)."""
    parsed = []
    for name in ("_parse_matrix", "_parse_vector"):
        real = getattr(problems, name)

        def spy(path, text, real=real):
            parsed.append(Path(path).name)
            return real(path, text)

        monkeypatch.setattr(problems, name, spy)
    return parsed


class TestSidecar:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @_sidecar_settings
    @given(_edge_systems())
    def test_sidecar_and_text_load_the_same_bits(self, system):
        with tempfile.TemporaryDirectory() as tmp:
            save_system(system, tmp)
            cached = load_system(tmp)
            (Path(tmp) / SIDECAR).unlink()
            parsed = load_system(tmp)
        assert _bits(cached) == _bits(parsed) == _bits(system)
        assert cached.seed == parsed.seed == system.seed

    def test_fresh_sidecar_skips_the_text_parse(self, tmp_path, monkeypatch):
        sys_ = gen_gaussian(GenSpec(m=6, n=2, regime=Regime.OVER_INCONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        parsed = _text_parses(monkeypatch)
        assert _bits(load_system(tmp_path)) == _bits(sys_)
        assert parsed == []

    @pytest.mark.parametrize("name", ["X.txt", "y.txt", "reference.txt", "residual.txt"])
    def test_rewritten_text_file_wins(self, tmp_path, monkeypatch, name):
        # move one entry by one ulp: the system stays valid, the sidecar goes stale
        sys_ = gen_gaussian(GenSpec(m=6, n=2, regime=Regime.OVER_INCONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        path = tmp_path / name
        if name == "X.txt":
            values = read_matrix(path).data.copy()
            values[0, 0] = np.nextafter(values[0, 0], np.inf)
            write_matrix(path, values)
        else:
            values = read_vector(path)
            values[0] = np.nextafter(values[0], np.inf)
            write_vector(path, values)
        parsed = _text_parses(monkeypatch)
        back = load_system(tmp_path)
        loaded = {"X.txt": back.X.data, "y.txt": back.y, "reference.txt": back.reference,
                  "residual.txt": back.residual_ref}[name]
        assert loaded.tobytes() == values.tobytes()
        assert name in parsed

    def test_bytes_moved_between_files_miss(self, tmp_path):
        # X.txt's last newline moved to the front of y.txt: same concatenation,
        # but y.txt no longer starts with its header
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        x_text = (tmp_path / "X.txt").read_bytes()
        (tmp_path / "X.txt").write_bytes(x_text[:-1])
        (tmp_path / "y.txt").write_bytes(b"\n" + (tmp_path / "y.txt").read_bytes())
        with pytest.raises(ParseError, match=r"y\.txt:1"):
            load_system(tmp_path)

    def test_gen_over_an_inconsistent_system_drops_its_residual(self, tmp_path, monkeypatch):
        argv = ["gen", "--m", "8", "--n", "3", "--seed", "1", "--regime"]
        assert cli.main(argv + ["over-inconsistent", "--out", str(tmp_path / "d")]) == 0
        assert cli.main(argv + ["over-consistent", "--out", str(tmp_path / "d")]) == 0
        assert cli.main(argv + ["over-consistent", "--out", str(tmp_path / "fresh")]) == 0
        assert not (tmp_path / "d" / "residual.txt").exists()
        parsed = _text_parses(monkeypatch)
        back = load_system(tmp_path / "d")
        assert parsed == []  # the second gen's sidecar is a hit
        assert back.regime is Regime.OVER_CONSISTENT
        assert back.residual_ref is None
        assert _bits(back) == _bits(load_system(tmp_path / "fresh"))

    def test_save_without_reference_deletes_the_old_one(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        save_system(replace(sys_, reference=None), tmp_path)
        assert not (tmp_path / "reference.txt").exists()
        assert load_system(tmp_path).reference is None

    def test_deleted_reference_is_not_resurrected(self, tmp_path):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        (tmp_path / "reference.txt").unlink()
        back = load_system(tmp_path)
        assert back.reference is None
        assert back.X.data.tobytes() == sys_.X.data.tobytes()

    @pytest.mark.parametrize("keep", [0.0, 0.5, 0.99])
    def test_truncated_sidecar_falls_back(self, tmp_path, monkeypatch, keep):
        sys_ = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        save_system(sys_, tmp_path)
        blob = (tmp_path / SIDECAR).read_bytes()
        (tmp_path / SIDECAR).write_bytes(blob[: int(keep * len(blob))])
        parsed = _text_parses(monkeypatch)
        assert _bits(load_system(tmp_path)) == _bits(sys_)
        assert parsed == ["X.txt", "y.txt", "reference.txt"]

    def test_sidecar_of_another_system_ignored(self, tmp_path, monkeypatch):
        mine = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=3))
        other = gen_gaussian(GenSpec(m=5, n=2, regime=Regime.OVER_CONSISTENT, seed=4))
        save_system(mine, tmp_path / "mine")
        save_system(other, tmp_path / "other")
        (tmp_path / "mine" / SIDECAR).write_bytes((tmp_path / "other" / SIDECAR).read_bytes())
        parsed = _text_parses(monkeypatch)
        assert _bits(load_system(tmp_path / "mine")) == _bits(mine)
        assert parsed == ["X.txt", "y.txt", "reference.txt"]
