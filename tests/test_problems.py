"""Problem generators and system directory serialization."""
from __future__ import annotations

import numpy as np
import pytest

from kaczgs.errors import ConfigurationError, ParseError
from kaczgs.linalg import Regime
from kaczgs.problems import (
    GenSpec,
    TomoSpec,
    gen_gaussian,
    gen_tomography,
    load_meta,
    load_system,
    read_matrix,
    read_vector,
    save_system,
    write_matrix,
    write_vector,
)
from kaczgs.sampling import Prng
from kaczgs.solvers import SolveConfig, SolverKind, run


def _replay_drawn_beta(system, m, n):
    """Re-derive the generator's drawn beta by replaying the documented draw order."""
    rng = Prng(system.seed)
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


class TestSystemDirectories:
    def test_roundtrip_all_regimes(self, tmp_path):
        for regime, shape in [
            (Regime.OVER_CONSISTENT, (6, 2)),
            (Regime.OVER_INCONSISTENT, (6, 2)),
            (Regime.UNDERDETERMINED, (2, 6)),
        ]:
            sys_ = gen_gaussian(GenSpec(m=shape[0], n=shape[1], regime=regime, seed=13))
            target = tmp_path / regime.value
            save_system(sys_, target, extra_meta={"kind": "gaussian", "noise_scale": 1.0})
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
        for name in ("X.txt", "y.txt", "reference.txt", "meta.txt"):
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
