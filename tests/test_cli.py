import numpy as np
import pytest

from factorkit import DenseMatrix, render_matrix, save_matrix, vector
from factorkit.cli import cli_main

from conftest import GOLD_A, GOLD_B1, GOLD_B2, LEGACY_GOLD_FACTOR_FILE


@pytest.fixture
def files(tmp_path):
    paths = {
        "a": tmp_path / "a.mat",
        "b1": tmp_path / "b1.mat",
        "b2": tmp_path / "b2.mat",
        "both": tmp_path / "both.mat",
        "zp": tmp_path / "zp.mat",
        "skew": tmp_path / "skew.mat",
        "rect": tmp_path / "rect.mat",
        "fact": tmp_path / "a.fact",
    }
    save_matrix(paths["a"], DenseMatrix(GOLD_A))
    save_matrix(paths["b1"], vector(GOLD_B1))
    save_matrix(paths["b2"], vector(GOLD_B2))
    save_matrix(paths["both"], DenseMatrix(np.array([GOLD_B1, GOLD_B2], dtype=float).T))
    save_matrix(paths["zp"], DenseMatrix([[0, 1], [1, 0]]))
    save_matrix(paths["skew"], DenseMatrix([[1, 2], [3, 4]]))
    save_matrix(paths["rect"], DenseMatrix([[1, 2, 3], [4, 5, 6]]))
    return paths


def run(capsys, *argv):
    code = cli_main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_session_solve_prints_legible_solution(self, capsys, files):
        code, out, err = run(
            capsys, "solve", "--matrix", files["a"], "--rhs", files["b2"], "--method", "gauss-cholesky"
        )
        assert code == 0
        lines = out.splitlines()
        assert "3.75 1.75 -0.5 1" in lines
        assert lines[0] == "method gauss-cholesky"
        assert any(line.startswith("residual ") for line in lines)
        assert "flops first 72" in lines

    def test_multi_rhs_session(self, capsys, files):
        code, out, _ = run(capsys, "solve", "--matrix", files["a"], "--rhs", files["both"])
        assert code == 0
        lines = out.splitlines()
        assert "3 1 -2 1" in lines
        assert "3.75 1.75 -0.5 1" in lines
        assert "flops reuse-per-rhs 32" in lines
        assert "flops total 104" in lines

    def test_byte_identical_reruns(self, capsys, files):
        first = run(capsys, "solve", "--matrix", files["a"], "--rhs", files["both"])
        second = run(capsys, "solve", "--matrix", files["a"], "--rhs", files["both"])
        assert first == second

    def test_gauss_cholesky_on_skew_is_numerical_failure(self, capsys, files):
        code, _, err = run(
            capsys, "solve", "--matrix", files["skew"], "--rhs", files["b1"], "--method", "gauss-cholesky"
        )
        assert code == 2
        assert "symmetric" in err

    def test_zero_pivot_exit_code(self, capsys, files, tmp_path):
        rhs = tmp_path / "r2.mat"
        save_matrix(rhs, vector([1, 2]))
        code, _, err = run(capsys, "solve", "--matrix", files["zp"], "--rhs", rhs)
        assert code == 2
        assert "column 1" in err

    def test_requires_factor_or_matrix(self, capsys, files):
        code, _, err = run(capsys, "solve", "--rhs", files["b1"])
        assert code == 1
        assert "error" in err

    def test_digits_override(self, capsys, files):
        code, out, _ = run(
            capsys, "solve", "--matrix", files["a"], "--rhs", files["b2"], "--digits", "2"
        )
        assert code == 0
        assert "3.8 1.8 -0.5 1" in out.splitlines()


class TestFactorThenSolve:
    def test_factor_reports_pivots_and_writes_file(self, capsys, files):
        code, out, _ = run(
            capsys, "factor", "--input", files["a"], "--method", "gauss-cholesky", "--output", files["fact"]
        )
        assert code == 0
        lines = out.splitlines()
        assert "kind gauss-cholesky" in lines
        assert "pivots 1 4 4 1" in lines
        assert "reconstruction-error 0" in lines
        assert files["fact"].exists()
        # the persisted G matches the hand-worked factor
        body = files["fact"].read_text()
        assert "1.0 -1.0 0.0 1.0" in body
        assert "0.0 2.0 1.0 -1.0" in body

    def test_solve_from_factor_file(self, capsys, files):
        run(capsys, "factor", "--input", files["a"], "--output", files["fact"])
        code, out, _ = run(capsys, "solve", "--factor", files["fact"], "--rhs", files["b2"])
        assert code == 0
        assert "3.75 1.75 -0.5 1" in out.splitlines()
        assert "residual" not in out  # needs --matrix

    def test_residual_requires_matrix(self, capsys, files):
        run(capsys, "factor", "--input", files["a"], "--output", files["fact"])
        code, out, _ = run(
            capsys, "solve", "--factor", files["fact"], "--rhs", files["b2"], "--matrix", files["a"]
        )
        assert code == 0
        assert "residual 0" in out.splitlines()

    def test_stale_factor_rejected_without_force(self, capsys, files, tmp_path):
        run(capsys, "factor", "--input", files["a"], "--output", files["fact"])
        edited = tmp_path / "edited.mat"
        bumped = [row[:] for row in GOLD_A]
        bumped[0][0] = 2
        save_matrix(edited, DenseMatrix(bumped))
        code, _, err = run(
            capsys, "solve", "--factor", files["fact"], "--rhs", files["b2"], "--matrix", edited
        )
        assert code == 1
        assert "hash" in err

        code, out, _ = run(
            capsys,
            "solve", "--factor", files["fact"], "--rhs", files["b2"], "--matrix", edited, "--force",
        )
        assert code == 0
        assert "3.75 1.75 -0.5 1" in out.splitlines()

    def test_legacy_factor_file_still_verifies(self, capsys, files, tmp_path):
        legacy = tmp_path / "legacy.fact"
        legacy.write_text(LEGACY_GOLD_FACTOR_FILE)
        code, out, _ = run(capsys, "solve", "--factor", legacy, "--rhs", files["b2"], "--matrix", files["a"])
        assert code == 0
        assert "3.75 1.75 -0.5 1" in out.splitlines()

        edited = tmp_path / "edited.mat"
        bumped = [row[:] for row in GOLD_A]
        bumped[0][0] = 2
        save_matrix(edited, DenseMatrix(bumped))
        code, _, err = run(capsys, "solve", "--factor", legacy, "--rhs", files["b2"], "--matrix", edited)
        assert code == 1
        assert "bf0aa662f48bfcf5" in err

    def test_factor_zero_pivot_exit(self, capsys, files, tmp_path):
        code, _, err = run(
            capsys, "factor", "--input", files["zp"], "--output", tmp_path / "zp.fact"
        )
        assert code == 2
        assert "column 1" in err


class TestCheck:
    def test_healthy_symmetric_matrix(self, capsys, files):
        code, out, _ = run(capsys, "check", "--input", files["a"])
        assert code == 0
        lines = out.splitlines()
        assert "square true" in lines
        assert any(line.startswith("symmetric true") for line in lines)
        assert "pivots 1 4 4 1" in lines

    def test_zero_pivot_reported_with_failing_column(self, capsys, files):
        code, out, _ = run(capsys, "check", "--input", files["zp"])
        assert code == 2
        assert "column 1" in out

    def test_non_square_reported(self, capsys, files):
        code, out, _ = run(capsys, "check", "--input", files["rect"])
        assert code == 2
        assert "square false" in out.splitlines()


class TestBench:
    def test_bench_table_and_determinism(self, capsys):
        first = run(capsys, "bench", "--n", 20, "--rhs-count", 4, "--seed", 7)
        second = run(capsys, "bench", "--n", 20, "--rhs-count", 4, "--seed", 7)
        assert first == second
        code, out, _ = first
        assert code == 0
        assert out.startswith("bench n=20 rhs=4 seed=7 method=gauss-cholesky")
        assert "flop ratio" in out

    def test_bench_bad_size(self, capsys):
        code, _, err = run(capsys, "bench", "--n", 0)
        assert code == 1
        assert "n >= 1" in err


class TestErrorsAndUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_argument(self, capsys):
        code, _, _ = run(capsys, "factor", "--input", "x.mat")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--input", tmp_path / "absent.mat")
        assert code == 1
        assert "error" in err

    def test_malformed_file_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("matrix 2 2 real\n1 2\n3 oops\n")
        code, _, err = run(capsys, "check", "--input", bad)
        assert code == 1
        assert "line 3" in err

    def test_env_tolerance_override(self, capsys, files, monkeypatch, tmp_path):
        # a slightly perturbed symmetric matrix: rejected at the default
        # tolerance, accepted when FACTORKIT_TOL is loosened
        near = [row[:] for row in GOLD_A]
        near[1][0] = -1 + 1e-6
        near_path = tmp_path / "near.mat"
        save_matrix(near_path, DenseMatrix(near))
        code, _, _ = run(
            capsys, "solve", "--matrix", near_path, "--rhs", files["b1"], "--method", "gauss-cholesky"
        )
        assert code == 2
        monkeypatch.setenv("FACTORKIT_TOL", "1e-3")
        code, _, _ = run(
            capsys, "solve", "--matrix", near_path, "--rhs", files["b1"], "--method", "gauss-cholesky"
        )
        assert code == 0

    def test_env_tolerance_must_be_numeric(self, capsys, files, monkeypatch):
        monkeypatch.setenv("FACTORKIT_TOL", "banana")
        code, _, err = run(capsys, "check", "--input", files["a"])
        assert code == 1
        assert "FACTORKIT_TOL" in err

    def test_mutated_inputs_never_crash_the_cli(self, capsys, files, tmp_path):
        rng = np.random.default_rng(40)
        alphabet = "0123456789.,-e# \nmatrix"
        base = render_matrix(DenseMatrix(GOLD_A))
        target = tmp_path / "fuzz.mat"
        for _ in range(60):
            chars = list(base)
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(0, len(chars)))
                chars[pos] = alphabet[int(rng.integers(0, len(alphabet)))]
            target.write_text("".join(chars))
            code = cli_main(["check", "--input", str(target)])
            assert code in (0, 1, 2)
        capsys.readouterr()
