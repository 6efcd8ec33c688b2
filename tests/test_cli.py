import numpy as np
import pytest

from factorkit import DenseMatrix, render_matrix, save_matrix, vector
from factorkit.cli import cli_main

from conftest import (
    GOLD_A,
    GOLD_B1,
    GOLD_B2,
    LEGACY_GOLD_FACTOR_FILE,
    NEAR_SINGULAR_A,
    ULP_ABOVE_THRESHOLD_A,
    ZERO_PIVOT_A,
)


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

    @pytest.mark.parametrize("method, name", [("lu", "u"), ("gauss-cholesky", "g")])
    def test_sign_flipped_divisor_is_named(self, capsys, files, method, name):
        run(capsys, "factor", "--input", files["a"], "--method", method, "--output", files["fact"])
        lines = files["fact"].read_text().splitlines()
        last_row = lines.index("provenance") - 1  # u_44 or g_44 ends it
        assert lines[last_row] == "0.0 0.0 0.0 1.0"
        lines[last_row] = "0.0 0.0 0.0 -1.0"
        files["fact"].write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "solve", "--factor", files["fact"], "--rhs", files["b1"])
        assert (code, out) == (1, "")
        assert err == (
            "error: line 1: expected a consistent factorization "
            f"(factor {name} has a diagonal that is not the recorded pivots' own)\n"
        )

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


    def test_factor_non_square_is_a_usage_error(self, capsys, files, tmp_path):
        for method in ("auto", "lu", "gauss-cholesky"):
            code, _, err = run(
                capsys, "factor", "--input", files["rect"], "--method", method, "--output", tmp_path / "r.fact"
            )
            assert code == 1
            assert "expected a square matrix" in err

    def test_factor_gauss_cholesky_on_skew_is_numerical_failure(self, capsys, files, tmp_path):
        code, _, err = run(
            capsys, "factor", "--input", files["skew"], "--method", "gauss-cholesky", "--output", tmp_path / "s.fact"
        )
        assert code == 2
        assert "symmetric" in err


METHODS = ("lu", "gauss-cholesky", "auto")


@pytest.fixture
def probe(tmp_path):
    paths = {"near": tmp_path / "near.mat", "zero": tmp_path / "zero.mat", "b": tmp_path / "b.mat"}
    save_matrix(paths["near"], DenseMatrix(NEAR_SINGULAR_A))
    save_matrix(paths["zero"], DenseMatrix(ZERO_PIVOT_A))
    save_matrix(paths["b"], vector([1, 2]))
    return paths


class TestOnePivotVerdict:
    """Every command judges a pivot as the elimination does."""

    def test_near_singular_pivot_accepted_everywhere(self, capsys, probe, tmp_path):
        assert run(capsys, "check", "--input", probe["near"])[0] == 0
        for method in METHODS:
            fact = tmp_path / f"{method}.fact"
            code, out, err = run(capsys, "factor", "--input", probe["near"], "--method", method, "--output", fact)
            assert (code, err) == (0, "")
            assert "pivots 1e-08 -99999999" in out.splitlines()
            code, out, err = run(capsys, "solve", "--factor", fact, "--matrix", probe["near"], "--rhs", probe["b"])
            assert (code, err) == (0, "")
            # session solves answer, and warn that the residual exceeds 1e-10
            with pytest.warns(RuntimeWarning, match="exceeds session tolerance"):
                code, out, err = run(
                    capsys, "solve", "--matrix", probe["near"], "--rhs", probe["b"], "--method", method
                )
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == ("method lu" if method == "lu" else "method gauss-cholesky")
            x = [float(v) for v in lines[1].split()]
            assert np.allclose(x, [1.0, 1.0], rtol=0, atol=1e-7)  # exact: (1, 1 - 2e-8) / (1 - 1e-8)

    def test_pivot_one_ulp_above_the_threshold_accepted_everywhere(self, capsys, probe, tmp_path):
        ulp = tmp_path / "ulp.mat"
        save_matrix(ulp, DenseMatrix(ULP_ABOVE_THRESHOLD_A))
        code, out, _ = run(capsys, "check", "--input", ulp)
        assert code == 0
        assert "pivots 5.825701929797969e-16 -2953981819223657.5" in out.splitlines()
        for method in METHODS:
            fact = tmp_path / f"{method}.fact"
            code, _, err = run(capsys, "factor", "--input", ulp, "--method", method, "--output", fact)
            assert (code, err) == (0, "")
            code, _, err = run(capsys, "solve", "--factor", fact, "--matrix", ulp, "--rhs", probe["b"])
            assert (code, err) == (0, "")
            with pytest.warns(RuntimeWarning, match="exceeds session tolerance"):
                code, out, _ = run(capsys, "solve", "--matrix", ulp, "--rhs", probe["b"], "--method", method)
            assert code == 0
            assert out.splitlines()[0] == ("method lu" if method == "lu" else "method gauss-cholesky")

    def test_zero_pivot_rejected_everywhere_in_column_1(self, capsys, probe, tmp_path):
        code, out, _ = run(capsys, "check", "--input", probe["zero"])
        assert code == 2
        assert "zero pivot in column 1" in out
        for method in METHODS:
            fact = tmp_path / f"{method}.fact"
            code, _, err = run(capsys, "factor", "--input", probe["zero"], "--method", method, "--output", fact)
            assert code == 2
            assert "zero pivot in column 1" in err
            assert not fact.exists()
            code, _, err = run(capsys, "solve", "--matrix", probe["zero"], "--rhs", probe["b"], "--method", method)
            assert code == 2
            assert "zero pivot in column 1" in err

    def test_factor_file_threshold_above_a_pivot_is_malformed_input(self, capsys, files):
        run(capsys, "factor", "--input", files["a"], "--output", files["fact"])
        text = files["fact"].read_text()
        files["fact"].write_text(text.replace("pivot-threshold 4.440892098500626e-15", "pivot-threshold 1.0"))
        code, _, err = run(capsys, "solve", "--factor", files["fact"], "--rhs", files["b2"])
        assert code == 1
        assert "consistent factorization" in err


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

    @pytest.mark.parametrize("raw", ["nan", "inf", "-1"])
    def test_env_tolerance_must_be_finite_and_non_negative(self, capsys, files, monkeypatch, raw):
        monkeypatch.setenv("FACTORKIT_TOL", raw)
        for argv in (("check", "--input", files["a"]), ("solve", "--matrix", files["a"], "--rhs", files["b1"])):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert "FACTORKIT_TOL must be a finite non-negative number" in err

    def test_env_tolerance_zero_is_exact(self, capsys, files, monkeypatch):
        monkeypatch.setenv("FACTORKIT_TOL", "0")
        code, out, _ = run(capsys, "check", "--input", files["a"])
        assert code == 0
        assert "symmetric true (max deviation 0 at (1,1))" in out

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


# The complete stdout and exit code of each call, run in order in one
# directory. Every printed value of these inputs is exact, so the bytes do
# not depend on the BLAS build: a change here is a change of output format.
PINNED_CALLS = [
    ("check --input a.mat", 0, (
        "rows 4\n"
        "cols 4\n"
        "square true\n"
        "symmetric true (max deviation 0 at (1,1))\n"
        "pivots 1 4 4 1\n"
    )),
    ("factor --input a.mat --method lu --output a.lu.fact", 0, (
        "kind lu\n"
        "n 4\n"
        "pivots 1 4 4 1\n"
        "reconstruction-error 0\n"
        "wrote a.lu.fact\n"
    )),
    ("factor --input a.mat --method gauss-cholesky --output a.gauss-cholesky.fact", 0, (
        "kind gauss-cholesky\n"
        "n 4\n"
        "pivots 1 4 4 1\n"
        "reconstruction-error 0\n"
        "wrote a.gauss-cholesky.fact\n"
    )),
    ("factor --input a.mat --method auto --output a.auto.fact", 0, (
        "kind gauss-cholesky\n"
        "n 4\n"
        "pivots 1 4 4 1\n"
        "reconstruction-error 0\n"
        "wrote a.auto.fact\n"
    )),
    ("solve --factor a.lu.fact --rhs b.mat", 0, (
        "method lu\n"
        "3 1 -2 1\n"
        "3.75 1.75 -0.5 1\n"
    )),
    ("solve --factor a.gauss-cholesky.fact --matrix a.mat --rhs b.mat", 0, (
        "method gauss-cholesky\n"
        "3 1 -2 1\n"
        "residual 0\n"
        "3.75 1.75 -0.5 1\n"
        "residual 0\n"
    )),
    ("solve --matrix a.mat --rhs b.mat --method lu", 0, (
        "method lu\n"
        "3 1 -2 1\n"
        "residual 0\n"
        "3.75 1.75 -0.5 1\n"
        "residual 0\n"
        "flops first 62\n"
        "flops reuse-per-rhs 28\n"
        "flops total 90\n"
    )),
    ("solve --matrix a.mat --rhs b.mat --method lu --digits 2", 0, (
        "method lu\n"
        "3 1 -2 1\n"
        "residual 0\n"
        "3.8 1.8 -0.5 1\n"
        "residual 0\n"
        "flops first 62\n"
        "flops reuse-per-rhs 28\n"
        "flops total 90\n"
    )),
    ("solve --matrix a.mat --rhs b.mat --method gauss-cholesky", 0, (
        "method gauss-cholesky\n"
        "3 1 -2 1\n"
        "residual 0\n"
        "3.75 1.75 -0.5 1\n"
        "residual 0\n"
        "flops first 72\n"
        "flops reuse-per-rhs 32\n"
        "flops total 104\n"
    )),
    ("solve --matrix a.mat --rhs b.mat --method gauss-cholesky --digits 2", 0, (
        "method gauss-cholesky\n"
        "3 1 -2 1\n"
        "residual 0\n"
        "3.8 1.8 -0.5 1\n"
        "residual 0\n"
        "flops first 72\n"
        "flops reuse-per-rhs 32\n"
        "flops total 104\n"
    )),
    ("solve --matrix a.mat --rhs b.mat --method auto", 0, (
        "method gauss-cholesky\n"
        "3 1 -2 1\n"
        "residual 0\n"
        "3.75 1.75 -0.5 1\n"
        "residual 0\n"
        "flops first 72\n"
        "flops reuse-per-rhs 32\n"
        "flops total 104\n"
    )),
    ("solve --matrix a.mat --rhs b.mat --method auto --digits 2", 0, (
        "method gauss-cholesky\n"
        "3 1 -2 1\n"
        "residual 0\n"
        "3.8 1.8 -0.5 1\n"
        "residual 0\n"
        "flops first 72\n"
        "flops reuse-per-rhs 32\n"
        "flops total 104\n"
    )),
    ("check --input swap.mat", 2, (
        "rows 2\n"
        "cols 2\n"
        "square true\n"
        "symmetric true (max deviation 0 at (1,1))\n"
        "elimination fails in column 1: zero pivot in column 1: |pivot| = 0.000000e+00 <= threshold 4.440892e-16\n"
    )),
    ("factor --input swap.mat --method lu --output swap.fact", 2, (
        ""
    )),
    ("factor --input swap.mat --method gauss-cholesky --output swap.fact", 2, (
        ""
    )),
    ("factor --input swap.mat --method auto --output swap.fact", 2, (
        ""
    )),
    ("solve --matrix swap.mat --rhs b2.mat --method lu", 2, (
        "method lu\n"
    )),
    ("solve --matrix swap.mat --rhs b2.mat --method lu --digits 2", 2, (
        "method lu\n"
    )),
    ("solve --matrix swap.mat --rhs b2.mat --method gauss-cholesky", 2, (
        "method gauss-cholesky\n"
    )),
    ("solve --matrix swap.mat --rhs b2.mat --method gauss-cholesky --digits 2", 2, (
        "method gauss-cholesky\n"
    )),
    ("solve --matrix swap.mat --rhs b2.mat --method auto", 2, (
        "method gauss-cholesky\n"
    )),
    ("solve --matrix swap.mat --rhs b2.mat --method auto --digits 2", 2, (
        "method gauss-cholesky\n"
    )),
    ("bench --n 20 --rhs-count 4 --seed 7", 0, (
        "bench n=20 rhs=4 seed=7 method=gauss-cholesky\n"
        "factor flops                          5340\n"
        "solve flops per rhs                    800\n"
        "factor+solve total                    8540\n"
        "elimination flops per rhs             5910\n"
        "elimination total                    23640\n"
        "flop ratio                          0.3613\n"
    )),
]


class TestPinnedStdout:
    def test_calls_print_exactly_the_pinned_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_matrix("a.mat", DenseMatrix(GOLD_A))
        save_matrix("b.mat", DenseMatrix(np.array([GOLD_B1, GOLD_B2], dtype=float).T))
        save_matrix("swap.mat", DenseMatrix([[0, 1], [1, 0]]))
        save_matrix("b2.mat", vector([1, 2]))
        for argv, code, out in PINNED_CALLS:
            assert run(capsys, *argv.split())[:2] == (code, out), argv
