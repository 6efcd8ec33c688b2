import importlib
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import factorkit
from factorkit import (
    DenseMatrix,
    gauss_eliminate,
    load_factorization,
    load_matrix,
    render_matrix,
    save_matrix,
    solve,
    vector,
)
from factorkit.cli import cli_main

from conftest import (
    BACK_OVERFLOW_MESSAGE,
    FORWARD_OVERFLOW_MESSAGE,
    GOLD_A,
    GOLD_B1,
    GOLD_B2,
    INDEFINITE_A,
    INDEFINITE_B,
    LARGEST_DOUBLE_A,
    LEGACY_GOLD_FACTOR_FILE,
    NEAR_SINGULAR_A,
    OVERFLOW_A,
    OVERFLOW_MESSAGE,
    SIDE_OVERFLOW_A,
    SIDE_OVERFLOW_B,
    SIDE_OVERFLOW_MESSAGE,
    SUBSTITUTION_OVERFLOW_A,
    SUBSTITUTION_OVERFLOW_B,
    TINY_ASYMMETRIC_A,
    TINY_ASYMMETRIC_B,
    TINY_ASYMMETRIC_MESSAGE,
    ULP_ABOVE_THRESHOLD_A,
    ZERO_PIVOT_A,
)
from oracles import eta, random_spd


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

    def test_solve_from_factor_file_forms_no_product(self, capsys, files, product_calls):
        run(capsys, "factor", "--input", files["a"], "--output", files["fact"])
        assert len(product_calls) == 1  # verify's, from scaled factors
        for extra in ([], ["--matrix", files["a"]]):
            assert run(capsys, "solve", "--factor", files["fact"], "--rhs", files["both"], *extra)[0] == 0
        assert len(product_calls) == 1
        f = load_factorization(files["fact"])
        for b in (GOLD_B1, GOLD_B2):  # the library's solve() measures against the product, formed once
            solve(f, vector(b))
        assert product_calls[1:] == [(f,)]

    def test_factor_file_with_byte_order_mark_loads(self, capsys, files):
        run(capsys, "factor", "--input", files["a"], "--output", files["fact"])
        want = run(capsys, "solve", "--factor", files["fact"], "--rhs", files["b2"], "--matrix", files["a"])
        files["fact"].write_bytes(b"\xef\xbb\xbf" + files["fact"].read_bytes())
        assert run(capsys, "solve", "--factor", files["fact"], "--rhs", files["b2"], "--matrix", files["a"]) == want
        assert want[0] == 0

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

    def test_forced_matrix_of_the_wrong_size_fails_before_output(self, capsys, files, tmp_path):
        two, side = tmp_path / "two.fact", tmp_path / "side.mat"
        run(capsys, "factor", "--input", files["skew"], "--output", two)
        save_matrix(side, vector([1, 2]))
        code, out, err = run(capsys, "solve", "--factor", two, "--rhs", side, "--matrix", files["a"], "--force")
        assert (code, out) == (1, "")
        assert err == "error: matrix is 4x4, factorization is for n = 2\n"

    @pytest.mark.parametrize("method", ["lu", "gauss-cholesky"])
    def test_unwritable_output_fails_before_output(self, capsys, files, tmp_path, method):
        missing = tmp_path / "missing" / "a.fact"
        code, out, err = run(capsys, "factor", "--input", files["a"], "--method", method, "--output", missing)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not missing.parent.exists()

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

    def test_real_indefinite_answers_print_as_reals(self, capsys, tmp_path):
        # G is complex (pivot -3), yet no solve path prints an answer as re,im.
        a, b, fact = tmp_path / "a.mat", tmp_path / "b.mat", tmp_path / "a.fact"
        save_matrix(a, DenseMatrix(INDEFINITE_A))
        save_matrix(b, DenseMatrix(INDEFINITE_B))
        assert run(capsys, "factor", "--input", a, "--output", fact)[0] == 0
        assert load_factorization(fact).g.is_complex
        for argv in (["--factor", fact], ["--factor", fact, "--matrix", a], ["--matrix", a]):
            code, out, err = run(capsys, "solve", *argv, "--rhs", b)
            assert (code, err) == (0, "")
            lines = out.splitlines()
            assert lines[0] == "method gauss-cholesky"
            answers = [line for line in lines[1:] if not line.startswith(("residual ", "flops "))]
            assert len(answers) == 2 and answers[1] == "1 0 0"
            assert not any("," in line for line in answers)


METHODS = ("lu", "gauss-cholesky", "auto")
# What session solve prints on stderr when a residual exceeds the default tolerance.
RESIDUAL_WARNING = re.compile(r"warning: solve residual \d\.\d{3}e-\d\d exceeds session tolerance 1\.000e-10\n")


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
            # session solves answer, and warn on stderr that the residual exceeds 1e-10
            code, out, err = run(capsys, "solve", "--matrix", probe["near"], "--rhs", probe["b"], "--method", method)
            assert code == 0
            assert RESIDUAL_WARNING.fullmatch(err)
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
            code, out, err = run(capsys, "solve", "--matrix", ulp, "--rhs", probe["b"], "--method", method)
            assert code == 0
            assert RESIDUAL_WARNING.fullmatch(err)
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


class TestOverflowingElimination:
    """An elimination that overflows fails at its non-finite pivot on every path."""

    def test_fails_in_column_2_everywhere(self, capsys, probe, tmp_path):
        path = tmp_path / "overflow.mat"
        path.write_text("matrix 2 2 real\n1e286 1e300\n1e300 1\n")
        code, out, err = run(capsys, "check", "--input", path)
        assert (code, err) == (2, "")
        assert out.splitlines()[-1] == f"elimination fails in column 2: {OVERFLOW_MESSAGE}"
        for method in METHODS:
            fact = tmp_path / f"{method}.fact"
            code, out, err = run(capsys, "factor", "--input", path, "--method", method, "--output", fact)
            assert (code, out, err) == (2, "", f"error: {OVERFLOW_MESSAGE}\n")
            assert not fact.exists()
            code, out, err = run(capsys, "solve", "--matrix", path, "--rhs", probe["b"], "--method", method)
            assert (code, err) == (2, f"error: {OVERFLOW_MESSAGE}\n")
            assert out.splitlines() == ["method lu" if method == "lu" else "method gauss-cholesky"]


class TestRelativeSymmetry:
    """A matrix far below 1 in magnitude is judged symmetric relative to its own
    largest entry on every path, so its asymmetry is never factored as G^T G."""

    def test_check_scans_the_matrix_once(self, capsys, files, symmetry_scans):
        assert run(capsys, "check", "--input", files["skew"]) == (0, (
            "rows 2\ncols 2\nsquare true\n"
            "symmetric false (max deviation 1 at (1,2))\n"
            "pivots 1 -2\n"
        ), "")
        assert len(symmetry_scans) == 1

    def test_tiny_asymmetric_matrix_is_solved_by_lu_everywhere(self, capsys, tmp_path):
        a, b, fact = tmp_path / "a.mat", tmp_path / "b.mat", tmp_path / "a.fact"
        save_matrix(a, DenseMatrix(TINY_ASYMMETRIC_A))
        save_matrix(b, DenseMatrix(TINY_ASYMMETRIC_B))
        assert run(capsys, "check", "--input", a) == (0, (
            "rows 2\ncols 2\nsquare true\n"
            "symmetric false (max deviation 1e-13 at (1,2))\n"
            "pivots 2e-13 2e-13\n"
        ), "")
        for method in ("lu", "auto"):
            assert run(capsys, "factor", "--input", a, "--method", method, "--output", fact) == (0, (
                "kind lu\nn 2\npivots 2e-13 2e-13\nreconstruction-error 0\n"
                f"wrote {fact}\n"
            ), "")
            assert run(capsys, "solve", "--factor", fact, "--rhs", b) == (0, "method lu\n0.25 0.5\n0.25 0.5\n", "")
            assert run(capsys, "solve", "--factor", fact, "--rhs", b, "--matrix", a) == (
                0, "method lu\n0.25 0.5\nresidual 0\n0.25 0.5\nresidual 0\n", ""
            )
            assert run(capsys, "solve", "--matrix", a, "--rhs", b, "--method", method) == (0, (
                "method lu\n0.25 0.5\nresidual 0\n0.25 0.5\nresidual 0\n"
                "flops first 9\nflops reuse-per-rhs 6\nflops total 15\n"
            ), "")
        fact.unlink()
        refused = (2, "", f"error: {TINY_ASYMMETRIC_MESSAGE}\n")
        assert run(capsys, "factor", "--input", a, "--method", "gauss-cholesky", "--output", fact) == refused
        assert not fact.exists()
        assert run(capsys, "solve", "--matrix", a, "--rhs", b, "--method", "gauss-cholesky") == refused


def _failure_paths():
    # (id, kind, steps): a path is the commands a user runs, in order, until
    # one fails; solve --factor reads the file that factor writes.
    yield "check", "check", [["check", "--input", "{a}"]]
    for m in METHODS:
        factor = ["factor", "--input", "{a}", "--method", m, "--output", "{f}"]
        yield f"factor-{m}", "factor", [factor]
        yield f"solve-factor-{m}", "solve-factor", [factor, ["solve", "--factor", "{f}", "--rhs", "{b}"]]
        yield (f"solve-factor-{m}-matrix", "solve-factor",
               [factor, ["solve", "--factor", "{f}", "--rhs", "{b}", "--matrix", "{a}"]])
        yield f"session-{m}", "session", [["solve", "--matrix", "{a}", "--rhs", "{b}", "--method", m]]


_PATH_KINDS = ("check", "factor", "solve-factor", "session")

# Well-conditioned matrices whose entries are near 1e200, 1e160 and 1e-160:
# the squares in a Frobenius norm of them overflow or underflow.
MAGNITUDES = (1e200, 1e160, 1e-160)


def _scaled_spd(scale):
    """(M^T M + 5 I) * scale for one fixed 5x5 M."""
    m = np.random.default_rng(3).standard_normal((5, 5))
    return (m.T @ m + 5 * np.eye(5)) * scale


# fault: (matrix, side, {path kind: (exit code, message or None)})
FAULTS = {
    "overflowing-pivot": (OVERFLOW_A, [1, 1], dict.fromkeys(_PATH_KINDS, (2, OVERFLOW_MESSAGE))),
    "zero-pivot": (ZERO_PIVOT_A, [1, 1], dict.fromkeys(_PATH_KINDS, (2, "zero pivot in column 1"))),
    "overflowing-side": (SIDE_OVERFLOW_A, SIDE_OVERFLOW_B, {
        "check": (0, None), "factor": (0, None),
        "solve-factor": (2, FORWARD_OVERFLOW_MESSAGE), "session": (2, SIDE_OVERFLOW_MESSAGE),
    }),
    "overflowing-substitution": (SUBSTITUTION_OVERFLOW_A, SUBSTITUTION_OVERFLOW_B, {
        "check": (0, None), "factor": (0, None),
        "solve-factor": (2, BACK_OVERFLOW_MESSAGE), "session": (2, BACK_OVERFLOW_MESSAGE),
    }),
    "malformed-token": ("matrix 2 2 real\n1 x\n1 1\n", [1, 1], dict.fromkeys(_PATH_KINDS, (1, "line 2"))),
    **{f"magnitude-{s:g}": (_scaled_spd(s), [1] * 5, dict.fromkeys(_PATH_KINDS, (0, None))) for s in MAGNITUDES},
}


class TestFailureTable:
    """Every CLI path against every fault: the documented exit code, one
    diagnostic line, no traceback and no numpy warning."""

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("kind, steps", [pytest.param(*p[1:], id=p[0]) for p in _failure_paths()])
    def test_path_against_fault(self, capsys, tmp_path, kind, steps, fault):
        entries, side, expected = FAULTS[fault]
        files = {"a": tmp_path / "a.mat", "b": tmp_path / "b.mat", "f": tmp_path / "a.fact"}
        if isinstance(entries, str):
            files["a"].write_text(entries)
        else:
            save_matrix(files["a"], DenseMatrix(entries))
        save_matrix(files["b"], vector(side))
        out = err = ""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for step in steps:
                code, step_out, step_err = run(capsys, *(arg.format(**files) for arg in step))
                out, err = out + step_out, err + step_err
                if code:
                    break
        want_code, message = expected[kind]
        assert code == want_code
        assert [str(w.message) for w in caught] == []
        assert "Traceback" not in out + err
        if want_code == 0:
            assert err == ""
        elif kind == "check" and want_code == 2:
            # check reports a failed elimination as its finding, on stdout
            assert err == ""
            verdicts = [line for line in out.splitlines() if line.startswith("elimination fails in column")]
            assert len(verdicts) == 1 and message in verdicts[0]
        else:
            assert len(err.splitlines()) == 1
            assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("scale", MAGNITUDES)
    @pytest.mark.parametrize("method", ["lu", "gauss-cholesky"])
    def test_factor_measures_any_magnitude(self, capsys, tmp_path, method, scale):
        a, fact = tmp_path / "a.mat", tmp_path / "a.fact"
        save_matrix(a, DenseMatrix(_scaled_spd(scale)))
        code, out, err = run(capsys, "factor", "--input", a, "--method", method, "--output", fact)
        assert (code, err) == (0, "")
        (line,) = [line for line in out.splitlines() if line.startswith("reconstruction-error ")]
        error = float(line.split()[1])
        # 0 only where the product is exact, as LU's is at 1e160
        exact = np.array_equal(load_factorization(fact).rebuild().data, load_matrix(a).data)
        assert error == 0.0 if exact else 0.0 < error <= 1e-14

    @pytest.mark.parametrize("method", METHODS)
    def test_factor_measures_a_matrix_at_the_largest_double(self, capsys, tmp_path, method):
        a, b, fact = tmp_path / "a.mat", tmp_path / "b.mat", tmp_path / "a.fact"
        save_matrix(a, DenseMatrix(LARGEST_DOUBLE_A))
        code, out, err = run(capsys, "factor", "--input", a, "--method", method, "--output", fact)
        assert (code, err) == (0, "")
        (line,) = [line for line in out.splitlines() if line.startswith("reconstruction-error ")]
        assert float(line.split()[1]) <= 1e-14
        assert fact.exists()
        # The file then solves: substituting through G needs no G^T G, which
        # overflows at (2,2). eta is scale-free, so A and b go to it halved 1023 times.
        scale = 2.0**-1023
        sides = np.array(LARGEST_DOUBLE_A) @ np.array([[0.5, 1], [0.25, -1]])
        save_matrix(b, DenseMatrix(sides))
        for extra in ([], ["--matrix", a]):
            code, out, err = run(capsys, "solve", "--factor", fact, "--rhs", b, *extra)
            assert (code, err) == (0, "")
            lines = out.splitlines()
            answers = np.array([[float(v) for v in line.split()] for line in lines[1::1 + bool(extra)]]).T
            assert eta(np.array(LARGEST_DOUBLE_A) * scale, answers, sides * scale) <= 1e-15
            assert sum(line.startswith("residual ") for line in lines) == (2 if extra else 0)

    @pytest.mark.parametrize("method", METHODS)
    def test_session_answers_a_side_then_fails_on_an_overflowing_one(self, capsys, tmp_path, method):
        a, b = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(a, DenseMatrix(SIDE_OVERFLOW_A))
        save_matrix(b, DenseMatrix(np.array([[1, 1], SIDE_OVERFLOW_B], dtype=float).T))
        code, out, err = run(capsys, "solve", "--matrix", a, "--rhs", b, "--method", method)
        assert (code, err) == (2, f"error: {FORWARD_OVERFLOW_MESSAGE}\n")
        assert out.splitlines() == ["method lu" if method == "lu" else "method gauss-cholesky", "0 1", "residual 0"]


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

    def test_byte_order_mark_is_skipped(self, capsys, files, tmp_path):
        bom = tmp_path / "bom.mat"
        bom.write_text("\ufeff" + render_matrix(DenseMatrix(GOLD_A)), encoding="utf-8")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert run(capsys, "check", "--input", bom) == run(capsys, "check", "--input", files["a"])
        assert run(capsys, "check", "--input", bom)[0] == 0


    @pytest.mark.parametrize("method", ["gauss-cholesky", "auto", "lu"])
    def test_symmetric_input_is_eliminated_in_one_triangle(self, capsys, tmp_path, method):
        # Above one panel the two eliminations round differently, so U tells them apart.
        a = DenseMatrix(random_spd(np.random.default_rng(33), 100))
        record = gauss_eliminate(a, symmetric=method != "lu")
        assert record.pivots != gauss_eliminate(a, symmetric=method == "lu").pivots
        path, fact = tmp_path / "a.mat", tmp_path / "a.fact"
        save_matrix(path, a)
        assert run(capsys, "factor", "--input", path, "--method", method, "--output", fact)[0] == 0
        assert load_factorization(fact).provenance.pivots == record.pivots
        if method != "lu":  # check eliminates what it has just called symmetric
            code, out, _ = run(capsys, "check", "--input", path)
            assert code == 0
            keyword, *pivots = out.splitlines()[-1].split()
            assert (keyword, tuple(map(float, pivots))) == ("pivots", record.pivots)


class TestBench:
    def test_bench_table_and_determinism(self, capsys):
        first = run(capsys, "bench", "--n", 20, "--rhs-count", 4)
        second = run(capsys, "bench", "--n", 20, "--rhs-count", 4)
        assert first == second
        code, out, _ = first
        assert code == 0
        assert out.startswith("bench n=20 rhs=4 method=gauss-cholesky")
        assert "flop ratio" in out

    def test_bench_takes_no_seed(self, capsys):
        # Every count is a closed form of n: there is no instance to seed.
        code, out, err = run(capsys, "bench", "--n", 20, "--rhs-count", 4, "--seed", 7)
        assert (code, out) == (1, "")
        assert "--seed" in err

    def test_bench_bad_size(self, capsys):
        code, _, err = run(capsys, "bench", "--n", 0)
        assert code == 1
        assert "n >= 1" in err


def _run_module(src, argv, *flags):
    """Run ``python <flags> -m factorkit.cli <argv>`` with the package imported from ``src``."""
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "factorkit.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestEntryPoint:
    """``python -m factorkit.cli`` and the ``factorkit`` console script behave as ``cli_main``."""

    @pytest.mark.parametrize(
        "entries, code",
        [(GOLD_A, 0), ("matrix 2 2 real\n1 x\n1 1\n", 1), (ZERO_PIVOT_A, 2), (OVERFLOW_A, 2)],
        ids=["ok", "malformed", "zero-pivot", "overflow"],
    )
    def test_process_exit_code_is_cli_mains(self, capsys, tmp_path, entries, code):
        path = tmp_path / "a.mat"
        if isinstance(entries, str):
            path.write_text(entries)
        else:
            save_matrix(path, DenseMatrix(entries))
        argv = ["factor", "--input", str(path), "--output", str(tmp_path / "a.fact")]
        expected = run(capsys, *argv)
        assert expected[0] == code
        src = Path(factorkit.__file__).resolve().parents[1]
        assert _run_module(src, argv) == expected

    def test_residual_warning_is_one_fixed_line_however_the_cli_runs(self, capsys, tmp_path):
        save_matrix(tmp_path / "near.mat", DenseMatrix(NEAR_SINGULAR_A))
        save_matrix(tmp_path / "b.mat", DenseMatrix([[1, 2], [2, 3]]))
        argv = ["solve", "--matrix", str(tmp_path / "near.mat"), "--rhs", str(tmp_path / "b.mat"), "--method", "lu"]
        expected = run(capsys, *argv)
        code, out, err = expected
        assert code == 0 and out.startswith("method lu\n")
        assert re.fullmatch(f"(?:{RESIDUAL_WARNING.pattern}){{2}}", err)  # one per column, and no source path
        src = Path(factorkit.__file__).resolve().parents[1]
        moved = tmp_path / "moved"
        shutil.copytree(src / "factorkit", moved / "factorkit", ignore=shutil.ignore_patterns("__pycache__"))
        assert _run_module(src, argv) == expected
        assert _run_module(src, argv, "-W", "error") == expected
        assert _run_module(src, argv, "-W", "ignore") == expected
        assert _run_module(moved, argv) == expected

    def test_console_script_target_runs_cli_main(self, capsys, monkeypatch, tmp_path):
        pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
        scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        ((module, name),) = re.findall(r'^factorkit = "([\w.]+):(\w+)"$', scripts, flags=re.M)
        path = tmp_path / "a.mat"
        save_matrix(path, DenseMatrix(GOLD_A))
        code, out, _ = run(capsys, "check", "--input", path)
        assert code == 0 and out
        monkeypatch.setattr(sys, "argv", ["factorkit", "check", "--input", str(path)])
        with pytest.raises(SystemExit) as exc:
            getattr(importlib.import_module(module), name)()
        assert exc.value.code == 0
        assert capsys.readouterr().out == out


class TestErrorsAndUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_argument(self, capsys):
        code, _, _ = run(capsys, "factor", "--input", "x.mat")
        assert code == 1

    @pytest.mark.parametrize("command", ["factor", "solve"])
    def test_negative_digits_is_a_usage_error(self, capsys, files, command):
        args = {
            "factor": ["--input", files["a"], "--output", files["fact"]],
            "solve": ["--matrix", files["a"], "--rhs", files["b1"]],
        }[command]
        code, out, err = run(capsys, command, *args, "--digits", "-1")
        assert (code, out) == (1, "")
        assert err.startswith(f"usage: factorkit {command}")
        assert "argument --digits: expected a non-negative integer, got '-1'" in err
        assert not files["fact"].exists()

    @pytest.mark.parametrize("command", ["factor", "solve"])
    def test_digits_beyond_the_float_formatter_is_a_usage_error(self, capsys, files, command):
        args = {
            "factor": ["--input", files["a"], "--output", files["fact"]],
            "solve": ["--matrix", files["a"], "--rhs", files["b1"]],
        }[command]
        digits = "1" + "0" * 30
        code, out, err = run(capsys, command, *args, "--digits", digits)
        assert (code, out) == (1, "")
        assert err.startswith(f"usage: factorkit {command}")
        assert f"argument --digits: floats cannot be formatted with {digits} digits" in err
        assert not files["fact"].exists()

    def test_non_numeric_digits_is_a_usage_error(self, capsys, files):
        code, out, err = run(capsys, "solve", "--matrix", files["a"], "--rhs", files["b1"], "--digits", "abc")
        assert (code, out) == (1, "")
        assert "argument --digits: expected a non-negative integer, got 'abc'" in err

    def test_zero_digits_prints_one_significant_digit(self, capsys, files):
        code, out, _ = run(
            capsys, "factor", "--input", files["a"], "--output", files["fact"], "--digits", "0"
        )
        assert code == 0
        assert out.splitlines()[2:4] == ["pivots 1 4 4 1", "reconstruction-error 0"]
        code, out, _ = run(capsys, "solve", "--matrix", files["a"], "--rhs", files["b2"], "--digits", "0")
        assert code == 0
        assert out.splitlines()[1:3] == ["4 2 -0.5 1", "residual 0"]

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
    ("bench --n 20 --rhs-count 4", 0, (
        "bench n=20 rhs=4 method=gauss-cholesky\n"
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
