import dataclasses
import sys
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from factorkit import (
    BenchResult,
    CostReport,
    DenseMatrix,
    EliminationRecord,
    Factorization,
    KIND_GAUSS_CHOLESKY,
    KIND_LU,
    NonSquareError,
    NoSolvesError,
    NotSymmetricError,
    ShapeError,
    SolveSession,
    ZeroPivotError,
    back_substitute,
    cost_report,
    gauss_cholesky,
    gauss_eliminate,
    lu_from_record,
    matrix_hash,
    open_session,
    run_bench,
    save_matrix,
    session_solve,
    solve,
    vector,
)

import factorkit.factorizations
import factorkit.matio
import factorkit.workflow
from factorkit.cli import cli_main
from factorkit.elimination import _solve_lower, _solve_upper, elimination_flops, scaling_flops, substitution_flops
from factorkit.factorizations import require_symmetric
from factorkit.matrices import DEFAULT_SYMMETRY_TOL
from factorkit.workflow import resolve_method

from conftest import (
    BACK_OVERFLOW_MESSAGE,
    FORWARD_OVERFLOW_MESSAGE,
    GOLD_A,
    GOLD_B1,
    GOLD_B2,
    GOLD_X1,
    GOLD_X2,
    INDEFINITE_A,
    INDEFINITE_B,
    INDEFINITE_X,
    NEAR_SINGULAR_A,
    OVERFLOW_A,
    OVERFLOW_MESSAGE,
    SIDE_OVERFLOW_A,
    SIDE_OVERFLOW_B,
    SIDE_OVERFLOW_MESSAGE,
    SUBSTITUTION_OVERFLOW_A,
    SUBSTITUTION_OVERFLOW_B,
    ULP_ABOVE_THRESHOLD_A,
    ZERO_PIVOT_A,
)
from oracles import packed_factors, random_spd, random_symmetric


class TestOpenSession:
    def test_auto_picks_gauss_cholesky_for_symmetric(self, golden_a):
        s = open_session(golden_a, "auto")
        assert s.method == KIND_GAUSS_CHOLESKY

    def test_auto_picks_lu_for_non_symmetric(self):
        assert open_session(DenseMatrix([[1, 2], [3, 4]]), "auto").method == KIND_LU

    def test_explicit_gauss_cholesky_accepted(self, golden_a):
        assert open_session(golden_a, KIND_GAUSS_CHOLESKY).method == KIND_GAUSS_CHOLESKY

    def test_gauss_cholesky_on_non_symmetric_fails_at_open(self):
        with pytest.raises(NotSymmetricError):
            open_session(DenseMatrix([[1, 2], [3, 4]]), KIND_GAUSS_CHOLESKY)

    def test_unknown_method(self, golden_a):
        with pytest.raises(ValueError, match="unknown method"):
            open_session(golden_a, "qr")

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            open_session(DenseMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_no_factorization_until_first_solve(self, golden_a):
        s = open_session(golden_a)
        assert s.factorization is None

    def test_auto_choice_invariant_under_scaling(self, golden_a):
        base = open_session(golden_a, "auto").method
        skew = DenseMatrix([[1, 2], [3, 4]])
        skew_base = open_session(skew, "auto").method
        for c in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            assert open_session(DenseMatrix(c * golden_a.data), "auto").method == base
            assert open_session(DenseMatrix(c * skew.data), "auto").method == skew_base


class TestResolveMethod:
    def test_auto_and_explicit_methods(self, golden_a):
        skew = DenseMatrix([[1, 2], [3, 4]])
        assert resolve_method(golden_a) == KIND_GAUSS_CHOLESKY
        assert resolve_method(skew, "auto") == KIND_LU
        assert resolve_method(golden_a, KIND_LU) == KIND_LU
        assert resolve_method(golden_a, KIND_GAUSS_CHOLESKY) == KIND_GAUSS_CHOLESKY
        with pytest.raises(NotSymmetricError):
            resolve_method(skew, KIND_GAUSS_CHOLESKY)
        with pytest.raises(ValueError, match="unknown method"):
            resolve_method(golden_a, "qr")

    @pytest.mark.parametrize("method", ["auto", KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_non_square_fails_whatever_the_method(self, method):
        with pytest.raises(NonSquareError):
            resolve_method(DenseMatrix([[1, 2, 3], [4, 5, 6]]), method)


def _symmetry_verdicts(a, tol):
    try:
        require_symmetric(a, tol)
        raises = False
    except NotSymmetricError:
        raises = True
    return a.is_symmetric(tol), raises, resolve_method(a, "auto", tol)


class TestOneSymmetryRule:
    """Symmetry is judged relative to max|a_ij| alone, so scaling A by a power
    of two, which scales every |a_ij - a_ji| and max|a_ij| exactly, changes no
    verdict; and require_symmetric raises exactly when is_symmetric is false."""

    @pytest.mark.parametrize("tol", [DEFAULT_SYMMETRY_TOL, 1e-15, 0.0])
    @pytest.mark.parametrize("shape", ["symmetric", "complex-symmetric", "nonsymmetric", "near-symmetric"])
    def test_verdicts_are_scale_invariant(self, shape, tol):
        rng = np.random.default_rng(80)
        for n in (1, 2, 5, 17):
            if shape == "nonsymmetric":
                base = rng.uniform(-1, 1, (n, n))
            else:
                base = random_symmetric(rng, n, complex_entries=shape == "complex-symmetric")
            if shape == "near-symmetric":
                base[-1, 0] += 1e-14 * np.max(np.abs(base))
            verdicts = {k: _symmetry_verdicts(DenseMatrix(base * 2.0**k), tol) for k in (-600, -40, 0, 40, 600)}
            assert set(verdicts.values()) == {verdicts[0]}, (n, verdicts)
            symmetric, raises, method = verdicts[0]
            assert raises is not symmetric
            assert method == (KIND_GAUSS_CHOLESKY if symmetric else KIND_LU)


class TestSessionPivotVerdict:
    @pytest.mark.parametrize("method", ["auto", KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_near_singular_session_answers_first_and_reuse(self, method):
        s = open_session(DenseMatrix(NEAR_SINGULAR_A), method)
        for b in (vector([1, 2]), vector([3, -1])):
            with pytest.warns(RuntimeWarning, match="exceeds session tolerance"):
                report = session_solve(s, b)
            assert report.residuals[0] <= 1e-7
        assert s.reuse_count == 1

    @pytest.mark.parametrize("method", ["auto", KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_pivot_one_ulp_above_the_threshold_answers(self, method):
        s = open_session(DenseMatrix(ULP_ABOVE_THRESHOLD_A), method)
        for b in (vector([1, 2]), vector([3, -1])):
            with pytest.warns(RuntimeWarning, match="exceeds session tolerance"):  # cond(A) is about 1e16
                session_solve(s, b)
        assert s.reuse_count == 1

    @pytest.mark.parametrize("method", ["auto", KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_zero_pivot_session_fails_in_column_1(self, method):
        s = open_session(DenseMatrix(ZERO_PIVOT_A), method)
        with pytest.raises(ZeroPivotError) as exc:
            session_solve(s, vector([1, 2]))
        assert exc.value.column == 1

    @pytest.mark.parametrize("method", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_failed_session_reraises_without_eliminating_again(self, gauss_eliminate_calls, method):
        s = open_session(DenseMatrix(ZERO_PIVOT_A), method)
        errors = []
        for b in (vector([1, 2]), vector([3, -1]), vector([1, 2])):
            with pytest.raises(ZeroPivotError) as exc:
                session_solve(s, b)
            errors.append(exc.value)
        assert len(gauss_eliminate_calls) == 1
        first = errors[0]
        assert (first.axis, first.index) == ("column", 1)
        for e in errors[1:]:
            assert (e.axis, e.index, e.value, e.threshold, str(e)) == (
                first.axis, first.index, first.value, first.threshold, str(first)
            )
        assert s.factorization is None and s.reuse_count == 0
        with pytest.raises(NoSolvesError):
            cost_report(s)

    @pytest.mark.parametrize("method", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_overflowing_session_keeps_its_failure(self, gauss_eliminate_calls, method):
        s = open_session(DenseMatrix(OVERFLOW_A), method)
        errors = []
        for _ in range(3):
            with pytest.raises(ZeroPivotError) as exc:
                session_solve(s, vector([1, 1]))
            errors.append(exc.value)
        assert len(gauss_eliminate_calls) == 1
        for e in errors:
            assert (e.axis, e.index, e.value, str(e)) == ("column", 2, -np.inf, OVERFLOW_MESSAGE)
            assert vars(e) == vars(errors[0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_overflowing_first_side_is_not_kept(self, gauss_eliminate_calls, method):
        # The failure belongs to the side, not to A: the next side eliminates again.
        s = open_session(DenseMatrix(SIDE_OVERFLOW_A), method)
        with pytest.raises(OverflowError, match=f"^{SIDE_OVERFLOW_MESSAGE}$"):
            session_solve(s, vector(SIDE_OVERFLOW_B))
        assert s.factorization is None
        x = session_solve(s, vector([1, 1])).solutions.data.ravel()
        assert_array_equal(x, [0.0, 1.0])
        assert len(gauss_eliminate_calls) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_overflowing_first_back_substitution_keeps_the_factors(self, gauss_eliminate_calls, method):
        s = open_session(DenseMatrix(SUBSTITUTION_OVERFLOW_A), method)
        with pytest.raises(OverflowError, match=f"^{BACK_OVERFLOW_MESSAGE}$"):
            session_solve(s, vector(SUBSTITUTION_OVERFLOW_B))
        assert s.factorization is not None
        x = session_solve(s, vector([1, 1e-3])).solutions.data.ravel()
        assert np.allclose(x, [1.0, 1.0], rtol=0, atol=1e-12)
        assert len(gauss_eliminate_calls) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_overflowing_reuse_side_raises_overflow_error(self, gauss_eliminate_calls, method):
        s = open_session(DenseMatrix(SIDE_OVERFLOW_A), method)
        assert_array_equal(session_solve(s, vector([1, 1])).solutions.data.ravel(), [0.0, 1.0])
        with pytest.raises(OverflowError, match=f"^{FORWARD_OVERFLOW_MESSAGE}$"):
            session_solve(s, vector(SIDE_OVERFLOW_B))
        costs = cost_report(s)  # the failed reuse answered nothing, so it is not counted
        assert (costs.reuse_count, costs.total_flops) == (0, costs.first_flops)
        x = session_solve(s, vector([1, 1])).solutions.data.ravel()
        assert np.allclose(x, [0.0, 1.0], rtol=0, atol=1e-12)
        assert len(gauss_eliminate_calls) == 1
        assert cost_report(s).reuse_count == 1

    @pytest.mark.parametrize("method", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_reuse_solves_compute_no_threshold(self, pivot_threshold_calls, method, golden_a, golden_b1, golden_b2):
        s = open_session(golden_a, method)
        session_solve(s, golden_b1)
        assert len(pivot_threshold_calls) == 1
        for b in (golden_b2, golden_b1, golden_b2):
            session_solve(s, b)
        assert len(pivot_threshold_calls) == 1


class TestSessionSolve:
    def test_first_solve_answers_through_elimination(self, golden_a, golden_b1):
        s = open_session(golden_a, "auto")
        report = session_solve(s, golden_b1)
        assert_array_equal(report.solutions.data.ravel(), np.array(GOLD_X1, dtype=float))
        assert report.flops == 72  # 34 eliminate + 12 rhs + 10 scale + 16 back
        assert s.factorization is not None

    def test_second_solve_reuses_factors(self, golden_a, golden_b1, golden_b2):
        s = open_session(golden_a, "auto")
        first = session_solve(s, golden_b1)
        report = session_solve(s, golden_b2)
        assert_array_equal(report.solutions.data.ravel(), np.array(GOLD_X2, dtype=float))
        assert report.flops == 32
        assert s.reuse_count == 1
        assert all(r.residuals[0] <= s.residual_tol for r in (first, report))

    def test_elimination_flops_accrue_once(self, golden_a, golden_b1, golden_b2):
        s = open_session(golden_a, "auto")
        session_solve(s, golden_b1)
        first = cost_report(s).first_flops
        session_solve(s, golden_b2)
        session_solve(s, golden_b1)
        assert cost_report(s).first_flops == first
        assert s.reuse_count == 2

    def test_repeated_rhs_is_bit_identical(self, golden_a, golden_b1):
        s = open_session(golden_a, "auto")
        session_solve(s, golden_b1)
        again = session_solve(s, golden_b1).solutions
        once_more = session_solve(s, golden_b1).solutions
        assert_array_equal(again.data, once_more.data)

    def test_lu_session_on_golden(self, golden_a, golden_b1, golden_b2):
        s = open_session(golden_a, KIND_LU)
        assert_array_equal(session_solve(s, golden_b1).solutions.data.ravel(), np.array(GOLD_X1, float))
        assert_array_equal(session_solve(s, golden_b2).solutions.data.ravel(), np.array(GOLD_X2, float))

    def test_reuse_matches_fresh_elimination(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            a = DenseMatrix(rng.standard_normal((n, n)))
            sides = [vector(rng.standard_normal(n)) for _ in range(4)]
            s = open_session(a, "auto")
            for b in sides:
                got = session_solve(s, b).solutions
                record = gauss_eliminate(a, b)
                want = back_substitute(lu_from_record(record).u, record.transformed_rhs)
                num = np.linalg.norm(got.data - want.data)
                assert num <= 1e-10 * max(1.0, np.linalg.norm(want.data))

    @pytest.mark.parametrize("method", ["auto", "lu"])
    def test_solves_never_render_text(self, monkeypatch, method, golden_b1, golden_b2):
        def refuse(*args):
            raise AssertionError("text rendering reached the solve path")

        for name in ("render_matrix", "render_factorization", "_render_rows", "format_entry"):
            monkeypatch.setattr(factorkit.matio, name, refuse)
        s = open_session(DenseMatrix(GOLD_A), method)
        for b in (golden_b1, golden_b2, golden_b1):
            session_solve(s, b)
        assert s.reuse_count == 2

    def test_warns_when_residual_exceeds_tolerance(self, golden_a):
        s = open_session(golden_a, "auto", residual_tol=-1.0)
        with pytest.warns(RuntimeWarning, match="exceeds session tolerance"):
            session_solve(s, vector([1, 1, 1, 2]))

    def test_zero_pivot_propagates(self):
        s = open_session(DenseMatrix([[0, 1], [1, 0]]), "auto")
        with pytest.raises(ZeroPivotError):
            session_solve(s, vector([1, 2]))

    def test_shape_errors(self, golden_a, golden_b1, golden_b2):
        s = open_session(golden_a)
        with pytest.raises(ShapeError):
            session_solve(s, vector([1, 2]))
        with pytest.raises(ShapeError):
            session_solve(s, DenseMatrix(np.hstack([golden_b1.data, golden_b2.data])))


    @pytest.mark.parametrize("method", ["gauss-cholesky", "auto", "lu"])
    def test_first_solve_eliminates_one_triangle_for_gauss_cholesky(self, method):
        # Above one panel the two eliminations round differently, so U tells them apart.
        rng = np.random.default_rng(33)
        a = DenseMatrix(random_spd(rng, 100))
        b = vector(rng.standard_normal(100))
        record = gauss_eliminate(a, b, symmetric=method != "lu")
        other = gauss_eliminate(a, b, symmetric=method == "lu")
        assert not np.array_equal(np.triu(record.lu.data), np.triu(other.lu.data))
        s = open_session(a, method)
        report = session_solve(s, b)
        assert s.factorization.provenance.pivots == record.pivots
        u = DenseMatrix(np.triu(record.lu.data))
        assert_array_equal(report.solutions.data, back_substitute(u, record.transformed_rhs).data)


class TestRealSystemsAnswerReal:
    """A negative pivot makes G complex, yet a real system's answers, first
    and reused, are real; a complex matrix or complex side keeps them complex."""

    def test_small_indefinite_session_answers_every_side_as_float64(self):
        s = open_session(DenseMatrix(INDEFINITE_A))
        b, x = np.array(INDEFINITE_B, dtype=float), np.array(INDEFINITE_X)
        for j in (0, 1, 0):
            report = session_solve(s, vector(b[:, j]))
            assert report.solutions.data.dtype == np.float64
            assert np.max(np.abs(report.solutions.data.ravel() - x[:, j])) <= 1e-15
        assert s.method == KIND_GAUSS_CHOLESKY and s.factorization.g.is_complex
        assert s.reuse_count == 2

    def test_reuse_answers_are_the_complex_substitutions_real_parts(self):
        rng = np.random.default_rng(40)
        n = 200
        s = open_session(DenseMatrix(random_symmetric(rng, n) + np.diag(n * (-1.0) ** np.arange(n))))
        session_solve(s, vector(rng.standard_normal(n)))
        g = s.factorization.g.data
        forward, back = s.factorization._inverses
        assert np.iscomplexobj(g) and all(v is not None for v in forward + back)  # the blocked inverses serve
        for _ in range(3):
            b = rng.standard_normal((n, 1))
            x = session_solve(s, DenseMatrix(b)).solutions.data
            # The complex substitutions, as solve() runs them: each imaginary part is exactly 0.
            y, _ = _solve_lower(g.T, b, unit_diagonal=False, inverses=forward)
            z, _ = _solve_upper(g, y, inverses=back)
            assert not z.imag.any()
            assert x.dtype == np.float64 and x.tobytes() == z.real.tobytes()

    @pytest.mark.parametrize("case", ["complex-symmetric", "complex-field", "complex-side"])
    def test_complex_systems_stay_complex(self, case):
        # A complex-field matrix with zero imaginary parts, or a complex side
        # with zero imaginary parts, gives answers with exactly zero imaginary
        # parts too: the field, not the values, decides.
        rng = np.random.default_rng(41)
        if case == "complex-symmetric":
            a = DenseMatrix(random_symmetric(rng, 20, complex_entries=True) + 20 * np.eye(20))
        else:
            a = DenseMatrix(np.array(INDEFINITE_A, dtype=complex if case == "complex-field" else float))
        side_field = complex if case == "complex-side" else float
        s = open_session(a)
        for _ in range(3):
            b = vector(rng.standard_normal(a.rows).astype(side_field))
            assert session_solve(s, b).solutions.data.dtype == np.complex128


class TestSessionState:
    def test_fields_are_what_cannot_be_derived(self, golden_a, golden_b1, golden_b2):
        names = [f.name for f in dataclasses.fields(SolveSession) if f.init]
        assert names == ["matrix", "method", "symmetry_tol", "residual_tol", "reuse_count"]
        s = open_session(golden_a)
        for b in (golden_b1, golden_b2, golden_b1):
            session_solve(s, b)
        for f in dataclasses.fields(SolveSession):
            assert not isinstance(getattr(s, f.name), (list, dict, set, tuple)), f.name
        assert "lock" not in repr(s)
        assert s == dataclasses.replace(s)  # a fresh lock, equal otherwise

    def test_matrix_hashed_only_when_its_hash_is_read(self, matrix_hash_calls, golden_b1, golden_b2):
        s = open_session(DenseMatrix(GOLD_A), "auto")
        for b in (golden_b1, golden_b2, golden_b1, golden_b2):
            session_solve(s, b)
        assert len(matrix_hash_calls) == 0
        assert s.factorization.provenance.matrix_hash == "2845401addaf482d"
        assert len(matrix_hash_calls) == 1
        assert s.factorization.provenance.matrix_hash == "2845401addaf482d"
        assert len(matrix_hash_calls) == 1
        assert matrix_hash(s.matrix) == "2845401addaf482d"  # cached on the matrix by the first read

    @pytest.mark.parametrize("method", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_factors_formed_only_when_a_reuse_reads_them(self, record_builds, method, golden_b1, golden_b2):
        s = open_session(DenseMatrix(GOLD_A), method)
        session_solve(s, golden_b1)
        cost_report(s)
        assert record_builds == []
        for b in (golden_b2, golden_b1):
            session_solve(s, b)
        assert len(record_builds) == 1
        assert not any(isinstance(v, EliminationRecord) for v in vars(s).values())  # dropped once packaged

    @pytest.mark.parametrize("method", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_product_formed_once_for_all_reuses(self, product_calls, method):
        rng = np.random.default_rng(9)
        n, reuses = 80, 10
        s = open_session(DenseMatrix(random_spd(rng, n)), method)
        session_solve(s, vector(rng.standard_normal(n)))
        assert product_calls == []  # the first solve answers off the elimination record
        for _ in range(reuses):
            session_solve(s, vector(rng.standard_normal(n)))
        assert s.reuse_count == reuses
        assert product_calls == [(s.factorization,)]

    def test_cli_hashes_only_to_write_or_check_a_factor_file(self, matrix_hash_calls, capsys, tmp_path):
        a, b, fact = tmp_path / "a.mat", tmp_path / "b.mat", tmp_path / "a.fact"
        save_matrix(a, DenseMatrix(GOLD_A))
        save_matrix(b, DenseMatrix(np.array([GOLD_B1, GOLD_B2], dtype=float).T))
        hashes = []
        for argv in (
            ["factor", "--input", a, "--output", fact],
            ["solve", "--factor", fact, "--matrix", a, "--rhs", b],
            ["solve", "--matrix", a, "--rhs", b],
            ["solve", "--factor", fact, "--rhs", b],
            ["check", "--input", a],
        ):
            start = len(matrix_hash_calls)
            assert cli_main([str(arg) for arg in argv]) == 0
            hashes.append(len(matrix_hash_calls) - start)
        capsys.readouterr()
        assert hashes == [1, 1, 0, 0, 0]

    @pytest.mark.parametrize("method", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_cost_report_is_the_closed_forms(self, method):
        rng = np.random.default_rng(23)
        n, k = 30, 5
        s = open_session(DenseMatrix(random_spd(rng, n)), method)
        for _ in range(1 + k):
            session_solve(s, vector(rng.standard_normal(n)))
        first = elimination_flops(n, 1) + substitution_flops(n, 1)
        if method == KIND_GAUSS_CHOLESKY:
            first += scaling_flops(n)
        reuse = substitution_flops(n, 1, unit_diagonal=method == KIND_LU) + substitution_flops(n, 1)
        assert cost_report(s) == CostReport(
            first_flops=first, reuse_flops_per_rhs=reuse, reuse_count=k, total_flops=first + k * reuse
        )


def _run_together(workers, target):
    """Run ``target(j)`` for j < workers on threads released by one barrier; return their errors."""
    barrier = threading.Barrier(workers)
    errors = []

    def work(j):
        try:
            barrier.wait(timeout=10)
            target(j)
        except Exception as exc:  # reported to the test below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(j,)) for j in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    return errors


class TestConcurrency:
    def test_racing_first_solves_eliminate_once(self, monkeypatch):
        eliminate = factorkit.workflow.gauss_eliminate
        calls = []

        def slow_eliminate(*args, **kwargs):
            calls.append(args)
            time.sleep(0.05)  # hold the window in which a second caller could find no factorization
            return eliminate(*args, **kwargs)

        monkeypatch.setattr(factorkit.workflow, "gauss_eliminate", slow_eliminate)
        rng = np.random.default_rng(24)
        n, workers = 120, 4
        for _ in range(5):
            calls.clear()
            a = DenseMatrix(random_spd(rng, n))
            sides = [vector(rng.standard_normal(n)) for _ in range(workers)]
            s = open_session(a, "auto")
            reports = [None] * workers

            def solve_one(j):
                reports[j] = session_solve(s, sides[j])

            assert _run_together(workers, solve_one) == []
            assert len(calls) == 1
            assert s.reuse_count == workers - 1
            norm_a = np.linalg.norm(a.data, np.inf)
            for b, report in zip(sides, reports):
                x = report.solutions.data
                r = np.max(np.abs(a.data @ x - b.data))
                eta = r / (norm_a * np.max(np.abs(x)) + np.max(np.abs(b.data)))
                assert eta <= 1e-12

    def test_racing_solves_of_a_failing_session_eliminate_once(self, gauss_eliminate_calls):
        workers = 4
        s = open_session(DenseMatrix(ZERO_PIVOT_A), "auto")
        errors = _run_together(workers, lambda j: session_solve(s, vector([1, j])))
        assert len(gauss_eliminate_calls) == 1
        assert len(errors) == workers and all(isinstance(e, ZeroPivotError) and e.column == 1 for e in errors)
        assert len({id(e) for e in errors}) == workers  # no exception object is shared between threads

    def test_concurrent_reuses_lose_no_count(self, golden_a, golden_b1, golden_b2):
        # more threads than cores and a short switch interval, so the reuses
        # interleave: each must still be counted once and answered exactly
        workers, solves = 8, 40
        s = open_session(golden_a)
        session_solve(s, golden_b1)
        answers = []

        def reuse(j):
            for _ in range(solves):
                answers.append(session_solve(s, golden_b2).solutions.data.ravel().tolist())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            errors = _run_together(workers, reuse)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert s.reuse_count == workers * solves
        assert all(x == GOLD_X2 for x in answers)

    def test_racing_first_reads_of_the_matrix_hash_agree(self, golden_a):
        # More threads than cores and a short switch interval, so first reads
        # interleave with the one that hashes and drops the source matrix.
        workers, rounds = 8, 200
        want = matrix_hash(golden_a)
        provenances = [gauss_cholesky(DenseMatrix(GOLD_A)).provenance for _ in range(rounds)]
        seen = []

        def read(j):
            for p in provenances:
                seen.append(p.matrix_hash)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            errors = _run_together(workers, read)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert seen == [want] * (workers * rounds)
        assert not any("_source" in vars(p) for p in provenances)
        # The rarest interleaving, made certain: a lookup that missed before
        # another thread stored the hash and dropped the matrix.
        assert provenances[0].__getattr__("matrix_hash") == want

    @pytest.mark.parametrize("kind", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_racing_first_reads_of_record_built_factors_agree(self, monkeypatch, kind):
        # Sessions answered once hold their elimination record. First reuses
        # race first reads of the factorization: exactly one packages it.
        workers, rounds, n = 8, 200, 100
        package = factorkit.workflow.from_record
        packaged = []
        monkeypatch.setattr(factorkit.workflow, "from_record", lambda *a: packaged.append(a) or package(*a))
        rng = np.random.default_rng(31)
        sessions, packed = [], []
        for _ in range(rounds):
            a, b = DenseMatrix(random_spd(rng, n)), vector(rng.standard_normal(n))
            record = gauss_eliminate(a, b, symmetric=kind == KIND_GAUSS_CHOLESKY)
            packed.append((record.lu.data, record.pivots))
            sessions.append(open_session(a, kind))
            session_solve(sessions[-1], b)
        side = vector(np.ones(n))
        seen = [[] for _ in range(workers)]

        def race(j):
            for s in sessions:
                if j % 2:
                    session_solve(s, side)
                seen[j].append(s.factorization)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            errors = _run_together(workers, race)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(packaged) == rounds
        for i, (s, (lu, pivots)) in enumerate(zip(sessions, packed)):
            f = seen[0][i]
            assert isinstance(f, Factorization) and all(reads[i] is f for reads in seen)
            assert s.factorization is f and s.reuse_count == workers // 2
            arrays = packed_factors(lu, pivots)
            for name in "lug":
                factor = getattr(f, name)
                assert (factor is None) == (name not in factorkit.factorizations.FACTOR_NAMES[kind])
                assert factor is None or factor.data.tobytes() == arrays[name].tobytes()

    @pytest.mark.parametrize("kind", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_racing_first_reuses_of_a_fresh_session_answer_as_one_thread_does(self, kind):
        # The first reuse forms the factors and their block inverses; racing
        # reuses must each answer exactly as a sequential run.
        workers, rounds, n = 8, 10, 100
        rng = np.random.default_rng(32)
        interval = sys.getswitchinterval()
        for _ in range(rounds):
            a = DenseMatrix(random_spd(rng, n))
            sides = [vector(rng.standard_normal(n)) for _ in range(workers + 1)]
            sequential = open_session(a, kind)
            want = [session_solve(sequential, b).solutions.data.tobytes() for b in sides]
            s = open_session(a, kind)
            session_solve(s, sides[0])
            answers = [None] * workers

            def reuse(j):
                answers[j] = session_solve(s, sides[j + 1]).solutions.data.tobytes()

            sys.setswitchinterval(1e-6)
            try:
                errors = _run_together(workers, reuse)
            finally:
                sys.setswitchinterval(interval)
            assert errors == []
            assert answers == want[1:]
            assert s.reuse_count == workers

    @pytest.mark.parametrize("kind", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_threads_sharing_a_fresh_factorization_get_identical_bytes(self, monkeypatch, kind):
        # Every thread's first solve finds the block inverses and the product
        # missing; slowed down, their computation overlaps wherever
        # cached_property takes no lock.
        for name in ("_block_inverses", "_product"):
            slowed = lambda *args, original=getattr(factorkit.factorizations, name): time.sleep(0.05) or original(*args)
            monkeypatch.setattr(factorkit.factorizations, name, slowed)
        rng = np.random.default_rng(8)
        n, workers = 150, 8
        a = DenseMatrix(random_spd(rng, n))
        b = DenseMatrix(rng.standard_normal((n, 2)))
        factor = (lambda: lu_from_record(gauss_eliminate(a))) if kind == KIND_LU else (lambda: gauss_cholesky(a))
        f = factor()
        answers = [None] * workers

        def solve_one(j):
            report = solve(f, b)
            answers[j] = report.solutions.data.tobytes(), np.array(report.residuals).tobytes()

        assert _run_together(workers, solve_one) == []
        report = solve(factor(), b)
        assert set(answers) == {(report.solutions.data.tobytes(), np.array(report.residuals).tobytes())}


class TestCostReport:
    def test_requires_a_solve(self, golden_a):
        with pytest.raises(NoSolvesError):
            cost_report(open_session(golden_a))

    def test_reuse_cheaper_than_first_at_n4(self, golden_a, golden_b1, golden_b2):
        s = open_session(golden_a, "auto")
        session_solve(s, golden_b1)
        session_solve(s, golden_b2)
        report = cost_report(s)
        assert report.reuse_flops_per_rhs < report.first_flops
        assert report.total_flops == 72 + 32

    def test_estimate_matches_measurement(self, golden_a, golden_b1, golden_b2):
        s = open_session(golden_a, "auto")
        session_solve(s, golden_b1)
        estimated = cost_report(s).reuse_flops_per_rhs  # no reuse yet: closed form
        session_solve(s, golden_b2)
        assert cost_report(s).reuse_flops_per_rhs == estimated

    def test_degenerate_one_by_one(self):
        s = open_session(DenseMatrix([[5]]), KIND_LU)
        session_solve(s, vector([10]))
        session_solve(s, vector([20]))
        report = cost_report(s)
        assert report.reuse_flops_per_rhs == 1  # one division
        assert report.first_flops >= report.reuse_flops_per_rhs

    def test_many_rhs_beat_repeated_eliminations(self):
        rng = np.random.default_rng(22)
        n = 50
        a = DenseMatrix(random_symmetric(rng, n) + n * np.eye(n))
        s = open_session(a, "auto")
        fresh = []
        for _ in range(10):
            b = vector(rng.standard_normal(n))
            session_solve(s, b)
            fresh.append(gauss_eliminate(a, b).flops + n * n)
        assert cost_report(s).total_flops < sum(fresh)


class TestBench:
    def test_deterministic(self):
        assert run_bench(20, 5) == run_bench(20, 5)

    def test_reuse_total_under_35_percent(self):
        result = run_bench(50, 10)
        assert result.method == KIND_GAUSS_CHOLESKY
        assert result.reuse_total < 0.35 * result.elimination_total

    def test_flop_identities(self):
        result = run_bench(12, 3)
        assert result.reuse_total == result.factor_flops + 3 * result.reuse_flops_per_rhs
        assert result.elimination_total == 3 * result.elimination_flops_per_rhs
        assert result.reuse_flops_per_rhs == 2 * 12 * 12

    @pytest.mark.parametrize("rhs_count", [1, 10])
    def test_factors_and_solves_nothing(self, gauss_eliminate_calls, monkeypatch, rhs_count):
        rebuilds = []
        rebuild = Factorization.rebuild
        monkeypatch.setattr(Factorization, "rebuild", lambda f: rebuilds.append(f) or rebuild(f))
        run_bench(20, rhs_count)
        assert len(gauss_eliminate_calls) == 0
        assert len(rebuilds) == 0

    @pytest.mark.parametrize("rhs_count", [1, 7])
    def test_result_is_the_closed_forms(self, rhs_count):
        n = 20
        factor = elimination_flops(n, 0) + scaling_flops(n)
        reuse = 2 * substitution_flops(n, 1)  # G^T then G: neither diagonal is unit
        fresh = elimination_flops(n, 1) + substitution_flops(n, 1)
        reuse_total, fresh_total = factor + rhs_count * reuse, rhs_count * fresh
        assert run_bench(n, rhs_count) == BenchResult(
            n, rhs_count, KIND_GAUSS_CHOLESKY, factor, reuse, reuse_total, fresh, fresh_total,
            reuse_total / fresh_total,
        )

    # Both sides of the substitution's 64-row block.
    @pytest.mark.parametrize("n", [1, 2, 17, 65])
    def test_ledger_matches_real_runs(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        a = DenseMatrix(m.T @ m + n * np.eye(n))
        b = vector(rng.standard_normal(n))
        result = run_bench(n, 3)
        f = gauss_cholesky(a)
        assert result.factor_flops == f.provenance.flops
        assert result.reuse_flops_per_rhs == solve(f, b).flops
        # A fresh elimination with its side, then the kernel's back substitution.
        record = gauss_eliminate(a, b)
        fresh = record.flops + _solve_upper(record.lu.data, record.transformed_rhs.data)[1]
        assert result.elimination_flops_per_rhs == fresh
        assert result.elimination_flops_per_rhs == session_solve(open_session(a, KIND_LU), b).flops
        s = open_session(a, KIND_GAUSS_CHOLESKY)
        session_solve(s, b)
        assert session_solve(s, b).flops == cost_report(s).reuse_flops_per_rhs == result.reuse_flops_per_rhs

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            run_bench(0, 1)
        with pytest.raises(ValueError):
            run_bench(3, 0)
