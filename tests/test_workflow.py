import numpy as np
import pytest
from numpy.testing import assert_array_equal

from factorkit import (
    DenseMatrix,
    KIND_GAUSS_CHOLESKY,
    KIND_LU,
    NonSquareError,
    NoSolvesError,
    NotSymmetricError,
    ShapeError,
    ZeroPivotError,
    back_substitute,
    cost_report,
    gauss_eliminate,
    matrix_hash,
    open_session,
    run_bench,
    session_solve,
    vector,
)

import factorkit.matio
import factorkit.matrices

from conftest import GOLD_A, GOLD_X1, GOLD_X2
from oracles import random_symmetric


class TestOpenSession:
    def test_auto_picks_gauss_cholesky_for_symmetric(self, golden_a):
        s = open_session(golden_a, "auto")
        assert s.method == KIND_GAUSS_CHOLESKY
        assert s.requested_method == "auto"

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
        assert s.matrix_hash == matrix_hash(golden_a)

    def test_auto_choice_invariant_under_scaling(self, golden_a):
        base = open_session(golden_a, "auto").method
        skew = DenseMatrix([[1, 2], [3, 4]])
        skew_base = open_session(skew, "auto").method
        for c in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            assert open_session(DenseMatrix(c * golden_a.data), "auto").method == base
            assert open_session(DenseMatrix(c * skew.data), "auto").method == skew_base


class TestSessionSolve:
    def test_first_solve_answers_through_elimination(self, golden_a, golden_b1):
        s = open_session(golden_a, "auto")
        report = session_solve(s, golden_b1)
        assert_array_equal(report.solutions.data.ravel(), np.array(GOLD_X1, dtype=float))
        assert report.flops == 72  # 34 eliminate + 12 rhs + 10 scale + 16 back
        assert s.factorization is not None

    def test_second_solve_reuses_factors(self, golden_a, golden_b1, golden_b2):
        s = open_session(golden_a, "auto")
        session_solve(s, golden_b1)
        report = session_solve(s, golden_b2)
        assert_array_equal(report.solutions.data.ravel(), np.array(GOLD_X2, dtype=float))
        assert report.flops == 32
        assert s.reuse_flops == [32]

    def test_elimination_flops_accrue_once(self, golden_a, golden_b1, golden_b2):
        s = open_session(golden_a, "auto")
        session_solve(s, golden_b1)
        first = s.first_flops
        session_solve(s, golden_b2)
        session_solve(s, golden_b1)
        assert s.first_flops == first
        assert len(s.reuse_flops) == 2

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
                want = back_substitute(record.u, record.transformed_rhs)
                num = np.linalg.norm(got.data - want.data)
                assert num <= 1e-10 * max(1.0, np.linalg.norm(want.data))

    def test_solve_log_keeps_residuals(self, golden_a, golden_b1, golden_b2):
        s = open_session(golden_a, "auto")
        session_solve(s, golden_b1)
        session_solve(s, golden_b2)
        assert set(s.solve_log) == {matrix_hash(golden_b1), matrix_hash(golden_b2)}
        assert all(r <= s.residual_tol for r in s.solve_log.values())

    @pytest.mark.parametrize("method", ["auto", "lu"])
    def test_solves_never_render_text(self, monkeypatch, method, golden_b1, golden_b2):
        def refuse(*args):
            raise AssertionError("text rendering reached the solve path")

        for module in (factorkit.matrices, factorkit.matio):
            monkeypatch.setattr(module, "canonical_text", refuse)
            monkeypatch.setattr(module, "format_entry", refuse)
        s = open_session(DenseMatrix(GOLD_A), method)
        for b in (golden_b1, golden_b2, golden_b1):
            session_solve(s, b)
        assert len(s.reuse_flops) == 2

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
        assert report.k_break_even == 1
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
        assert report.k_break_even == 0  # reuse never strictly cheaper at n = 1

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
    def test_deterministic_for_a_seed(self):
        assert run_bench(20, 5, seed=9) == run_bench(20, 5, seed=9)

    def test_reuse_total_under_35_percent(self):
        result = run_bench(50, 10, seed=0)
        assert result.method == KIND_GAUSS_CHOLESKY
        assert result.reuse_total < 0.35 * result.elimination_total

    def test_flop_identities(self):
        result = run_bench(12, 3, seed=1)
        assert result.reuse_total == result.factor_flops + 3 * result.reuse_flops_per_rhs
        assert result.elimination_total == 3 * result.elimination_flops_per_rhs
        assert result.reuse_flops_per_rhs == 2 * 12 * 12

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            run_bench(0, 1, seed=0)
        with pytest.raises(ValueError):
            run_bench(3, 0, seed=0)
