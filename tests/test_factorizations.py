import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from factorkit import (
    DenseMatrix,
    Factorization,
    KIND_GAUSS_CHOLESKY,
    KIND_LU,
    NonSquareError,
    NotSymmetricError,
    Provenance,
    ShapeError,
    ZeroPivotError,
    gauss_cholesky,
    gauss_cholesky_from_record,
    gauss_eliminate,
    lu_from_record,
    matrix_hash,
    parse_factorization,
    principal_sqrt,
    render_factorization,
    solve,
    transpose,
    vector,
    verify,
)

from factorkit.elimination import _SUBSTITUTION_BLOCK as NB
from factorkit.factorizations import _pivot_roots, from_record
from factorkit.matrices import EPS

from conftest import (
    BACK_OVERFLOW_MESSAGE,
    FORWARD_OVERFLOW_MESSAGE,
    GOLD_G,
    GOLD_L,
    GOLD_PIVOTS,
    GOLD_U,
    GOLD_X1,
    GOLD_X2,
    NEAR_SINGULAR_A,
    SIDE_OVERFLOW_A,
    SIDE_OVERFLOW_B,
    SUBSTITUTION_OVERFLOW_A,
    SUBSTITUTION_OVERFLOW_B,
    ULP_ABOVE_THRESHOLD_A,
    ZERO_PIVOT_A,
)
from oracles import (
    classical_upper_cholesky,
    random_spd,
    random_symmetric,
    row_back_substitute,
    row_forward_substitute,
)


def _rel_fro(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


def _eta(a, x, b):
    """Largest normwise backward error ||A x - b|| / (||A|| ||x|| + ||b||) over the columns, in the inf-norm."""
    r = np.max(np.abs(a @ x - b), axis=0)
    return float(np.max(r / (np.linalg.norm(a, np.inf) * np.max(np.abs(x), axis=0) + np.max(np.abs(b), axis=0))))


def _row_loop_solve(f, b):
    """solve() as the reference row loops do it: (solutions, flops)."""
    if f.kind == KIND_LU:
        y, forward = row_forward_substitute(f.l.data, b, True)
        x, back = row_back_substitute(f.u.data, y)
    else:
        y, forward = row_forward_substitute(f.g.data.T, b, False)
        x, back = row_back_substitute(f.g.data, y)
    return x, forward + back


def _blocked_case(kind, n, sides, seed):
    """(A, B, a function that factors A afresh) for one of ``BLOCKED_KINDS``."""
    rng = np.random.default_rng(seed)
    if kind == "spd":
        a = random_spd(rng, n)
    elif kind == "complex-symmetric":
        a = random_symmetric(rng, n, complex_entries=True) + n * np.eye(n)
    elif kind == "indefinite":  # negative pivots: G is complex
        a = random_symmetric(rng, n) + np.diag(n * (-1.0) ** np.arange(n))
    else:
        a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal((n, sides))
    am = DenseMatrix(a)
    return a, b, lambda: lu_from_record(gauss_eliminate(am)) if kind == "lu" else gauss_cholesky(am)


BLOCKED_KINDS = ["spd", "complex-symmetric", "indefinite", "lu"]


class TestFromRecord:
    def test_each_kind_packages_as_its_builder(self, golden_a):
        record = gauss_eliminate(golden_a)
        assert from_record(record, KIND_LU) == lu_from_record(record)
        assert from_record(record, KIND_GAUSS_CHOLESKY, 1e-3) == gauss_cholesky_from_record(record, 1e-3)

    def test_unknown_kind(self, golden_a):
        with pytest.raises(ValueError, match="unknown factorization kind 'qr'"):
            from_record(gauss_eliminate(golden_a), "qr")


class TestLuFromRecord:
    def test_golden_factors(self, golden_a):
        f = lu_from_record(gauss_eliminate(golden_a))
        assert f.kind == KIND_LU
        assert_array_equal(f.l.data, np.array(GOLD_L, dtype=float))
        assert_array_equal(f.u.data, np.array(GOLD_U, dtype=float))
        assert_array_equal(f.rebuild().data, golden_a.data)

    def test_identity(self):
        f = lu_from_record(gauss_eliminate(DenseMatrix(np.eye(4))))
        assert f.l == DenseMatrix(np.eye(4))
        assert f.u == DenseMatrix(np.eye(4))

    def test_provenance(self, golden_a):
        f = lu_from_record(gauss_eliminate(golden_a))
        assert f.provenance.matrix_hash == matrix_hash(golden_a)
        assert f.provenance.pivots == GOLD_PIVOTS
        assert f.provenance.flops == 34
        assert f.provenance.symmetry_tol is None

    def test_random_reconstruction(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 25))
            a = rng.standard_normal((n, n))
            f = lu_from_record(gauss_eliminate(DenseMatrix(a)))
            assert _rel_fro(f.rebuild().data, a) <= 1e-11


class TestGaussCholesky:
    def test_golden_g(self, golden_a):
        f = gauss_cholesky(golden_a)
        assert f.kind == KIND_GAUSS_CHOLESKY
        assert_array_equal(f.g.data, np.array(GOLD_G, dtype=float))
        assert f.provenance.symmetry_tol == 1e-12

    def test_one_by_one(self):
        f = gauss_cholesky(DenseMatrix([[4]]))
        assert f.g == DenseMatrix([[2]])

    def test_negative_one_goes_complex(self):
        f = gauss_cholesky(DenseMatrix([[-1]]))
        assert f.g.is_complex
        assert f.g[0, 0] == 1j
        assert_array_equal(f.rebuild().data, np.array([[-1.0 + 0j]]))

    def test_symmetric_but_zero_pivot(self):
        # det = -1 is nonzero, yet no factorization exists without pivoting
        with pytest.raises(ZeroPivotError) as exc:
            gauss_cholesky(DenseMatrix([[0, 1], [1, 0]]))
        assert exc.value.column == 1

    def test_rejects_non_symmetric(self):
        with pytest.raises(NotSymmetricError) as exc:
            gauss_cholesky(DenseMatrix([[1, 2], [3, 4]]))
        assert exc.value.deviation == 1.0
        assert set(exc.value.at) == {1, 2}

    def test_rejection_scans_the_matrix_once(self, symmetry_scans):
        # once for the verdict, not again for the message
        with pytest.raises(NotSymmetricError) as exc:
            gauss_cholesky(DenseMatrix([[1, 2], [3, 4]]))
        assert str(exc.value) == "matrix is not symmetric: |a[1,2] - a[2,1]| = 1.000000e+00 exceeds 4.000000e-12"
        assert len(symmetry_scans) == 1

    def test_rejects_hermitian_that_is_not_symmetric(self):
        a = DenseMatrix(np.array([[1, 1j], [-1j, 1]], dtype=complex))
        with pytest.raises(NotSymmetricError):
            gauss_cholesky(a)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            gauss_cholesky(DenseMatrix([[1, 2, 3], [2, 5, 6]]))

    def test_spd_stays_real_and_matches_classical_cholesky(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(1, 40))
            a = random_spd(rng, n)
            f = gauss_cholesky(DenseMatrix(a))
            assert not f.g.is_complex
            assert np.all(np.diagonal(f.g.data) > 0)
            c = classical_upper_cholesky(a)
            assert _rel_fro(f.g.data, c) <= 1e-9

    def test_indefinite_real_input_reports_negative_pivot(self):
        f = gauss_cholesky(DenseMatrix([[1, 2], [2, 1]]))
        assert f.provenance.pivots == (1.0, -3.0)
        assert f.g.is_complex
        assert _rel_fro(f.rebuild().data, np.array([[1, 2], [2, 1]], dtype=complex)) <= 1e-14

    def test_complex_symmetric_reconstruction(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(1, 20))
            a = random_symmetric(rng, n, complex_entries=True)
            try:
                f = gauss_cholesky(DenseMatrix(a))
            except ZeroPivotError:
                continue
            assert _rel_fro(f.rebuild().data, a) <= 1e-9

    def test_diagonal_equals_principal_root_of_pivot(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = random_symmetric(rng, 6)
            try:
                f = gauss_cholesky(DenseMatrix(a))
            except ZeroPivotError:
                continue
            for i, p in enumerate(f.provenance.pivots):
                assert f.g[i, i] == principal_sqrt(p)

    def test_eliminates_one_triangle(self):
        # Above one panel the two eliminations round differently, so U tells them apart.
        a = DenseMatrix(random_spd(np.random.default_rng(33), 100))
        one_triangle, general = gauss_eliminate(a, symmetric=True), gauss_eliminate(a)
        assert not np.array_equal(np.triu(one_triangle.lu.data), np.triu(general.lu.data))
        f = gauss_cholesky(a)
        assert f.g.data.tobytes() == gauss_cholesky_from_record(one_triangle).g.data.tobytes()
        assert f.provenance == gauss_cholesky_from_record(one_triangle).provenance

    def test_pivot_roots_are_bitwise_the_per_pivot_principal_sqrt(self):
        rng = np.random.default_rng(34)
        cases = [(-0.0, 0.0, -1.0, 1.0), (5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)]
        for i in range(2000):
            n = int(rng.integers(1, 12))
            magnitudes = 10.0 ** rng.uniform(-300, 300, n)
            signs = rng.choice([-1.0, 1.0], n) if i % 3 else np.ones(n)  # a third stay real
            pivots = magnitudes * signs
            if i % 5 == 0:
                pivots = pivots * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
            cases.append(tuple(pivots.tolist()))
        for pivots in cases:
            roots = _pivot_roots(pivots)
            expected = np.array([principal_sqrt(p) for p in pivots])
            assert roots.dtype == expected.dtype
            assert roots.tobytes() == expected.tobytes(), pivots

    def test_row_scaling_identity_from_the_construction(self):
        # L(A) diag(sqrt(u_ii)) must equal transpose(diag(1/sqrt(u_ii)) U(A))
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = random_symmetric(rng, 7)
            try:
                record = gauss_eliminate(DenseMatrix(a))
            except ZeroPivotError:
                continue
            roots = np.array([principal_sqrt(p) for p in record.pivots])
            l = np.eye(7) + np.tril(record.lu.data, -1)
            lhs = l * roots[None, :]
            rhs = (np.triu(record.lu.data) / roots[:, None]).T
            assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(rhs)


class TestSolve:
    def test_golden_gauss_cholesky_solve(self, golden_a, golden_b2):
        report = solve(gauss_cholesky(golden_a), golden_b2)
        assert_array_equal(report.solutions.data.ravel(), np.array(GOLD_X2, dtype=float))
        assert report.residuals[0] <= 1e-14
        assert report.method == KIND_GAUSS_CHOLESKY

    def test_golden_lu_solve(self, golden_a, golden_b1):
        report = solve(lu_from_record(gauss_eliminate(golden_a)), golden_b1)
        assert_array_equal(report.solutions.data.ravel(), np.array(GOLD_X1, dtype=float))
        assert report.residuals[0] <= 1e-14

    def test_zero_rhs_gives_zero_solution(self, golden_a):
        report = solve(gauss_cholesky(golden_a), vector([0, 0, 0, 0]))
        assert not np.any(report.solutions.data)

    def test_multi_column(self, golden_a, golden_b1, golden_b2):
        f = gauss_cholesky(golden_a)
        both = DenseMatrix(np.hstack([golden_b1.data, golden_b2.data]))
        report = solve(f, both)
        assert report.solutions.column(0) == vector(GOLD_X1)
        assert report.solutions.column(1) == vector(GOLD_X2)
        assert len(report.residuals) == 2

    def test_substitution_flops(self, golden_a, golden_b1):
        # n = 4: unit forward 12 + back 16 for lu; 16 + 16 for gauss-cholesky
        assert solve(lu_from_record(gauss_eliminate(golden_a)), golden_b1).flops == 28
        assert solve(gauss_cholesky(golden_a), golden_b1).flops == 32

    def test_rhs_shape_mismatch(self, golden_a):
        with pytest.raises(ShapeError):
            solve(gauss_cholesky(golden_a), vector([1, 2]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", [KIND_LU, KIND_GAUSS_CHOLESKY])
    @pytest.mark.parametrize(
        "a, b, message",
        [
            (SIDE_OVERFLOW_A, SIDE_OVERFLOW_B, FORWARD_OVERFLOW_MESSAGE),
            (SUBSTITUTION_OVERFLOW_A, SUBSTITUTION_OVERFLOW_B, BACK_OVERFLOW_MESSAGE),
        ],
        ids=["forward", "back"],
    )
    def test_overflowing_substitution_raises_overflow_error(self, kind, a, b, message):
        f = from_record(gauss_eliminate(DenseMatrix(a)), kind)
        with pytest.raises(OverflowError, match=f"^{message}$"):
            solve(f, vector(b))

    def test_lu_and_gc_agree_on_symmetric_systems(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            a = random_symmetric(rng, n)
            b = vector(rng.uniform(-1, 1, n))
            try:
                am = DenseMatrix(a)
                x_lu = solve(lu_from_record(gauss_eliminate(am)), b).solutions.data
                x_gc = solve(gauss_cholesky(am), b).solutions.data
            except ZeroPivotError:
                continue
            assert np.linalg.norm(x_lu - x_gc) <= 1e-9 * np.linalg.norm(x_lu)


class TestBlockedSolve:
    """Above NB rows, solve() substitutes block by block through the cached
    inverses of the factors' diagonal blocks; at most NB rows, by the row loop."""

    @pytest.mark.parametrize("sides", [1, 3])
    @pytest.mark.parametrize("kind", BLOCKED_KINDS)
    @pytest.mark.parametrize("n", [1, 17, NB])
    def test_one_block_is_bitwise_the_row_loops(self, n, kind, sides):
        a, b, factor = _blocked_case(kind, n, sides, seed=n + sides)
        f = factor()
        report = solve(f, DenseMatrix(b))
        x, flops = _row_loop_solve(f, b)
        assert f._inverses == (None, None)
        assert report.solutions.data.tobytes() == x.tobytes()
        assert report.flops == flops

    @pytest.mark.parametrize("sides", [1, 3])
    @pytest.mark.parametrize("kind", BLOCKED_KINDS)
    @pytest.mark.parametrize("n", [NB + 1, 200])
    def test_blocks_are_backward_stable_and_deterministic(self, n, kind, sides):
        a, b, factor = _blocked_case(kind, n, sides, seed=n + sides)
        f = factor()
        if kind == "indefinite":
            assert f.g.is_complex
        report = solve(f, DenseMatrix(b))
        assert all(inverse is not None for inverses in f._inverses for inverse in inverses)
        assert report.flops == _row_loop_solve(f, b)[1]
        assert _eta(a, report.solutions.data, b) <= 1e-14
        assert solve(factor(), DenseMatrix(b)).solutions.data.tobytes() == report.solutions.data.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_ill_conditioned_block_keeps_the_row_loop(self, seed):
        # a_11 = 1e-6 makes the first column's multipliers about 1e6, so the
        # first diagonal block of L has ||T|| ||T^-1|| near 1e12.
        rng = np.random.default_rng(seed)
        n = 200
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        a[0, 0] = 1e-6
        b = rng.standard_normal((n, 1))
        f = lu_from_record(gauss_eliminate(DenseMatrix(a)))
        report = solve(f, DenseMatrix(b))
        forward, back = f._inverses
        assert forward[0] is None and back[0] is None
        assert forward[-1] is not None and back[-1] is not None
        assert _eta(a, report.solutions.data, b) <= 4 * _eta(a, _row_loop_solve(f, b)[0], b)


class TestVerifyAndValidation:
    def test_verify_golden(self, golden_a):
        assert verify(gauss_cholesky(golden_a), golden_a) <= 1e-14

    def test_verify_lu_identity(self):
        assert verify(lu_from_record(gauss_eliminate(DenseMatrix(np.eye(3)))), DenseMatrix(np.eye(3))) == 0.0

    def test_verify_random_spd(self):
        rng = np.random.default_rng(13)
        a = random_spd(rng, 20)
        assert verify(gauss_cholesky(DenseMatrix(a)), DenseMatrix(a)) <= 1e-12

    def test_verify_against_a_zero_matrix_is_infinite(self, golden_a):
        assert verify(gauss_cholesky(golden_a), DenseMatrix(np.zeros((4, 4)))) == float("inf")

    def test_verify_shape_mismatch(self, golden_a):
        with pytest.raises(ShapeError):
            verify(gauss_cholesky(golden_a), DenseMatrix(np.eye(3)))

    def test_construction_rejects_wrong_kind(self, golden_a):
        record = gauss_eliminate(golden_a)
        prov = Provenance(record.source_hash, record.pivots, record.flops)
        with pytest.raises(ValueError):
            Factorization(kind="qr", n=4, provenance=prov, u=lu_from_record(record).u)

    def test_construction_rejects_missing_factors(self, golden_a):
        record = gauss_eliminate(golden_a)
        prov = Provenance(record.source_hash, record.pivots, record.flops)
        with pytest.raises(ValueError):
            Factorization(kind=KIND_LU, n=4, provenance=prov, u=lu_from_record(record).u)

    def test_construction_rejects_non_unit_l(self, golden_a):
        record = gauss_eliminate(golden_a)
        prov = Provenance(record.source_hash, record.pivots, record.flops)
        with pytest.raises(ValueError, match="unit diagonal"):
            Factorization(kind=KIND_LU, n=4, provenance=prov, l=DenseMatrix(2 * np.eye(4)), u=lu_from_record(record).u)

    def test_construction_rejects_factors_of_mixed_fields(self, golden_a):
        # A factor file has one field for all its factors, so such a pair could not be read back.
        f = lu_from_record(gauss_eliminate(golden_a))
        with pytest.raises(ValueError, match="lu factors must be all real or all complex"):
            dataclasses.replace(f, u=DenseMatrix(f.u.data.astype(complex)))
        with pytest.raises(ValueError, match="lu factors must be all real or all complex"):
            dataclasses.replace(f, l=DenseMatrix(f.l.data.astype(complex)))

    def test_construction_rejects_zero_diagonal_g(self):
        prov = Provenance("0" * 16, (0.0,), 0)
        with pytest.raises(ValueError, match="negligible"):
            Factorization(kind=KIND_GAUSS_CHOLESKY, n=2, provenance=prov, g=DenseMatrix([[1, 1], [0, 0]]))

    def test_transpose_of_g_is_not_stored(self, golden_a):
        f = gauss_cholesky(golden_a)
        assert f.l is None and f.u is None
        assert transpose(f.g) == DenseMatrix(np.array(GOLD_G, dtype=float).T)


class TestRebuild:
    @pytest.mark.parametrize("n", [5, 17, 64])
    @pytest.mark.parametrize("shape", ["spd", "indefinite", "complex-symmetric"])
    def test_g_transpose_g_is_exactly_symmetric(self, shape, n):
        rng = np.random.default_rng(n)
        if shape == "spd":
            a = random_spd(rng, n)
        elif shape == "indefinite":  # diagonally dominant with diagonal signs +, -, +, ...
            a = random_symmetric(rng, n) + n * np.diag((-1.0) ** np.arange(n))
        else:
            a = random_symmetric(rng, n, complex_entries=True) + n * np.eye(n)
        f = gauss_cholesky(DenseMatrix(a))
        rebuilt = f.rebuild().data
        assert_array_equal(rebuilt, rebuilt.T)
        assert verify(f, DenseMatrix(a)) <= 1e-13

    @pytest.mark.parametrize("scale", [2.0**-1000, 1e-160, 1e160, 1e200, 1e300])
    @pytest.mark.parametrize("kind", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_verify_is_relative_at_any_magnitude(self, kind, scale):
        a = DenseMatrix(random_spd(np.random.default_rng(14), 6) * scale)
        f = from_record(gauss_eliminate(a), kind)
        error = verify(f, a)
        assert error == 0.0 if np.array_equal(f.rebuild().data, a.data) else 0.0 < error <= 1e-14

    def test_verify_near_the_largest_double(self):
        # max|A| >= 2**1023, whose power of two 2**1024 is not a double
        a = DenseMatrix([[1.7e308, 1e307], [1e307, 1e308]])
        assert verify(gauss_cholesky(a), a) <= 1e-14


class TestOnePivotPolicy:
    """A pivot is judged once, by the elimination; the factors carry its threshold."""

    def test_near_singular_pivot_accepted_on_every_path(self):
        a = DenseMatrix(NEAR_SINGULAR_A)
        b = vector([1, 2])
        lu = lu_from_record(gauss_eliminate(a))
        gc = gauss_cholesky(a)
        for f in (lu, gc):
            assert f.provenance.pivot_threshold == 2 * EPS * 1.0
            report = solve(f, b)
            assert report.residuals[0] <= 1e-8
        assert lu.provenance.pivots == gc.provenance.pivots == (1e-8, 1 - 1e8)

    def test_zero_pivot_rejected_on_every_path(self):
        a = DenseMatrix(ZERO_PIVOT_A)
        for build in (lambda: lu_from_record(gauss_eliminate(a)), lambda: gauss_cholesky(a)):
            with pytest.raises(ZeroPivotError) as exc:
                build()
            assert exc.value.column == 1

    @pytest.mark.parametrize("kind", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_recorded_threshold_judges_the_divisors(self, kind, golden_a):
        # golden pivots are (1, 4, 4, 1): u_ii for LU, g_ii^2 for G
        record = gauss_eliminate(golden_a)
        f = lu_from_record(record) if kind == KIND_LU else gauss_cholesky(golden_a)
        factors = {name: getattr(f, name) for name in ("l", "u", "g") if getattr(f, name) is not None}
        for threshold, accepted in ((0.0, True), (0.999, True), (1.0, False), (4.0, False)):
            prov = dataclasses.replace(f.provenance, pivot_threshold=threshold)
            if accepted:
                Factorization(kind=kind, n=4, provenance=prov, **factors)
            else:
                with pytest.raises(ValueError, match="negligible diagonal entry"):
                    Factorization(kind=kind, n=4, provenance=prov, **factors)

    def test_g_is_judged_by_its_squared_diagonal(self):
        # pivots (0.25, 4), G's diagonal (0.5, 2): a threshold of 0.3 lies between
        f = gauss_cholesky(DenseMatrix([[0.25, 0], [0, 4]]))
        prov = dataclasses.replace(f.provenance, pivot_threshold=0.3)
        with pytest.raises(ValueError, match="factor g has a negligible diagonal entry"):
            Factorization(kind=KIND_GAUSS_CHOLESKY, n=2, provenance=prov, g=f.g)

    def test_pivot_one_ulp_above_the_threshold_accepted_on_every_path(self):
        a = DenseMatrix(ULP_ABOVE_THRESHOLD_A)
        record = gauss_eliminate(a)
        pivot, threshold = record.pivots[0], record.pivot_threshold
        assert pivot == np.nextafter(threshold, np.inf)
        assert principal_sqrt(pivot) ** 2 <= threshold  # G's squared diagonal would fail
        for f in (lu_from_record(record), gauss_cholesky(a)):
            assert f.provenance.pivot_threshold == threshold
            assert parse_factorization(render_factorization(f)) == f

    @pytest.mark.parametrize("kind", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_recorded_threshold_requires_the_pivots_on_the_diagonal(self, kind, golden_a):
        # -u_ii and -g_ii pass any magnitude test, but are not the pivots' own divisors
        f = lu_from_record(gauss_eliminate(golden_a)) if kind == KIND_LU else gauss_cholesky(golden_a)
        name = "u" if kind == KIND_LU else "g"
        flipped = getattr(f, name).data.copy()
        flipped[3, 3] = -flipped[3, 3]
        factors = {"l": f.l, "u": DenseMatrix(flipped)} if kind == KIND_LU else {"g": DenseMatrix(flipped)}
        with pytest.raises(ValueError, match=f"factor {name} has a diagonal that is not the recorded pivots' own"):
            Factorization(kind=kind, n=4, provenance=f.provenance, **factors)
        unrecorded = dataclasses.replace(f.provenance, pivot_threshold=None)
        Factorization(kind=kind, n=4, provenance=unrecorded, **factors)  # the factor-scaled rule passes it

    def test_unrecorded_threshold_keeps_the_factor_scaled_rule(self):
        # Without a recorded threshold the rule is n * eps * max|factor|, under
        # which U = [[1e-8, 1], [0, 1 - 1e8]] has a negligible diagonal entry.
        f = lu_from_record(gauss_eliminate(DenseMatrix(NEAR_SINGULAR_A)))
        prov = dataclasses.replace(f.provenance, pivot_threshold=None)
        with pytest.raises(ValueError, match="factor u has a negligible diagonal entry"):
            Factorization(kind=KIND_LU, n=2, provenance=prov, l=f.l, u=f.u)
        gc = gauss_cholesky(DenseMatrix(NEAR_SINGULAR_A))
        prov = dataclasses.replace(gc.provenance, pivot_threshold=None)
        Factorization(kind=KIND_GAUSS_CHOLESKY, n=2, provenance=prov, g=gc.g)  # max|G| = 1e4: passes

    def test_no_threshold_computed_after_the_elimination(self, pivot_threshold_calls, golden_a, golden_b1):
        lu = lu_from_record(gauss_eliminate(golden_a))
        gc = gauss_cholesky(golden_a)
        assert len(pivot_threshold_calls) == 2
        for f in (lu, gc):
            solve(f, golden_b1)
            solve(f, DenseMatrix(np.eye(4)))
        assert len(pivot_threshold_calls) == 2

    def test_structural_check_names_the_factor(self, golden_a):
        f = gauss_cholesky(golden_a)
        with pytest.raises(ShapeError, match="upper-triangular factor g"):
            Factorization(kind=KIND_GAUSS_CHOLESKY, n=4, provenance=f.provenance, g=DenseMatrix(GOLD_L))
        with pytest.raises(ShapeError, match="factor g must be 4x4"):
            Factorization(kind=KIND_GAUSS_CHOLESKY, n=4, provenance=f.provenance, g=DenseMatrix(np.eye(3)))
