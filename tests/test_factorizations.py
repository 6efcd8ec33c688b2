import copy
import dataclasses
import pickle
import warnings

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
    cost_report,
    open_session,
    render_factorization,
    residual_norm,
    session_solve,
    solve,
    transpose,
    vector,
    verify,
)

import factorkit.factorizations
import factorkit.matrices
import factorkit.workflow
import oracles
from factorkit.elimination import _SUBSTITUTION_BLOCK as NB
from factorkit.elimination import EliminationRecord, _block_inverses, _substitute_rows
from factorkit.factorizations import FACTOR_NAMES, _pivot_roots, _substitute_factors, from_record, require_symmetric
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
    LARGEST_DOUBLE_A,
    MODULUS_OVERFLOW_A,
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
    eta,
    random_spd,
    random_symmetric,
    row_back_substitute,
    row_forward_substitute,
)


def _rel_fro(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


def _row_loop_solve(f, b):
    """solve() as the reference row loops do it: (solutions, flops)."""
    if f.kind == KIND_LU:
        y, forward = row_forward_substitute(f.l.data, b, True)
        x, back = row_back_substitute(f.u.data, y)
    else:
        y, forward = row_forward_substitute(f.g.data.T, b, False)
        x, back = row_back_substitute(f.g.data, y)
    return x, forward + back


def _ill_conditioned_case(n, seed):
    """(A, b, LU factorization, its solve() report, the row loops' answer) with
    a_11 = 1e-6: the first column's multipliers are about 1e6, so the first
    diagonal block of L has ||T|| ||T^-1|| near 1e12."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    a[0, 0] = 1e-6
    b = rng.standard_normal((n, 1))
    f = lu_from_record(gauss_eliminate(DenseMatrix(a)))
    return a, b, f, solve(f, DenseMatrix(b)), _row_loop_solve(f, b)[0]


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


class TestProvenanceIdentity:
    """A provenance built from an elimination record references its source
    matrix until the hash is read; it is still equal, printed, copied and
    pickled by the hash value."""

    @pytest.fixture(params=[(KIND_LU, 4), (KIND_LU, 100), (KIND_GAUSS_CHOLESKY, 4), (KIND_GAUSS_CHOLESKY, 100)])
    def fresh(self, request):
        """A factorization of a fresh matrix, whose hash nothing has read yet, and that matrix."""
        kind, n = request.param
        a = DenseMatrix(random_spd(np.random.default_rng(n), n))
        return from_record(gauss_eliminate(a, symmetric=kind == KIND_GAUSS_CHOLESKY), kind), a

    def test_render_parse_round_trip(self, fresh):
        f, _ = fresh
        assert parse_factorization(render_factorization(f)) == f

    def test_repr_shows_the_hash_not_the_matrix(self, fresh):
        f, a = fresh
        p = f.provenance
        text = repr(p)
        assert text == (
            f"Provenance(matrix_hash={matrix_hash(a)!r}, pivots={p.pivots!r}, flops={p.flops!r}, "
            f"symmetry_tol={p.symmetry_tol!r}, hash_scheme='bytes', pivot_threshold={p.pivot_threshold!r})"
        )
        assert "DenseMatrix" not in text

    def test_copies_and_pickles_compare_equal(self, fresh):
        f, a = fresh
        for p in (copy.copy(f.provenance), pickle.loads(pickle.dumps(f.provenance))):
            assert p == f.provenance and p.matrix_hash == matrix_hash(a)
        assert pickle.loads(pickle.dumps(f)) == f

    def test_copies_and_pickles_carry_the_hash_not_the_matrix(self, fresh):
        f, _ = fresh
        assert b"DenseMatrix" not in pickle.dumps(f.provenance)
        assert "_source" not in vars(copy.copy(f.provenance))

    def test_built_from_a_hash_string_equals_the_record_built_one(self, fresh):
        f, a = fresh
        p = f.provenance
        positional = Provenance(matrix_hash(a), p.pivots, p.flops, p.symmetry_tol, "bytes", p.pivot_threshold)
        assert positional == p and p == positional

    def test_hashes_on_first_read_then_drops_the_matrix(self, fresh, matrix_hash_calls):
        f, a = fresh
        assert "_source" in vars(f.provenance)
        assert f.provenance.matrix_hash == f.provenance.matrix_hash == matrix_hash(a)
        assert len(matrix_hash_calls) == 1
        assert "_source" not in vars(f.provenance)
        with pytest.raises(AttributeError, match="'Provenance' object has no attribute 'source'"):
            f.provenance.source


# (kind, matrix) pairs whose factors a record-built factorization forms:
# real and complex, real and complex G, one panel and several, and a -0.0
# multiplier (m_21 = 0 / -2), which L = I + tril(lu, -1) turns into +0.0.
RECORD_BUILT = {
    "lu-spd-4": (KIND_LU, lambda rng: random_spd(rng, 4)),
    "lu-nonsymmetric-100": (KIND_LU, lambda rng: rng.standard_normal((100, 100)) + 100 * np.eye(100)),
    "lu-negative-zero-multiplier": (KIND_LU, lambda rng: np.array([[-2.0, 1, 0], [0, 3, 1], [1, 0, 4]])),
    "gc-spd-100": (KIND_GAUSS_CHOLESKY, lambda rng: random_spd(rng, 100)),
    "gc-indefinite-40": (
        KIND_GAUSS_CHOLESKY,
        lambda rng: random_symmetric(rng, 40) + np.diag(40 * (-1.0) ** np.arange(40)),
    ),
    "gc-complex-symmetric-20": (
        KIND_GAUSS_CHOLESKY,
        lambda rng: random_symmetric(rng, 20, complex_entries=True) + 20 * np.eye(20),
    ),
}


class TestRecordBuiltFactors:
    """A factorization packaged from an elimination record forms its kind's
    factors from the packed array and is validated by the constructor;
    nothing about it differs from the same factors formed up front and
    passed to the constructor. A session packages its first solve's record
    only when the factorization is first read, and then drops the record."""

    @pytest.fixture(params=list(RECORD_BUILT))
    def case(self, request):
        """(a function that packages a fresh record, that record, the factors formed up front as arrays)."""
        kind, make = RECORD_BUILT[request.param]
        record = gauss_eliminate(DenseMatrix(make(np.random.default_rng(3))), symmetric=kind == KIND_GAUSS_CHOLESKY)
        return (lambda: from_record(record, kind)), record, oracles.packed_factors(record.lu.data, record.pivots)

    @staticmethod
    def _eager(f, arrays):
        """``f`` as ``from_factors`` builds it from factors formed up front, validating them."""
        factors = {name: DenseMatrix(arrays[name]) for name in FACTOR_NAMES[f.kind]}
        return Factorization.from_factors(f.kind, f.n, f.provenance, **factors)

    def test_factors_are_bitwise_those_formed_up_front(self, case):
        package, _, arrays = case
        f = package()
        for name in "lug":
            factor = getattr(f, name)
            if name not in FACTOR_NAMES[f.kind]:
                assert factor is None
                continue
            assert factor.data.dtype == arrays[name].dtype
            assert factor.data.tobytes() == arrays[name].tobytes()  # -0.0 and +0.0 differ here
            assert not factor.data.flags.writeable

    def test_equals_the_eager_factorization_before_any_read(self, case):
        package, _, arrays = case
        f = package()
        assert f == self._eager(f, arrays)
        other = package()
        assert self._eager(other, arrays) == other

    def test_repr_copies_pickles_and_files_agree_with_the_eager_one(self, case):
        package, _, arrays = case
        eager = self._eager(package(), arrays)
        assert repr(package()) == repr(eager)
        assert copy.copy(package()) == eager
        assert pickle.loads(pickle.dumps(package())) == eager
        assert parse_factorization(render_factorization(package())) == eager
        assert render_factorization(package()) == render_factorization(eager)

    @pytest.fixture(params=list(RECORD_BUILT))
    def session(self, request):
        """A session on the case's matrix, with the case's kind as its method, that has not solved yet."""
        kind, make = RECORD_BUILT[request.param]
        return open_session(DenseMatrix(make(np.random.default_rng(3))), kind)

    def test_first_read_forms_every_factor_once_and_drops_the_packed_array(self, session, record_builds):
        session_solve(session, DenseMatrix(np.ones((session.matrix.rows, 1))))
        record = session._solved
        assert isinstance(record, EliminationRecord)
        arrays = oracles.packed_factors(record.lu.data, record.pivots)
        f = session.factorization
        assert f is session.factorization
        assert len(record_builds) == 1
        for name in FACTOR_NAMES[f.kind]:
            assert getattr(f, name).data.tobytes() == arrays[name].tobytes()
        assert not any(isinstance(v, (EliminationRecord, np.ndarray)) for v in vars(session).values())
        assert not any(isinstance(v, np.ndarray) for v in vars(f).values())  # neither the array nor the roots

    def test_first_session_solve_packages_nothing(self, session, monkeypatch, record_builds):
        monkeypatch.setattr(factorkit.workflow, "from_record", lambda *a: record_builds.append(a))
        session_solve(session, DenseMatrix(np.ones((session.matrix.rows, 1))))
        cost_report(session)
        assert record_builds == []
        assert isinstance(session._solved, EliminationRecord)

    def test_packaging_validates_each_factor_once(self, case, monkeypatch):
        # A record's G is checked as triangular once; LU's packed array has no
        # triangle to check, while L and U formed up front are checked each.
        package, _, arrays = case
        checks = []
        original = factorkit.factorizations._require_triangular
        monkeypatch.setattr(
            factorkit.factorizations, "_require_triangular", lambda *a, **k: checks.append(a) or original(*a, **k)
        )
        f = package()
        packaged = len(checks)
        assert packaged == (f.kind == KIND_GAUSS_CHOLESKY)
        solve(f, DenseMatrix(np.ones((f.n, 1))))
        assert len(checks) == packaged
        self._eager(f, arrays)
        assert len(checks) == packaged + len(FACTOR_NAMES[f.kind])

    def test_lu_packaging_adopts_the_record_array(self, case):
        package, record, _ = case
        f = package()
        if f.kind == KIND_LU:
            assert f.lu is record.lu
            assert [v for v in vars(f).values() if isinstance(v, DenseMatrix)] == [record.lu]

    def test_replace_validates_what_it_is_given(self, golden_a):
        f = lu_from_record(gauss_eliminate(golden_a))
        with pytest.raises(ShapeError, match="factor lu must be 4x4, got 4x3"):
            dataclasses.replace(f, lu=DenseMatrix(np.ones((4, 3))))
        with pytest.raises(ShapeError, match="expected an exactly upper-triangular factor u"):
            Factorization.from_factors(KIND_LU, 4, f.provenance, l=f.l, u=DenseMatrix(np.ones((4, 4))))
        assert dataclasses.replace(f) == f

    def test_an_overflowing_g_fails_only_as_a_value_error(self):
        # A record gauss_eliminate cannot make: eliminating a symmetric matrix,
        # its update of pivot 2 forms g_12^2 = u_12 * m_21 and would already have
        # failed on a non-finite pivot.
        a = DenseMatrix([[1e-2, 1e308], [1e300, 4]])
        record = EliminationRecord(a, (1e-2, 4.0), None, 0, a, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^non-finite entry at \(1,2\): inf$"):
                gauss_cholesky_from_record(record).g  # at packaging or at this first read


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

    def test_rejection_bound_is_finite_when_a_modulus_overflows(self):
        # |a_12 - a_21| overflows, and the bound is tol times the saturated max|a_ij|.
        with pytest.raises(NotSymmetricError) as exc:
            require_symmetric(DenseMatrix(MODULUS_OVERFLOW_A))
        assert exc.value.deviation == np.inf
        assert exc.value.bound == 1e-12 * np.finfo(np.float64).max

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
    """At every size, solve() substitutes block by block through the cached
    inverses of the factors' diagonal blocks of NB rows; a block too ill
    conditioned to be applied by its inverse is solved by LAPACK instead."""

    @pytest.mark.parametrize("sides", [1, 3])
    @pytest.mark.parametrize("kind", BLOCKED_KINDS)
    @pytest.mark.parametrize("n", [1, 17, NB])
    def test_one_block_agrees_with_the_row_loops(self, n, kind, sides):
        a, b, factor = _blocked_case(kind, n, sides, seed=n + sides)
        f = factor()
        report = solve(f, DenseMatrix(b))
        x, flops = _row_loop_solve(f, b)
        if kind == "indefinite":  # a real system: its answer is real, as the row loops' is
            assert not np.imag(x).any()
            x = x.real
        assert all(len(inverses) == 1 and inverses[0] is not None for inverses in f._inverses)
        assert report.solutions.data.dtype == x.dtype
        assert eta(a, report.solutions.data, b) <= 1e-14
        assert eta(a, x, b) <= 1e-14
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
        assert eta(a, report.solutions.data, b) <= 1e-14
        assert solve(factor(), DenseMatrix(b)).solutions.data.tobytes() == report.solutions.data.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [4, 16, NB, 200])
    def test_ill_conditioned_block_has_no_inverse(self, n, seed):
        a, b, f, report, x = _ill_conditioned_case(n, seed)
        forward, back = f._inverses
        assert forward[0] is None and back[0] is None
        if n <= NB:  # the one block of each triangle is solved by substitution
            assert f._inverses == ((None,), (None,))
        else:
            assert forward[-1] is not None and back[-1] is not None
        # Higham, Accuracy and Stability, Theorem 9.4: substituting through the
        # computed factors, in any order of summation, leaves each row's
        # residual within gamma_3n (|L| |U| |x|)_i.
        u = EPS / 2
        gamma = 3 * n * u / (1 - 3 * n * u)
        for answer in (report.solutions.data, x):
            assert np.all(np.abs(b - a @ answer) <= gamma * (np.abs(f.l.data) @ np.abs(f.u.data) @ np.abs(answer)))

    @pytest.mark.parametrize("n", [4, 16, NB, 200])
    def test_ill_conditioned_blocks_are_as_accurate_as_the_row_loops(self, n):
        # One seed's ratio of backward errors is rounding luck that depends on
        # OpenBLAS's kernel (up to 8.8 on one core type), so 20 seeds are
        # judged together: a solve through the ill-conditioned block's inverse
        # reads 11 to 31 times the row loops' median at n = 64.
        solved, looped = np.array([
            [eta(a, answer, b) for answer in (report.solutions.data, x)]
            for a, b, f, report, x in (_ill_conditioned_case(n, seed) for seed in range(20))
        ]).T
        assert solved.max() <= 4 * looped.max()
        assert np.median(solved / looped) <= 2

    @pytest.mark.parametrize("kind", BLOCKED_KINDS)
    def test_copies_and_pickles_leave_the_inverses_behind(self, kind):
        a, b, factor = _blocked_case(kind, NB + 1, 1, seed=7)
        f = factor()
        size = len(pickle.dumps(f))
        report = solve(f, DenseMatrix(b))
        assert "_inverses" in vars(f) and "_rebuilt" in vars(f)
        assert len(pickle.dumps(f)) == size
        for other in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert "_inverses" not in vars(other) and "_rebuilt" not in vars(other)
            assert other == f
            again = solve(other, DenseMatrix(b))
            assert again.solutions.data.tobytes() == report.solutions.data.tobytes()
            assert again.residuals == report.residuals

    @pytest.mark.parametrize("sides", [1, 3])
    @pytest.mark.parametrize("kind", BLOCKED_KINDS)
    def test_residuals_are_those_against_a_freshly_formed_product(self, kind, sides):
        a, b, factor = _blocked_case(kind, NB + 1, sides, seed=11)
        f = factor()
        reports = [solve(f, DenseMatrix(b)) for _ in range(3)]
        assert f.rebuild() is f.rebuild()
        fresh = DenseMatrix(factorkit.factorizations._product(f))
        want = np.array([residual_norm(fresh, reports[0].solutions.column(j), DenseMatrix(b).column(j))
                         for j in range(sides)])
        for report in reports:
            assert np.array(report.residuals).tobytes() == want.tobytes()


class TestPackedLu:
    """An LU factorization holds the elimination's packed array. Its inverses
    and answers are bitwise those of L and U formed apart, and its product,
    formed block by block from the packed triangles, is a dense L @ U's to
    rounding, at and around the block edges."""

    @pytest.mark.parametrize("ride", [False, True])
    @pytest.mark.parametrize(
        "n, ill",
        [(1, False), (63, False), (64, False), (65, False), (200, False), (600, False), (65, True), (200, True)],
    )
    def test_answers_are_bitwise_those_of_l_and_u_formed_apart(self, n, ill, ride):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        if ill:  # the first column's multipliers are about 1e6: L's first block gets no inverse
            a[0, 0] = 1e-6
        sides = rng.standard_normal((n, 3))
        record = gauss_eliminate(DenseMatrix(a), DenseMatrix(sides[:, :1]) if ride else None)
        assert record.lu.data.strides[0] == (n + ride) * 8  # a side that rode leaves a strided view
        f = lu_from_record(record)
        arrays = oracles.packed_factors(record.lu.data, record.pivots)
        want = _block_inverses(arrays["l"], True), _block_inverses(arrays["u"], False)
        for got_set, want_set in zip(f._inverses, want):
            assert [v is None for v in got_set] == [v is None for v in want_set]
            assert all(v is None or v.tobytes() == w.tobytes() for v, w in zip(got_set, want_set))
        assert (want[0][0] is None) == ill  # then _block_solve runs on the packed block
        for c in (sides[:, :1], sides):
            y, _ = _substitute_rows(arrays["l"], c, lower=True, unit_diagonal=True, inverses=want[0])
            x, _ = _substitute_rows(arrays["u"], y, lower=False, unit_diagonal=False, inverses=want[1])
            assert _substitute_factors(f, DenseMatrix(c))[0].data.tobytes() == x.tobytes()

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 320])
    def test_product_agrees_with_a_dense_l_times_u(self, n, field):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        if field == "complex":
            a = a + 1j * rng.standard_normal((n, n))
        f = lu_from_record(gauss_eliminate(DenseMatrix(a)))
        l, u = f.l.data, f.u.data
        bound = n * EPS * np.linalg.norm(np.abs(l) @ np.abs(u), np.inf)
        assert np.linalg.norm(f.rebuild().data - l @ u, np.inf) <= bound

    @pytest.mark.parametrize("scale", [1.0, 2.0**-1000, 2.0**1000])
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 320])
    def test_verify_reads_zero_exactly_when_the_product_is_a(self, n, exact, scale):
        rng = np.random.default_rng(n)
        if exact:  # L and U of small integers, the diagonals 1: elimination and product are exact
            l = np.tril(rng.integers(-1, 2, (n, n)), -1) + np.eye(n)
            a = l @ (np.triu(rng.integers(-1, 2, (n, n)), 1) + np.eye(n))
        else:
            a = rng.standard_normal((n, n)) + n * np.eye(n)
        a = DenseMatrix(a * scale)
        f = lu_from_record(gauss_eliminate(a))
        product_is_a = np.array_equal(f.rebuild().data, a.data)
        assert product_is_a or not exact
        error = verify(f, a)
        assert error == 0.0 if product_is_a else 0.0 < error <= 1e-14

    @pytest.mark.parametrize("n", [2, 65, 129])
    def test_verify_measures_near_the_largest_double_above_one_block(self, n):
        rng = np.random.default_rng(n)
        l = np.tril(rng.integers(-1, 2, (n, n)), -1) + np.eye(n)
        a = l @ (np.triu(rng.integers(-1, 2, (n, n)), 1) + np.eye(n))
        a = DenseMatrix(a * 2.0 ** (1023 - int(np.log2(np.abs(a).max()))))
        assert a.max_abs() >= 2.0**1023
        assert verify(lu_from_record(gauss_eliminate(a)), a) == 0.0


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
        prov = Provenance(matrix_hash(record.source), record.pivots, record.flops)
        with pytest.raises(ValueError, match="unknown factorization kind 'qr'"):
            Factorization(kind="qr", n=4, provenance=prov, lu=record.lu)
        with pytest.raises(ValueError, match="unknown factorization kind 'qr'"):
            Factorization.from_factors("qr", 4, prov, u=lu_from_record(record).u)

    def test_construction_rejects_missing_factors(self, golden_a):
        record = gauss_eliminate(golden_a)
        prov = Provenance(matrix_hash(record.source), record.pivots, record.flops)
        with pytest.raises(ValueError, match="lu factorizations carry exactly l and u"):
            Factorization.from_factors(KIND_LU, 4, prov, u=lu_from_record(record).u)
        with pytest.raises(ValueError, match="lu factorizations store exactly lu"):
            Factorization(kind=KIND_LU, n=4, provenance=prov)
        with pytest.raises(ValueError, match="gauss-cholesky factorizations store exactly g"):
            Factorization(kind=KIND_GAUSS_CHOLESKY, n=4, provenance=prov, lu=record.lu)

    def test_construction_rejects_non_unit_l(self, golden_a):
        record = gauss_eliminate(golden_a)
        prov = Provenance(matrix_hash(record.source), record.pivots, record.flops)
        with pytest.raises(ValueError, match="unit diagonal"):
            Factorization.from_factors(KIND_LU, 4, prov, l=DenseMatrix(2 * np.eye(4)), u=lu_from_record(record).u)

    def test_construction_rejects_factors_of_mixed_fields(self, golden_a):
        # A factor file has one field for all its factors, so such a pair could not be read back.
        f = lu_from_record(gauss_eliminate(golden_a))
        with pytest.raises(ValueError, match="lu factors must be all real or all complex"):
            Factorization.from_factors(KIND_LU, 4, f.provenance, l=f.l, u=DenseMatrix(f.u.data.astype(complex)))
        with pytest.raises(ValueError, match="lu factors must be all real or all complex"):
            Factorization.from_factors(KIND_LU, 4, f.provenance, l=DenseMatrix(f.l.data.astype(complex)), u=f.u)

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

    @pytest.mark.parametrize("kind", [KIND_LU, KIND_GAUSS_CHOLESKY])
    @pytest.mark.parametrize("entries", [
        [[1.7e308, 1e307], [1e307, 1e308]],
        LARGEST_DOUBLE_A,
    ])
    def test_verify_near_the_largest_double(self, entries, kind):
        # max|A| >= 2**1023, whose power of two 2**1024 is not a double
        a = DenseMatrix(entries)
        assert verify(from_record(gauss_eliminate(a), kind), a) <= 1e-14

    def test_verify_real_factors_against_a_complex_matrix(self, golden_a):
        # The product is widened to A's field before A is subtracted from it.
        f = lu_from_record(gauss_eliminate(golden_a))
        assert verify(f, DenseMatrix(golden_a.data.astype(complex))) == verify(f, golden_a) == 0.0

    def test_a_product_that_overflows_fails_only_as_a_value_error(self):
        # G^T G of the largest double overflows: solve's residuals need it.
        with pytest.raises(ValueError, match=r"^non-finite entry at \(2,2\): inf$"):
            solve(gauss_cholesky(DenseMatrix(LARGEST_DOUBLE_A)), vector([1, 1]))

    def test_verify_scales_before_it_subtracts(self):
        # A - (-A) = 2e308 overflows unless each operand is scaled first.
        a = DenseMatrix([[1e308, 0], [0, 1e308]])
        assert verify(gauss_cholesky(a), DenseMatrix(-a.data)) == 2.0


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
                Factorization.from_factors(kind, 4, prov, **factors)
            else:
                with pytest.raises(ValueError, match="negligible diagonal entry"):
                    Factorization.from_factors(kind, 4, prov, **factors)

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
            Factorization.from_factors(kind, 4, f.provenance, **factors)
        unrecorded = dataclasses.replace(f.provenance, pivot_threshold=None)
        Factorization.from_factors(kind, 4, unrecorded, **factors)  # the factor-scaled rule passes it

    def test_unrecorded_threshold_keeps_the_factor_scaled_rule(self):
        # Without a recorded threshold the rule is n * eps * max|factor|, under
        # which U = [[1e-8, 1], [0, 1 - 1e8]] has a negligible diagonal entry.
        f = lu_from_record(gauss_eliminate(DenseMatrix(NEAR_SINGULAR_A)))
        prov = dataclasses.replace(f.provenance, pivot_threshold=None)
        with pytest.raises(ValueError, match="factor u has a negligible diagonal entry"):
            Factorization.from_factors(KIND_LU, 2, prov, l=f.l, u=f.u)
        with pytest.raises(ValueError, match="factor u has a negligible diagonal entry"):
            dataclasses.replace(f, provenance=prov)
        # The rule scales by max|U|, 1 here, not by the packed array's multiplier 1e3.
        unrecorded = Provenance("0" * 16, (1.0, 1e-15), 0)
        Factorization(KIND_LU, 2, unrecorded, lu=DenseMatrix([[1.0, 0.0], [1e3, 1e-15]]))
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
