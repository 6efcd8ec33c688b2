import functools

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from factorkit import (
    KIND_GAUSS_CHOLESKY,
    KIND_LU,
    DenseMatrix,
    EliminationRecord,
    NonSquareError,
    ShapeError,
    ZeroPivotError,
    back_substitute,
    forward_substitute,
    gauss_cholesky,
    gauss_cholesky_from_record,
    gauss_eliminate,
    lu_from_record,
    open_session,
    principal_sqrt,
    residual_norm,
    session_solve,
    solve,
    vector,
)
from factorkit.elimination import _PANEL_WIDTH as NB
from factorkit.elimination import _SUBSTITUTION_BLOCK, _block_inverses, _solve_lower, _solve_upper, _substitute_rows
from factorkit.elimination import _require_triangular
from factorkit.elimination import elimination_flops, scaling_flops, substitution_flops
from factorkit.factorizations import from_record
from factorkit.matrices import EPS

from conftest import (
    BACK_OVERFLOW_MESSAGE,
    COMPLEX_SIDE_OVERFLOW_A,
    FORWARD_OVERFLOW_MESSAGE,
    GOLD_BPRIME,
    GOLD_GT,
    GOLD_L,
    GOLD_MULT,
    GOLD_PIVOTS,
    GOLD_U,
    GOLD_X1,
    GOLD_X2,
    GOLD_Y2,
    OVERFLOW_A,
    SIDE_OVERFLOW_A,
    SIDE_OVERFLOW_B,
    SIDE_OVERFLOW_MESSAGE,
    SUBSTITUTION_OVERFLOW_A,
    SUBSTITUTION_OVERFLOW_B,
)
from oracles import (
    cofactor_det,
    elimination_snapshots,
    eta,
    plain_eliminate,
    random_symmetric,
    row_back_substitute,
    row_forward_substitute,
)


class TestGaussEliminate:
    def test_golden_upper_triangle_exact(self, golden_a, golden_b1):
        record = gauss_eliminate(golden_a, golden_b1)
        assert_array_equal(np.triu(record.lu.data), np.array(GOLD_U, dtype=float))
        assert_array_equal(record.transformed_rhs.data, np.array(GOLD_BPRIME, float).reshape(-1, 1))

    def test_golden_multipliers_exact(self, golden_a):
        record = gauss_eliminate(golden_a)
        assert_array_equal(np.tril(record.lu.data, -1), np.array(GOLD_MULT, dtype=float))
        assert record.pivots == GOLD_PIVOTS

    def test_golden_flop_count(self, golden_a, golden_b1):
        # col 1: 3 divs + 2*9 updates, col 2: 2 + 2*4, col 3: 1 + 2*1 -> 34,
        # plus 2*(3+2+1) = 12 for the single right-hand side.
        assert gauss_eliminate(golden_a).flops == 34
        assert gauss_eliminate(golden_a, golden_b1).flops == 46

    def test_record_carries_its_pivot_threshold(self, golden_a):
        # n * eps * max|A| for the 4x4 golden matrix, whose largest entry is 5
        assert gauss_eliminate(golden_a).pivot_threshold == 4 * EPS * 5

    def test_threshold_computed_once_per_elimination(self, pivot_threshold_calls, golden_a, golden_b1):
        gauss_eliminate(golden_a, golden_b1)
        assert pivot_threshold_calls == [(4, 5.0)]
        gauss_eliminate(DenseMatrix(np.random.default_rng(5).standard_normal((3 * NB, 3 * NB))))
        assert len(pivot_threshold_calls) == 2  # one per elimination, not one per panel

    def test_record_holds_the_source_itself(self, golden_a):
        assert gauss_eliminate(golden_a).source is golden_a  # no copy

    def test_identity_unchanged(self):
        record = gauss_eliminate(DenseMatrix(np.eye(5)))
        # U is the identity and every multiplier is zero
        assert record.lu == DenseMatrix(np.eye(5))
        # the update work is still performed (and counted) even though
        # every multiplier is zero
        assert record.flops == 70

    def test_already_upper_triangular_unchanged(self):
        u = DenseMatrix([[2, 1, 4], [0, 3, 5], [0, 0, 7]])
        record = gauss_eliminate(u)
        # U is the input and every multiplier is zero
        assert record.lu == u

    def test_zero_pivot_in_first_column(self):
        with pytest.raises(ZeroPivotError) as exc:
            gauss_eliminate(DenseMatrix([[0, 1], [1, 0]]))
        assert exc.value.index == 1
        assert exc.value.column == 1
        assert "column 1" in str(exc.value)

    def test_zero_pivot_appearing_mid_elimination(self):
        # second pivot becomes 4 - 2*2 = 0
        with pytest.raises(ZeroPivotError) as exc:
            gauss_eliminate(DenseMatrix([[1, 2], [2, 4]]))
        assert exc.value.index == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "a, column",
        [
            (OVERFLOW_A, 2),
            # Column 1 sends a_23 and a_33 to -inf; column 2 then takes -inf from -inf.
            ([[1e290, 0, 1e300], [1e300, 1e290, 0], [1e300, 1e290, 0]], 3),
        ],
        ids=["inf", "nan"],
    )
    def test_non_finite_pivot_fails_without_warning(self, a, column):
        with pytest.raises(ZeroPivotError) as exc:
            gauss_eliminate(DenseMatrix(a), vector(np.ones(len(a))))
        assert exc.value.column == column
        assert not np.isfinite(exc.value.value)
        assert str(exc.value) == f"non-finite pivot in column {column}: the elimination overflowed"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "a, b, pivots",
        [
            (SIDE_OVERFLOW_A, SIDE_OVERFLOW_B, (1e-3, -999.0)),
            # Sides that do not ride in the working array, and overflow as if they did.
            (COMPLEX_SIDE_OVERFLOW_A, SIDE_OVERFLOW_B, (1e-3, 1001.0)),
            (SIDE_OVERFLOW_A, 1j * np.array(SIDE_OVERFLOW_B), (1e-3, -999.0)),
        ],
        ids=["real", "complex-a", "complex-b"],
    )
    def test_overflowing_side_raises_overflow_error(self, a, b, pivots):
        a = DenseMatrix(a)
        with pytest.raises(OverflowError, match=f"^{SIDE_OVERFLOW_MESSAGE}$"):
            gauss_eliminate(a, vector(b))
        # The fault is the side's: the matrix alone eliminates.
        assert gauss_eliminate(a).pivots == pivots

    def test_near_zero_pivot_is_scaled_against_matrix(self):
        # |pivot| = 1 exceeds n*eps*1e16 is false -> must raise
        with pytest.raises(ZeroPivotError):
            gauss_eliminate(DenseMatrix([[1.0, 1e16], [1e16, 1.0]]))

    def test_tiny_but_healthy_matrix_passes(self):
        record = gauss_eliminate(DenseMatrix([[1e-200, 0], [0, 1e-200]]))
        assert record.pivots == (1e-200, 1e-200)

    def test_non_square_raises(self):
        with pytest.raises(NonSquareError):
            gauss_eliminate(DenseMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_rhs_row_mismatch(self, golden_a):
        with pytest.raises(ShapeError):
            gauss_eliminate(golden_a, vector([1, 2]))

    def test_inputs_not_modified(self, golden_a, golden_b1):
        before_a = golden_a.data.copy()
        before_b = golden_b1.data.copy()
        gauss_eliminate(golden_a, golden_b1)
        assert_array_equal(golden_a.data, before_a)
        assert_array_equal(golden_b1.data, before_b)

    def test_multi_column_rhs_single_pass(self, golden_a, golden_b1, golden_b2):
        both = DenseMatrix(np.hstack([golden_b1.data, golden_b2.data]))
        record = gauss_eliminate(golden_a, both)
        assert_array_equal(record.transformed_rhs.column(0).data.ravel(), np.array(GOLD_BPRIME, float))

    def test_complex_matrix_real_rhs_promotes(self):
        a = DenseMatrix(np.array([[2, 1j], [1j, 1]], dtype=complex))
        record = gauss_eliminate(a, vector([1, 2]))
        assert record.transformed_rhs.is_complex

    def test_real_and_zero_imaginary_inputs_agree(self, golden_a, golden_b1):
        # a real scalar behaves exactly like a complex scalar with im = 0
        real = gauss_eliminate(golden_a, golden_b1)
        cplx = gauss_eliminate(DenseMatrix(golden_a.data.astype(complex)), golden_b1)
        assert_array_equal(real.lu.data.astype(complex), cplx.lu.data)
        assert_array_equal(real.transformed_rhs.data.astype(complex), cplx.transformed_rhs.data)
        assert real.flops == cplx.flops


class TestEliminationProperties:
    def test_lu_identity_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(2, 51))
            a = rng.standard_normal((n, n))
            record = gauss_eliminate(DenseMatrix(a))
            f = lu_from_record(record)
            # the packaging sets the other triangles to exact zeros, not computed ones
            assert not np.any(np.tril(f.u.data, -1))
            assert not np.any(np.triu(f.l.data, 1))
            assert_array_equal(f.u.data + np.tril(f.l.data, -1), record.lu.data)
            err = np.linalg.norm(f.l.data @ f.u.data - a) / np.linalg.norm(a)
            assert err <= 1e-11

    def test_transformed_rhs_solves_original_system(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 31))
            a = DenseMatrix(rng.standard_normal((n, n)))
            b = vector(rng.standard_normal(n))
            record = gauss_eliminate(a, b)
            x = back_substitute(lu_from_record(record).u, record.transformed_rhs)
            assert residual_norm(a, x, b) <= 1e-10

    def test_trailing_blocks_stay_symmetric(self):
        # recomputed at desk scale with the plain-loop reference
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = random_symmetric(rng, n)
            try:
                record = gauss_eliminate(DenseMatrix(a))
            except ZeroPivotError:
                continue
            snapshots = elimination_snapshots(a)
            for k, snap in enumerate(snapshots):
                block = snap[k:, k:]
                dev = np.max(np.abs(block - block.T))
                assert dev <= 1e-12 * max(1.0, np.max(np.abs(a)))
            assert np.allclose(np.triu(snapshots[-1]), np.triu(record.lu.data), rtol=0, atol=1e-12)

    def test_pivot_product_is_the_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            a = rng.uniform(-2, 2, (n, n))
            try:
                record = gauss_eliminate(DenseMatrix(a))
            except ZeroPivotError:
                continue
            det = cofactor_det(a)
            assert abs(np.prod(record.pivots) - det) <= 1e-10 * abs(det)


def _dominant(rng, n, *, complex_entries=False, signs=None):
    """Symmetric, diagonally dominant (so every pivot is safe); ``signs``
    chooses the sign of each diagonal entry, giving indefinite matrices."""
    a = random_symmetric(rng, n, complex_entries=complex_entries)
    return a + np.diag(n * (np.ones(n) if signs is None else signs))


def _symmetric_kind(rng, n, kind):
    if kind == "indefinite":
        return _dominant(rng, n, signs=rng.choice([-1.0, 1.0], n))
    return _dominant(rng, n, complex_entries=kind == "complex")


class TestBlockedElimination:
    """The eliminator works in panels of NB columns; these cases sit on
    both sides of the panel edges."""

    EDGE_SIZES = (NB - 1, NB, NB + 1, 2 * NB, 2 * NB + 1, 3 * NB + 5, 200)

    @pytest.mark.parametrize("kind", ["real", "complex-symmetric", "real-a-complex-b", "multi-column"])
    def test_one_panel_agrees_with_the_plain_loop(self, kind):
        rng = np.random.default_rng(20)
        for n in range(1, NB + 1):
            if kind == "complex-symmetric":
                a = random_symmetric(rng, n, complex_entries=True) + n * np.eye(n)
            else:
                a = rng.standard_normal((n, n)) + n * np.eye(n)
            b = rng.standard_normal((n, 3 if kind == "multi-column" else 1))
            if kind == "real-a-complex-b":
                b = b + 1j * rng.standard_normal(b.shape)
            record = gauss_eliminate(DenseMatrix(a), DenseMatrix(b))
            lu, rhs, _ = plain_eliminate(a, b)
            # Column pairs sum in another order than the plain loop's.
            assert np.max(np.abs(record.lu.data - lu)) <= n * EPS * np.max(np.abs(lu))
            assert np.max(np.abs(record.transformed_rhs.data - rhs)) <= n * EPS * np.max(np.abs(rhs))
            assert record.flops == elimination_flops(n, b.shape[1])

    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_lu_identity_and_transformed_side_across_panels(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + np.sqrt(n) * np.eye(n)
        b = vector(rng.standard_normal(n))
        record = gauss_eliminate(DenseMatrix(a), b)
        f = lu_from_record(record)
        assert np.linalg.norm(f.l.data @ f.u.data - a) <= 1e-11 * np.linalg.norm(a)
        assert not np.any(np.tril(f.u.data, -1))
        assert not np.any(np.triu(f.l.data, 1))
        assert_array_equal(f.u.data + np.tril(f.l.data, -1), record.lu.data)
        x = back_substitute(f.u, record.transformed_rhs)
        assert residual_norm(DenseMatrix(a), x, b) <= 1e-10
        assert record.flops == elimination_flops(n, 1)
        # The sums run in another order than the plain loop's: within one
        # rounding per update of the largest entry.
        lu, rhs, _ = plain_eliminate(a, b.data)
        assert np.max(np.abs(record.lu.data - lu)) <= n * EPS * np.max(np.abs(lu))
        assert np.max(np.abs(record.transformed_rhs.data - rhs)) <= n * EPS * np.max(np.abs(rhs))

    def test_memory_layout_does_not_change_results(self):
        rng = np.random.default_rng(23)
        n = 3 * NB + 5
        a = rng.standard_normal((n, n)) + np.sqrt(n) * np.eye(n)
        b = rng.standard_normal((n, 2))
        row_major = gauss_eliminate(DenseMatrix(a), DenseMatrix(b))
        col_major = gauss_eliminate(DenseMatrix(np.asfortranarray(a)), DenseMatrix(np.asfortranarray(b)))
        assert_array_equal(col_major.lu.data, row_major.lu.data)
        assert_array_equal(col_major.transformed_rhs.data, row_major.transformed_rhs.data)

    @pytest.mark.parametrize("n", [NB + 1, 40, 200])
    @pytest.mark.parametrize("complex_a", [False, True])
    def test_sides_of_the_other_field_in_any_layout(self, n, complex_a):
        # Neither rides in the working array: the forward substitution
        # transforms them, and its answers are complex either way.
        rng = np.random.default_rng(n)
        a = _dominant(rng, n, complex_entries=complex_a)
        b = rng.standard_normal((n, 3))
        if not complex_a:
            b = b + 1j * rng.standard_normal((n, 3))
        row_major = gauss_eliminate(DenseMatrix(a), DenseMatrix(b))
        col_major = gauss_eliminate(DenseMatrix(a), DenseMatrix(np.asfortranarray(b)))
        for record in (row_major, col_major):
            assert record.lu.data.dtype == (np.complex128 if complex_a else np.float64)
            assert record.transformed_rhs.data.dtype == np.complex128
        assert col_major.lu.data.tobytes() == row_major.lu.data.tobytes()
        assert col_major.transformed_rhs.data.tobytes() == row_major.transformed_rhs.data.tobytes()
        f = lu_from_record(row_major)
        x = back_substitute(f.u, row_major.transformed_rhs)
        assert np.linalg.norm(a @ x.data - b) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(x.data)

    @pytest.mark.parametrize("n", [NB, NB + 1, 2 * NB + 1, 200])
    @pytest.mark.parametrize("k", [1, 3])
    def test_complex_sides_of_a_real_matrix_come_out_contiguous(self, n, k):
        # They come as the substitution kernel's own array: numpy's linalg
        # misreads rows whose stride is not a whole number of complex items,
        # as a view of (re, im) pairs in a real array would have.
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        record = gauss_eliminate(DenseMatrix(a), DenseMatrix(b))
        rhs = record.transformed_rhs.data
        assert rhs.flags.c_contiguous and not rhs.flags.writeable
        x = np.linalg.solve(np.triu(record.lu.data), rhs)
        assert np.linalg.norm(a @ x - b, np.inf) <= 1e-12 * np.linalg.norm(a, np.inf) * np.linalg.norm(x, np.inf)
        # The kernel's answers are those it gave off the pairs in the working array.
        pairs = np.empty((n, n + 2 * k))[:, n:].view(np.complex128)
        pairs[...] = rhs
        assert_array_equal(_solve_upper(record.lu.data, rhs)[0], _solve_upper(record.lu.data, pairs)[0])

    # 3 * NB + 5: the last panel takes two column pairs and an odd column.
    @pytest.mark.parametrize("n", [2, 3, 5, NB - 1, NB, NB + 1, 2 * NB + 1, 3 * NB + 5, 200])
    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("fields", ["real", "complex", "real-a-complex-b", "complex-a-real-b"])
    def test_factors_do_not_depend_on_the_sides(self, n, symmetric, fields):
        rng = np.random.default_rng(n)
        matrices = [_dominant(rng, n, complex_entries=fields.startswith("complex"))]
        if n == 3 and fields == "real":
            # Pinned: a panel of odd width leaves one row for its last rank-2
            # product, whose A entry alone BLAS forms as a dot product; with
            # three or more sides in the same product, these last pivots moved.
            m = np.random.default_rng(30 if symmetric else 3).standard_normal((3, 3))
            matrices.append(m + m.T + 6 * np.eye(3) if symmetric else m + np.sqrt(3) * np.eye(3))
        for a in map(DenseMatrix, matrices):
            alone = gauss_eliminate(a, symmetric=symmetric)
            for k in (1, 3, 8):  # 8, the side count of perfbench's cli-files
                b = rng.standard_normal((n, k))
                if fields in ("complex", "real-a-complex-b"):
                    b = b + 1j * rng.standard_normal((n, k))
                record = gauss_eliminate(a, DenseMatrix(b), symmetric=symmetric)
                assert record.lu.data.tobytes() == alone.lu.data.tobytes()
                assert record.pivots == alone.pivots

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_dtypes_kept_and_pivots_are_python_scalars(self, complex_entries):
        rng = np.random.default_rng(21)
        n = 2 * NB + 1
        a = _dominant(rng, n, complex_entries=complex_entries)
        record = gauss_eliminate(DenseMatrix(a))
        assert record.lu.data.dtype == a.dtype
        scalar = complex if complex_entries else float
        assert all(type(p) is scalar for p in record.pivots)
        assert_array_equal(np.array(record.pivots), np.diagonal(record.lu.data))

    @pytest.mark.parametrize("c", [1, NB, NB + 1, NB + 2, 2 * NB + 1, 3 * NB + 5])
    def test_zero_pivot_names_its_column_across_panel_edges(self, c):
        n = 3 * NB + 5
        a = _dominant(np.random.default_rng(c), n)
        a[c - 1, :] = 0.0
        a[:, c - 1] = 0.0
        messages = set()
        for symmetric in (False, True):
            with pytest.raises(ZeroPivotError) as exc:
                gauss_eliminate(DenseMatrix(a), vector(np.ones(n)), symmetric=symmetric)
            assert exc.value.column == c
            messages.add(str(exc.value))
        assert len(messages) == 1  # the same pivot and threshold either way

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize(
        "n, c",
        [(NB, 2), (NB, 3), (NB, NB)] + [(3 * NB + 5, c) for c in (NB + 1, NB + 2, 2 * NB + 1, 3 * NB + 5)],
    )
    def test_overflow_names_its_column_across_panel_edges(self, n, c, complex_entries):
        # Column c - 1's multiplier 1e10 overflows the pivot of column c: by
        # row c's own update when c - 1 and c are a column pair, by the pair's
        # rank-2 product when c starts the next pair, and for c at a panel's
        # start, inside the panel-start matrix product.
        a = np.diag(np.full(n, 1e290, dtype=complex if complex_entries else float))
        a[c - 2 : c, c - 2 : c] = [[1e290, 1e300], [1e300, 1]]
        for symmetric in (False, True):
            with pytest.raises(ZeroPivotError) as exc:
                gauss_eliminate(DenseMatrix(a), vector(np.ones(n)), symmetric=symmetric)
            assert exc.value.column == c
            assert str(exc.value) == f"non-finite pivot in column {c}: the elimination overflowed"

    def test_a_record_is_finite_wherever_the_elimination_succeeds(self):
        # The record takes the working arrays unchecked: every packed entry
        # reaches some later pivot, so an overflow must fail a pivot test.
        rng = np.random.default_rng(34)
        outcomes = set()
        for case in range(1500):
            n = int(rng.integers(2, 41))
            complex_entries, symmetric = case % 2 == 1, case % 4 >= 2
            a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_entries else 0)
            if symmetric:
                a = a + a.T
            a *= 10.0 ** rng.uniform(290, 307)
            a[0, 0] *= 10.0 ** -rng.uniform(0, 30)  # one tiny leading pivot
            b = rng.standard_normal((n, 1)) * 10.0 ** rng.uniform(290, 307)
            try:
                record = gauss_eliminate(DenseMatrix(a), DenseMatrix(b), symmetric=symmetric)
            except (ZeroPivotError, OverflowError) as exc:
                outcomes.add(type(exc))
                continue
            assert np.isfinite(record.lu.data).all() and np.isfinite(record.transformed_rhs.data).all()
            outcomes.add(type(record))
        assert outcomes == {ZeroPivotError, OverflowError, EliminationRecord}

    @pytest.mark.parametrize("case", ["real-spd", "real-indefinite", "complex"])
    def test_proof_identity_and_cholesky_across_panels(self, case):
        # Criterion 9's L D^-1 = (D U)^T and G^T G = A, at a size whose
        # panels take the earlier panels' updates by matrix products.
        rng = np.random.default_rng(22)
        n = 3 * NB + 5
        signs = rng.choice([-1.0, 1.0], n) if case == "real-indefinite" else None
        a = _dominant(rng, n, complex_entries=case == "complex", signs=signs)
        record = gauss_eliminate(DenseMatrix(a))
        roots = np.array([principal_sqrt(p) for p in record.pivots])
        lhs = (np.eye(n) + np.tril(record.lu.data, -1)) * roots[None, :]
        rhs = (np.triu(record.lu.data) / roots[:, None]).T
        assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(rhs)
        g = gauss_cholesky(DenseMatrix(a)).g.data
        assert np.linalg.norm(g.T @ g - a) <= 1e-9 * np.linalg.norm(a)


class TestOneTriangleElimination:
    """``symmetric=True`` reads A's upper triangle only and takes every
    multiplier from U, m_il = u_li / u_ll, at every size."""

    KINDS = ("real", "complex", "indefinite")

    @staticmethod
    def _record_bytes(record):
        """Every field but the source hash, arrays as bytes so that the sign of every zero counts."""
        rhs = record.transformed_rhs.data
        lu = record.lu.data
        return lu.tobytes(), lu.dtype, rhs.tobytes(), rhs.dtype, record.pivots, record.pivot_threshold, record.flops

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 2, 5, NB, NB + 1, 2 * NB, 40, 3 * NB + 5, 200])
    def test_agrees_with_the_general_loop_and_the_theorem(self, n, kind):
        rng = np.random.default_rng(n)
        a = _symmetric_kind(rng, n, kind)
        b = DenseMatrix(rng.standard_normal((n, 2)))
        general = gauss_eliminate(DenseMatrix(a), b)
        record = gauss_eliminate(DenseMatrix(a), b, symmetric=True)
        lu, u = record.lu.data, np.triu(record.lu.data)
        u_general = np.triu(general.lu.data)
        assert np.max(np.abs(u - u_general)) <= 1e-14 * np.max(np.abs(u_general))
        rhs, rhs_general = record.transformed_rhs.data, general.transformed_rhs.data
        assert np.max(np.abs(rhs - rhs_general)) <= 1e-14 * np.max(np.abs(rhs_general))
        # A packed getrf LU: unit L from the strict lower part, U above.
        l = np.eye(n) + np.tril(lu, -1)
        assert np.linalg.norm(l @ u - a) <= 1e-14 * np.linalg.norm(a)
        # The multipliers are the theorem's, bit for bit.
        assert_array_equal(np.tril(lu, -1), np.tril((np.triu(lu, 1) / np.diagonal(lu)[:, None]).T, -1))
        assert record.pivots == tuple(np.diagonal(lu).tolist())
        assert record.flops == elimination_flops(n, 2)
        assert record.pivot_threshold == general.pivot_threshold
        assert record.source == general.source

    @pytest.mark.filterwarnings("error")
    def test_overflowing_side_raises_overflow_error(self):
        n = 2 * NB + 1
        a = np.eye(n)
        a[0, 0] = 1e-3
        a[0, NB + 3] = a[NB + 3, 0] = 1.0
        b = np.ones((n, 1))
        b[0] = 1e306
        with pytest.raises(OverflowError, match=SIDE_OVERFLOW_MESSAGE):
            gauss_eliminate(DenseMatrix(a), DenseMatrix(b), symmetric=True)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 5, NB, NB + 1, 2 * NB, 3 * NB + 5, 200])  # n = 1 has no lower triangle
    def test_reads_only_the_upper_triangle(self, n, kind):
        rng = np.random.default_rng(31)
        a = _symmetric_kind(rng, n, kind)
        # Within the symmetry tolerance, and max|A| stays on the diagonal.
        lower = np.tril(np.ones((n, n), dtype=bool), -1)
        nudged = a + np.where(lower, 1e-13 * rng.uniform(-1, 1, (n, n)), 0.0)
        assert DenseMatrix(nudged).is_symmetric() and not np.array_equal(nudged, a)
        b = DenseMatrix(rng.standard_normal((n, 1)))
        record = gauss_eliminate(DenseMatrix(a), b, symmetric=True)
        moved = gauss_eliminate(DenseMatrix(nudged), b, symmetric=True)
        assert self._record_bytes(moved) == self._record_bytes(record)

    @pytest.mark.parametrize("kind", KINDS)
    def test_repeated_runs_and_memory_layouts_are_bitwise_equal(self, kind):
        rng = np.random.default_rng(32)
        n = 200
        a = _symmetric_kind(rng, n, kind)
        b = rng.standard_normal((n, 3))
        first = gauss_eliminate(DenseMatrix(a), DenseMatrix(b), symmetric=True)
        for a_again, b_again in ((a.copy(), b.copy()), (np.asfortranarray(a), np.asfortranarray(b))):
            again = gauss_eliminate(DenseMatrix(a_again), DenseMatrix(b_again), symmetric=True)
            assert self._record_bytes(again) == self._record_bytes(first)


class TestFlopLedger:
    def test_closed_forms_equal_the_per_step_counts(self):
        for n in range(1, 40):
            for k in range(4):
                per_column = sum(s + 2 * s * s + 2 * s * k for s in range(n))
                assert elimination_flops(n, k) == per_column
                assert substitution_flops(n, k) == sum(k * (2 * i + 1) for i in range(n))
                assert substitution_flops(n, k, unit_diagonal=True) == sum(k * 2 * i for i in range(n))

    def test_scaling_flops_is_the_count_it_replaced(self):
        for n in range(1, 40):
            assert scaling_flops(n) == n + n * (n - 1) // 2


class TestSubstitutionKernel:
    """One blocked kernel serves both triangles. Against the reference row
    loops it gives the same dtype and flops and a backward error of
    rounding size, and it reads only its own triangle."""

    @pytest.mark.parametrize("sides", [1, 3])
    @pytest.mark.parametrize("kind", ["real", "complex", "real-t-complex-c", "complex-t-real-c"])
    @pytest.mark.parametrize("n", [1, 2, NB - 1, NB, NB + 1, 64])
    def test_backward_stable_as_the_reference_row_loops(self, n, kind, sides):
        # complex-t-real-c is what solve() hands the kernel for a complex G and a real b.
        rng = np.random.default_rng(n * 10 + sides)
        a = _dominant(rng, n, complex_entries=kind in ("complex", "complex-t-real-c"))
        c = rng.standard_normal((n, sides))
        if kind in ("complex", "real-t-complex-c"):
            c = c + 1j * rng.standard_normal(c.shape)
        c[1::3] = complex(-0.0, -0.0) if np.iscomplexobj(c) else -0.0  # every zero's sign must match
        record = gauss_eliminate(DenseMatrix(a))
        lu = record.lu.data  # packed: the multipliers lie below U's diagonal
        g = gauss_cholesky_from_record(record).g.data
        assert g.T.flags.f_contiguous  # solve() hands the kernel this view
        upper = np.triu(np.ones((n, n), dtype=bool))
        # (kernel, the array it is handed, the triangle it solves, the reference, the entries it must not read)
        cases = [
            (_solve_upper, lu, np.triu(lu), row_back_substitute(np.triu(lu), c), ~upper),
            (_solve_upper, g, g, row_back_substitute(g, c), ~upper),
            (
                functools.partial(_solve_lower, unit_diagonal=True),
                lu,
                np.tril(lu, -1) + np.eye(n),
                row_forward_substitute(np.tril(lu, -1), c, True),
                upper,
            ),
            (
                functools.partial(_solve_lower, unit_diagonal=False),
                g.T,
                g.T,
                row_forward_substitute(g.T, c, False),
                ~upper.T,
            ),
        ]
        for kernel, t, triangle, (want, want_flops), unread in cases:
            x, flops = kernel(t, c)
            assert x.dtype == want.dtype
            assert flops == want_flops
            assert eta(triangle, x, c) <= 4 * n * EPS
            assert eta(triangle, want, c) <= 4 * n * EPS
            scribbled = t.copy(order="K")  # the same layout, so the products round alike
            scribbled[unread] = np.pi
            # bytes, so that the sign of every zero matches too
            assert kernel(scribbled, c)[0].tobytes() == x.tobytes()

    @pytest.mark.parametrize("lower", [True, False])
    def test_blocks_without_an_inverse_are_solved_by_lapack(self, lower):
        # a_11 = 1e-6 makes the first column's multipliers about 1e6, so the
        # first diagonal block of L, and of U, has no inverse and goes to
        # LAPACK inside the blocked path.
        rng = np.random.default_rng(5)
        n, sb = 150, _SUBSTITUTION_BLOCK
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        a[0, 0] = 1e-6
        f = lu_from_record(gauss_eliminate(DenseMatrix(a)))
        t = f.l.data if lower else f.u.data
        inverses = _block_inverses(t, lower)
        assert inverses[0] is None and inverses[-1] is not None
        c = rng.standard_normal((n, 3))
        c[1::3] = -0.0
        batch, _ = _substitute_rows(t, c, lower, lower, inverses)
        for j in range(3):
            x, _ = _substitute_rows(t, c[:, j : j + 1], lower, lower, inverses)
            # The first block is solved last going up, after the update by the rows below it.
            r = c[:sb, j : j + 1] if lower else c[:sb, j : j + 1] - t[:sb, sb:] @ x[sb:]
            block = t[:sb, :sb]
            want, _ = row_forward_substitute(block, r, True) if lower else row_back_substitute(block, r)
            assert eta(block, x[:sb], r) <= 4 * sb * EPS
            assert eta(block, want, r) <= 4 * sb * EPS
            # One side sums each row in another order than three do, so the batch agrees to rounding only.
            assert np.max(np.abs(x[:, 0] - batch[:, j])) <= 1e-12 * np.max(np.abs(batch[:, j]))

    @pytest.mark.parametrize("kind", ["spd", "lu", "complex-symmetric", "indefinite", "ill-conditioned-lu"])
    def test_lapack_is_handed_only_upper_triangles(self, kind, monkeypatch):
        # LAPACK's solve pivots by rows; handed an exactly upper-triangular
        # matrix with no zero on its diagonal, it exchanges none.
        rng = np.random.default_rng(26)
        n = 2 * _SUBSTITUTION_BLOCK + 22
        if kind in ("lu", "ill-conditioned-lu"):
            a = rng.standard_normal((n, n)) + n * np.eye(n)
        else:
            a = _symmetric_kind(rng, n, "complex" if kind == "complex-symmetric" else kind)
        if kind == "ill-conditioned-lu":
            a[0, 0] = 1e-6  # block 0 of L and of U then has no inverse
        method = KIND_GAUSS_CHOLESKY if kind in ("spd", "complex-symmetric", "indefinite") else KIND_LU
        b = rng.standard_normal((n, 2))
        handed = []
        lapack = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda t, c: handed.append(t.copy()) or lapack(t, c))
        lu = gauss_eliminate(DenseMatrix(a)).lu.data
        calls = []
        s = open_session(DenseMatrix(a), method, residual_tol=1e-8)  # a_11 = 1e-6 costs digits
        for run in (
            lambda: session_solve(s, DenseMatrix(b[:, :1])),  # the first solve, on the packed lu
            lambda: session_solve(s, DenseMatrix(b[:, 1:])),  # a reuse: the inverses, then solve()
            lambda: solve(from_record(gauss_eliminate(DenseMatrix(a)), method), DenseMatrix(b)),
            lambda: back_substitute(DenseMatrix(np.triu(lu)), DenseMatrix(b)),
            lambda: forward_substitute(DenseMatrix(np.triu(lu).T), DenseMatrix(b)),
            lambda: _block_inverses(np.tril(lu, -1) + np.eye(n), True),
        ):
            before = len(handed)
            run()
            calls.append(len(handed) - before)
        assert all(calls), calls
        for t in handed:
            assert not np.tril(t, -1).any()
            assert np.all(np.diagonal(t) != 0)

    @pytest.mark.parametrize("sides", [1, 3])
    def test_a_subnormal_pivot_is_solved_through(self, sides):
        # Row and column 34 (index 33) are zero but for a_34,34 = 1e-310, so
        # pivot 34 is exactly that: subnormal, above the threshold n * eps *
        # max|A| = 2.2e-314, and its reciprocal overflows to inf. LAPACK's
        # solve multiplies by that reciprocal when handed several sides, so a
        # kernel that passed the block unscaled would overflow. Two blocks;
        # the first holds it.
        rng = np.random.default_rng(34)
        n = 100
        m = rng.uniform(-1, 1, (n, n)) * 1e-302
        a = m + m.T
        np.fill_diagonal(a, 1e-300)
        a[33], a[:, 33] = 0.0, 0.0
        a[33, 33] = 1e-310
        x = rng.standard_normal((n, sides))
        b = DenseMatrix(a @ x)
        record = gauss_eliminate(DenseMatrix(a), b)
        assert record.pivots[33] == 1e-310 > record.pivot_threshold
        f = lu_from_record(record)
        u = f.u.data
        answers = [
            lambda: _solve_upper(record.lu.data, record.transformed_rhs.data)[0],  # on the packed record
            lambda: solve(f, b).solutions.data,  # through U, whose diagonal holds the pivot itself
            lambda: back_substitute(DenseMatrix(u), DenseMatrix(u @ x)).data,
            lambda: forward_substitute(DenseMatrix(u.T), DenseMatrix(u.T @ x)).data,
        ]
        s = open_session(DenseMatrix(a))
        if sides == 1:  # a session takes one side at a time: its first solve, then a reuse through G
            answers += [lambda: session_solve(s, b).solutions.data] * 2
        for answer in answers:
            assert np.max(np.abs(answer() - x)) <= 1e-13 * np.max(np.abs(x))
        for inverses in (*s.factorization._inverses, f._inverses[1]) if sides == 1 else f._inverses[1:]:
            assert inverses[0] is None  # G^T, G and U

    @pytest.mark.parametrize("sides", [1, 3])
    @pytest.mark.parametrize("entry", [1e-310, 1e-310j, 1e-310 + 1e-310j])
    def test_a_complex_subnormal_diagonal_entry_is_solved_through(self, entry, sides):
        # LAPACK's complex solve takes the reciprocal of a diagonal entry even
        # for one side; 1 / 1e-310 overflows.
        rng = np.random.default_rng(35)
        n = 100
        u = np.triu(rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))) * 1e-302
        np.fill_diagonal(u, 1e-300)
        u[33], u[:, 33] = 0.0, 0.0
        u[33, 33] = entry
        x = rng.standard_normal((n, sides))
        for t in (u, u.T):
            got = (back_substitute if t is u else forward_substitute)(DenseMatrix(t), DenseMatrix(t @ x)).data
            assert np.max(np.abs(got - x)) <= 1e-13 * np.max(np.abs(x))

    @pytest.mark.parametrize("n", [10, 100])
    @pytest.mark.parametrize("row", ["zero", "subnormal"])
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("method", [KIND_LU, KIND_GAUSS_CHOLESKY])
    def test_a_subnormal_pivot_divides_its_multipliers(self, method, complex_entries, row, n):
        # Row and column 5 (index 4) are zero, or subnormal, but for a_55 =
        # 1e-310: pivot 5 is subnormal and above the threshold n * eps * max|A|.
        # numpy's complex division by it gives 0 / (1e-310 + 0j) = nan+nanj, so
        # the multipliers are divided with both operands scaled by 2^64, which
        # in real arithmetic gives the plain quotients' bits.
        rng = np.random.default_rng(n)
        a = (random_symmetric(rng, n, complex_entries=complex_entries) + n * np.eye(n)) * 1e-302
        a[4], a[:, 4] = 0.0, 0.0
        if row == "subnormal":
            a[4] = a[:, 4] = rng.uniform(-1, 1, n) * 1e-310
        a[4, 4] = 1e-310
        x = rng.standard_normal((n, 2))
        b = a @ x
        symmetric = method == KIND_GAUSS_CHOLESKY
        record = gauss_eliminate(DenseMatrix(a), symmetric=symmetric)
        assert record.pivot_threshold < abs(record.pivots[4]) < 2.0**-1022
        lu = record.lu.data
        if row == "zero":
            assert_array_equal(lu[5:, 4], 0)
        if symmetric and not complex_entries:
            assert_array_equal(lu[5:, 4], lu[4, 5:] / lu[4, 4])  # the theorem's m_il = u_li / u_ll
        s = open_session(DenseMatrix(a), method, residual_tol=np.inf)  # the residual is absolute
        answers = np.hstack([session_solve(s, DenseMatrix(b[:, j : j + 1])).solutions.data for j in range(2)])
        assert s.reuse_count == 1  # a first solve on the record, then a reuse through the factors
        assert eta(a, answers, b) <= 1e-14


class TestTriangularCheck:
    """A stray entry in the off triangle is found wherever it lies, next to
    the diagonal, far from it or in one of its three corners, in either
    memory layout and either field."""

    EDGES = (0, 1, 63, 64, 65, 129, 130)

    @pytest.mark.parametrize("stray_value", [1e-300, 1e-300j, -5e-324])
    @pytest.mark.parametrize("fortran", [False, True])
    @pytest.mark.parametrize("lower", [False, True])
    def test_finds_any_off_triangle_entry(self, lower, fortran, stray_value):
        n = 131
        full = np.random.default_rng(6).uniform(1, 2, (n, n)).astype(type(stray_value))
        t = np.tril(full) if lower else np.triu(full)
        off = np.triu(np.ones((n, n), dtype=bool), 1) if lower else np.tril(np.ones((n, n), dtype=bool), -1)
        t[off] = -0.0  # a signed zero is still zero
        layout = np.asfortranarray if fortran else np.ascontiguousarray
        _require_triangular(DenseMatrix(layout(t)), lower)
        side = "lower" if lower else "upper"
        for i in self.EDGES:
            for j in self.EDGES:
                if off[i, j]:
                    stray = t.copy()
                    stray[i, j] = stray_value
                    with pytest.raises(ShapeError, match=f"^expected an exactly {side}-triangular matrix$"):
                        _require_triangular(DenseMatrix(layout(stray)), lower)


class TestBackSubstitute:
    def test_golden_first_system(self, golden_u):
        x = back_substitute(golden_u, vector(GOLD_BPRIME))
        assert_array_equal(x.data.ravel(), np.array(GOLD_X1, dtype=float))

    def test_golden_second_system_through_g(self, golden_g):
        x = back_substitute(golden_g, vector(GOLD_Y2))
        assert_array_equal(x.data.ravel(), np.array(GOLD_X2, dtype=float))

    def test_identity_returns_rhs(self):
        c = vector([5, 6, 7])
        assert back_substitute(DenseMatrix(np.eye(3)), c) == c

    def test_zero_diagonal_raises(self):
        with pytest.raises(ZeroPivotError) as exc:
            back_substitute(DenseMatrix([[1, 2], [0, 0]]), vector([1, 1]))
        assert exc.value.axis == "row"
        assert exc.value.index == 2

    def test_rejects_non_triangular(self):
        with pytest.raises(ShapeError):
            back_substitute(DenseMatrix([[1, 0], [3, 1]]), vector([1, 1]))

    def test_rhs_mismatch(self, golden_u):
        with pytest.raises(ShapeError):
            back_substitute(golden_u, vector([1, 2]))

    @pytest.mark.parametrize("substitute", [back_substitute, forward_substitute])
    def test_non_square_raises(self, substitute):
        with pytest.raises(NonSquareError):
            substitute(DenseMatrix([[1, 0, 0], [0, 1, 0]]), vector([1, 1]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "substitute, t, row",
        [
            (back_substitute, [[1.5e308 + 1.5e308j]], 1),
            (back_substitute, [[1e300, 1], [0, 1.5e308 + 1.5e308j]], 2),
            (forward_substitute, [[1.5e308 + 1.5e308j]], 1),
            (forward_substitute, [[1e300, 0], [1, 1.5e308 + 1.5e308j]], 2),
        ],
    )
    def test_a_diagonal_entry_whose_modulus_overflows_raises(self, substitute, t, row):
        # A finite entry whose modulus exceeds the largest double is no divisor:
        # LAPACK's reciprocal of it underflows, and the answer would read 0. The
        # threshold n * eps * max|t| is finite, max|t| saturating.
        with pytest.raises(ZeroPivotError) as exc:
            substitute(DenseMatrix(t), vector([1] * len(t)))
        assert (exc.value.axis, exc.value.index) == ("row", row)
        assert exc.value.threshold == len(t) * np.finfo(float).eps * np.finfo(float).max
        assert str(exc.value) == f"non-finite pivot in row {row}: its modulus is not finite"

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_overflow_error(self):
        with pytest.raises(OverflowError, match=f"^{BACK_OVERFLOW_MESSAGE}$"):
            back_substitute(DenseMatrix(SUBSTITUTION_OVERFLOW_A), vector(SUBSTITUTION_OVERFLOW_B))


class TestForwardSubstitute:
    def test_golden_gt_system(self, golden_b2):
        y = forward_substitute(DenseMatrix(GOLD_GT), golden_b2)
        assert_array_equal(y.data.ravel(), np.array(GOLD_Y2, dtype=float))

    def test_identity_returns_rhs(self):
        c = vector([1, -2, 3])
        assert forward_substitute(DenseMatrix(np.eye(3)), c) == c

    def test_unit_lower_factor_reproduces_transformed_rhs(self, golden_a, golden_b1):
        # forward substitution with L must agree with the in-pass update
        record = gauss_eliminate(golden_a, golden_b1)
        y = forward_substitute(DenseMatrix(GOLD_L), golden_b1)
        assert_array_equal(y.data, record.transformed_rhs.data)

    def test_zero_diagonal_raises(self):
        with pytest.raises(ZeroPivotError) as exc:
            forward_substitute(DenseMatrix([[0, 0], [1, 1]]), vector([1, 1]))
        assert exc.value.index == 1

    def test_rejects_non_triangular(self):
        with pytest.raises(ShapeError):
            forward_substitute(DenseMatrix([[1, 2], [0, 1]]), vector([1, 1]))

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_overflow_error(self):
        # y_2 = 1 - 1e3 * 1e306, the side's overflow in SIDE_OVERFLOW_A's elimination
        with pytest.raises(OverflowError, match=f"^{FORWARD_OVERFLOW_MESSAGE}$"):
            forward_substitute(DenseMatrix([[1, 0], [1e3, 1]]), vector(SIDE_OVERFLOW_B))
