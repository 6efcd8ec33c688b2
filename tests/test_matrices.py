import numpy as np
import pytest

from factorkit import (
    DenseMatrix,
    ShapeError,
    matrix_hash,
    principal_sqrt,
    residual_norm,
    transpose,
    vector,
)
from factorkit.matio import format_entry, render_matrix

from conftest import GOLD_A, GOLD_GT, GOLD_X1, GOLD_X2


class TestConstruction:
    def test_from_nested_lists_coerces_ints(self):
        m = DenseMatrix([[1, 2], [3, 4]])
        assert m.data.dtype == np.float64
        assert m.shape == (2, 2)

    def test_complex_entries_detected(self):
        m = DenseMatrix([[1j, 0], [0, 1]])
        assert m.is_complex
        assert m.field == "complex"

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"non-finite entry at \(2,1\)"):
            DenseMatrix([[1, 2], [float("nan"), 4]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            DenseMatrix([[1, float("inf")]])

    def test_rejects_complex_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            DenseMatrix([[complex(0, float("nan"))]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeError):
            DenseMatrix([1, 2, 3])

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            DenseMatrix(np.zeros((0, 3)))

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            DenseMatrix([["a", "b"]])

    def test_entries_are_read_only(self):
        m = DenseMatrix([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            m.data[0, 0] = 9.0

    def test_array_copy_is_writable_and_independent(self):
        m = DenseMatrix([[1, 2], [3, 4]])
        c = np.array(m, copy=True)
        c[0, 0] = 9.0
        assert m[0, 0] == 1.0
        assert not np.shares_memory(c, m.data)

    def test_does_not_alias_source_array(self):
        src = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = DenseMatrix(src)
        src[0, 0] = 99.0
        assert m[0, 0] == 1.0

    def test_equality_is_by_value(self):
        assert DenseMatrix([[1, 2]]) == DenseMatrix([[1.0, 2.0]])
        assert DenseMatrix([[1, 2]]) != DenseMatrix([[1, 3]])

    def test_vector_from_flat_sequence(self):
        v = vector([1, 2, 3])
        assert v.shape == (3, 1)

    def test_vector_rejects_matrix(self):
        with pytest.raises(ShapeError):
            vector([[1, 2], [3, 4]])

    def test_column_extraction(self):
        m = DenseMatrix([[1, 2], [3, 4]])
        assert m.column(1) == vector([2, 4])


class TestSymmetry:
    def test_golden_matrix_is_symmetric(self, golden_a):
        assert golden_a.is_symmetric()

    def test_plainly_asymmetric(self):
        assert not DenseMatrix([[1, 2], [3, 4]]).is_symmetric()

    def test_deviation_location_is_one_based(self):
        dev, at = DenseMatrix([[1, 2], [5, 4]]).symmetry_deviation()
        assert dev == 3.0
        assert at in ((1, 2), (2, 1))

    def test_tolerance_is_relative_to_scale(self):
        a = np.array([[1e6, 1.0], [1.0 + 1e-8, 1e6]])
        m = DenseMatrix(a)
        assert m.is_symmetric(tol=1e-12)  # 1e-8 deviation vs 1e6 scale
        assert not m.is_symmetric(tol=1e-16)

    def test_symmetry_needs_square(self):
        with pytest.raises(ShapeError):
            DenseMatrix([[1, 2, 3], [4, 5, 6]]).symmetry_deviation()


class TestPrincipalSqrt:
    def test_positive_real(self):
        w = principal_sqrt(4)
        assert w == 2.0
        assert isinstance(w, float)

    def test_negative_real_gives_principal_branch(self):
        assert principal_sqrt(-1) == 1j

    def test_two_i(self):
        # (1+i)^2 = 2i, checked by direct multiplication
        w = principal_sqrt(complex(0, 2))
        assert w * w == pytest.approx(complex(0, 2))
        assert w == pytest.approx(1 + 1j)

    def test_zero(self):
        assert principal_sqrt(0.0) == 0.0

    def test_negative_real_axis_from_below(self):
        # im = -0.0 sits on the branch cut; the principal choice has Im >= 0
        w = principal_sqrt(complex(-4.0, -0.0))
        assert w == 2j

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            principal_sqrt(float("inf"))
        with pytest.raises(ValueError):
            principal_sqrt(complex(0, float("nan")))

    def test_branch_and_square_on_random_inputs(self):
        rng = np.random.default_rng(7)
        eps = np.finfo(float).eps
        for _ in range(1000):
            z = complex(*(rng.uniform(-1e3, 1e3, 2)))
            w = principal_sqrt(z)
            assert abs(w * w - z) <= 8 * eps * abs(z)
            assert w.real > 0 or (w.real == 0 and w.imag >= 0)


class TestMatmul:
    def test_golden_gt_times_g_rebuilds_a(self, golden_a, golden_g):
        assert DenseMatrix(transpose(golden_g).data @ golden_g.data) == golden_a


class TestTranspose:
    def test_golden_g(self, golden_g):
        assert transpose(golden_g) == DenseMatrix(GOLD_GT)

    def test_identity(self):
        assert transpose(DenseMatrix(np.eye(3))) == DenseMatrix(np.eye(3))

    def test_involution(self):
        rng = np.random.default_rng(5)
        a = DenseMatrix(rng.standard_normal((4, 6)))
        assert transpose(transpose(a)) == a

    def test_no_conjugation(self):
        a = DenseMatrix([[1j, 2], [3, 4]])
        assert transpose(a)[0, 0] == 1j

    def test_product_rule(self):
        rng = np.random.default_rng(11)
        a = DenseMatrix(rng.standard_normal((5, 3)))
        b = DenseMatrix(rng.standard_normal((3, 4)))
        lhs = transpose(DenseMatrix(a.data @ b.data)).data
        rhs = transpose(b).data @ transpose(a).data
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(lhs)


class TestResidualNorm:
    def test_golden_first_system(self, golden_a, golden_b1):
        assert residual_norm(golden_a, vector(GOLD_X1), golden_b1) <= 1e-14

    def test_golden_second_system(self, golden_a, golden_b2):
        assert residual_norm(golden_a, vector(GOLD_X2), golden_b2) <= 1e-14

    def test_identity_residual_zero(self):
        b = vector([1, 2, 3])
        assert residual_norm(DenseMatrix(np.eye(3)), b, b) == 0.0

    def test_normalizes_by_rhs(self):
        a = DenseMatrix(np.eye(2))
        assert residual_norm(a, vector([0, 0]), vector([10, 0])) == 1.0

    def test_shape_errors(self, golden_a):
        with pytest.raises(ShapeError):
            residual_norm(golden_a, vector([1, 2]), vector([1, 2, 3, 4]))
        with pytest.raises(ShapeError):
            residual_norm(golden_a, DenseMatrix([[1, 1], [1, 1], [1, 1], [1, 1]]), vector([1, 2, 3, 4]))


class TestRenderingAndHash:
    def test_format_entry_is_exact(self):
        for v in (0.1, -0.0, 1 / 3, 2.0, 1e-300, 1e300):
            assert float(format_entry(v)) == v

    def test_format_complex_pair(self):
        assert format_entry(complex(1.5, -2)) == "1.5,-2.0"

    def test_canonical_text_header(self, golden_a):
        assert render_matrix(golden_a).splitlines()[0] == "matrix 4 4 real"

    def test_hash_is_stable_and_content_sensitive(self, golden_a):
        h = matrix_hash(golden_a)
        assert len(h) == 16
        assert h == matrix_hash(DenseMatrix(GOLD_A))
        bumped = [row[:] for row in GOLD_A]
        bumped[0][0] = 2
        assert matrix_hash(DenseMatrix(bumped)) != h

    def test_hash_distinguishes_field(self):
        real = DenseMatrix([[1.0]])
        cplx = DenseMatrix(np.array([[1.0 + 0j]]))
        assert matrix_hash(real) != matrix_hash(cplx)

    def test_hash_of_documented_example(self, golden_a):
        # README's example factor file records this hash.
        assert matrix_hash(golden_a) == "2845401addaf482d"

    def test_hash_is_cached(self, golden_a):
        assert matrix_hash(golden_a) is matrix_hash(golden_a)

    def test_hash_equal_exactly_when_canonical_text_equal(self):
        grid = np.array([[1.0, -2.5], [0.1, 3.0]])
        transposed = DenseMatrix(grid.T)
        assert transposed.data.flags.f_contiguous
        rng = np.random.default_rng(5)
        cases = [
            DenseMatrix([[0.0]]),
            DenseMatrix([[-0.0]]),
            DenseMatrix([[complex(0.0, -0.0)]]),
            DenseMatrix(grid.reshape(1, 4)),
            DenseMatrix(grid.reshape(4, 1)),
            DenseMatrix(grid),
            DenseMatrix(grid.astype(">f8")),
            DenseMatrix(grid.astype(np.complex128)),
            DenseMatrix((grid + 1j).astype(">c16")),
            DenseMatrix(grid + 1j),
            transposed,
            DenseMatrix(np.ascontiguousarray(grid.T)),
            DenseMatrix(np.asfortranarray(grid.T + 1j)),
            DenseMatrix(grid.T + 1j),
            DenseMatrix(rng.standard_normal((3, 5))[:, ::2]),
            DenseMatrix(rng.standard_normal((3, 5))[:, ::2]),
        ]
        for a in cases:
            for b in cases:
                assert (matrix_hash(a) == matrix_hash(b)) == (render_matrix(a) == render_matrix(b)), (a, b)
