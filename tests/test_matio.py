import contextlib
import io
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from factorkit import (
    DenseMatrix,
    FactorMismatchError,
    ParseError,
    gauss_cholesky,
    gauss_eliminate,
    load_factorization,
    load_matrix,
    lu_from_record,
    matrix_hash,
    parse_factorization,
    parse_matrix,
    render_factorization,
    render_matrix,
    save_factorization,
    save_matrix,
)
from factorkit.matio import stale_factor_check

from conftest import GOLD_A, LEGACY_GOLD_FACTOR_FILE, NEAR_SINGULAR_A


def random_matrix(rng, complex_entries=False):
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 9))
    if complex_entries:
        data = rng.uniform(-1e3, 1e3, (n, m)) + 1j * rng.uniform(-1e3, 1e3, (n, m))
    else:
        data = rng.uniform(-1e3, 1e3, (n, m))
    return DenseMatrix(data)


class TestParseMatrix:
    def test_small_real(self):
        m = parse_matrix("matrix 2 2 real\n1 -1\n-1 5\n")
        assert m == DenseMatrix([[1, -1], [-1, 5]])
        assert not m.is_complex

    def test_small_complex(self):
        m = parse_matrix("matrix 1 1 complex\n0,1\n")
        assert m.is_complex
        assert m[0, 0] == 1j

    def test_comments_and_blank_lines_skipped(self):
        text = "# heading\n\nmatrix 2 1 real\n# first row\n3\n\n4\n# trailing\n"
        assert parse_matrix(text) == DenseMatrix([[3], [4]])

    def test_scientific_notation(self):
        m = parse_matrix("matrix 1 2 real\n1e-3 -2.5E4\n")
        assert m[0, 0] == 1e-3 and m[0, 1] == -2.5e4

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "header"),
            ("vector 2 2 real\n1 2\n3 4", "keyword 'matrix'"),
            ("matrix 2 2\n1 2\n3 4", "got 3 tokens"),
            ("matrix 0 2 real\n", "positive integer"),
            ("matrix x 2 real\n1 2", "positive integer"),
            ("matrix 1 1 quaternion\n1", "'real' or 'complex'"),
            ("matrix 2 2 real\n1 2\n3", "2 entries, found 1"),
            ("matrix 2 2 real\n1 2 9\n3 4", "2 entries, found 3"),
            ("matrix 2 2 real\n1 2", "2 data rows, found 1"),
            ("matrix 1 1 real\n1\n2", "end of file"),
            ("matrix 1 1 real\nfoo", "real number"),
            ("matrix 1 1 real\n1,2", "real number"),
            ("matrix 1 1 complex\n5", "complex pair"),
            ("matrix 1 1 complex\n1,2,3", "complex pair"),
            ("matrix 1 1 complex\n,2", "complex pair"),
            ("matrix 1 1 real\ninf", "finite"),
            ("matrix 1 1 real\nnan", "finite"),
            ("matrix 1 1 real\n1e9999", "finite"),
            ("matrix 1 1 complex\ninf,1", "finite components"),
        ],
    )
    def test_rejections_carry_line_numbers(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            parse_matrix(text)
        assert fragment in str(exc.value)
        assert exc.value.line >= 1
        assert f"line {exc.value.line}" in str(exc.value)

    def test_error_column_points_at_token(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("matrix 1 2 real\n1 oops\n")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_dimension_beyond_int_digit_limit_is_a_parse_error(self):
        # int() refuses digit strings longer than sys.get_int_max_str_digits()
        with pytest.raises(ParseError, match="positive integer row count"):
            parse_matrix("matrix " + "1" * 5000 + " 1 real\n1\n")

    def test_huge_claimed_dimensions_fail_fast(self):
        with pytest.raises(ParseError, match="rows, found"):
            parse_matrix("matrix 999999999 1 real\n1\n2\n")


class TestRoundTrip:
    def test_golden_matrix(self, golden_a):
        assert parse_matrix(render_matrix(golden_a)) == golden_a

    def test_awkward_values_survive(self):
        m = DenseMatrix([[0.1, -0.0, 1 / 3], [1e-300, 1e300, 123456789.123456789]])
        out = parse_matrix(render_matrix(m))
        assert_array_equal(out.data, m.data)

    def test_complex_field_preserved(self):
        m = DenseMatrix(np.array([[1 + 0j, -2.5j]]))
        out = parse_matrix(render_matrix(m))
        assert out.is_complex
        assert_array_equal(out.data, m.data)

    def test_random_matrices_both_fields(self):
        rng = np.random.default_rng(30)
        for i in range(100):
            m = random_matrix(rng, complex_entries=bool(i % 2))
            out = parse_matrix(render_matrix(m))
            assert out.is_complex == m.is_complex
            assert_array_equal(out.data, m.data)

    def test_file_round_trip(self, tmp_path, golden_a):
        path = tmp_path / "a.mat"
        save_matrix(path, golden_a)
        assert load_matrix(path) == golden_a


class TestFactorFiles:
    def test_gauss_cholesky_round_trip(self, golden_a):
        f = gauss_cholesky(golden_a)
        f2 = parse_factorization(render_factorization(f))
        assert f2.kind == f.kind and f2.n == f.n
        assert_array_equal(f2.g.data, f.g.data)
        assert f2.provenance == f.provenance

    def test_lu_round_trip(self):
        rng = np.random.default_rng(31)
        a = DenseMatrix(rng.standard_normal((5, 5)))
        f = lu_from_record(gauss_eliminate(a))
        f2 = parse_factorization(render_factorization(f))
        assert_array_equal(f2.l.data, f.l.data)
        assert_array_equal(f2.u.data, f.u.data)
        assert f2.provenance == f.provenance

    def test_complex_factor_round_trip(self):
        f = gauss_cholesky(DenseMatrix([[1, 2], [2, 1]]))  # indefinite -> complex G
        f2 = parse_factorization(render_factorization(f))
        assert f2.g.is_complex
        assert_array_equal(f2.g.data, f.g.data)
        assert f2.provenance.pivots == (1.0, -3.0)

    def test_file_round_trip(self, tmp_path, golden_a):
        path = tmp_path / "a.fact"
        f = gauss_cholesky(golden_a)
        save_factorization(path, f)
        assert load_factorization(path).provenance == f.provenance

    def test_sections_in_wrong_order_rejected(self, golden_a):
        f = lu_from_record(gauss_eliminate(golden_a))
        text = render_factorization(f).replace("\nl\n", "\nu\n", 1)
        with pytest.raises(ParseError):
            parse_factorization(text)

    def test_truncated_file_rejected(self, golden_a):
        text = render_factorization(gauss_cholesky(golden_a))
        with pytest.raises(ParseError):
            parse_factorization("\n".join(text.splitlines()[:4]))

    def test_tampered_diagonal_rejected(self, golden_a):
        text = render_factorization(gauss_cholesky(golden_a))
        bad = text.replace("0.0 0.0 0.0 1.0", "0.0 0.0 0.0 0.0")
        with pytest.raises(ParseError, match="consistent factorization"):
            parse_factorization(bad)

    def test_wrong_pivot_count_rejected(self, golden_a):
        text = render_factorization(gauss_cholesky(golden_a))
        bad = text.replace("pivots 1.0 4.0 4.0 1.0", "pivots 1.0 4.0")
        with pytest.raises(ParseError, match="4 pivots"):
            parse_factorization(bad)

    def test_stale_check(self, golden_a):
        f = gauss_cholesky(golden_a)
        stale_factor_check(f, golden_a)  # same matrix: fine
        with pytest.raises(FactorMismatchError):
            stale_factor_check(f, DenseMatrix(np.eye(4)))

    def test_new_files_record_the_hash_scheme(self, golden_a):
        text = render_factorization(gauss_cholesky(golden_a))
        assert f"\nmatrix-hash {matrix_hash(golden_a)} bytes\n" in text

    def test_legacy_untagged_hash_is_checked_under_its_scheme(self, golden_a):
        f = parse_factorization(LEGACY_GOLD_FACTOR_FILE)
        assert f.provenance.hash_scheme == "text"
        assert render_factorization(f) == LEGACY_GOLD_FACTOR_FILE
        stale_factor_check(f, golden_a)
        bumped = [row[:] for row in GOLD_A]
        bumped[0][0] = 2
        with pytest.raises(FactorMismatchError):
            stale_factor_check(f, DenseMatrix(bumped))

    def test_unknown_hash_scheme_rejected(self, golden_a):
        text = render_factorization(gauss_cholesky(golden_a)).replace(" bytes\n", " sha1\n")
        with pytest.raises(ParseError, match="hash scheme 'bytes', got 'sha1'"):
            parse_factorization(text)


class TestPivotThresholdLine:
    def test_threshold_is_the_last_provenance_line(self, golden_a):
        text = render_factorization(gauss_cholesky(golden_a))
        assert text.endswith("\nsymmetry-tol 1e-12\npivot-threshold 4.440892098500626e-15\n")
        assert parse_factorization(text).provenance.pivot_threshold == gauss_eliminate(golden_a).pivot_threshold

    @pytest.mark.parametrize("threshold", ["1.0", "4.0", "1e300"])
    def test_threshold_at_or_above_a_pivot_rejected(self, golden_a, threshold):
        # G's diagonal (1, 2, 2, 1) divides by pivots g_ii^2 = (1, 4, 4, 1); U's is (1, 4, 4, 1)
        for f in (gauss_cholesky(golden_a), lu_from_record(gauss_eliminate(golden_a))):
            text = render_factorization(f).replace("4.440892098500626e-15", threshold)
            with pytest.raises(ParseError, match="consistent factorization"):
                parse_factorization(text)

    @pytest.mark.parametrize("line", ["pivot-threshold -1.0", "pivot-threshold", "pivot-threshold 1 2",
                                      "pivot-threshold x", "pivot-threshold 1,0", "pivot-threshold inf"])
    def test_malformed_threshold_rejected(self, golden_a, line):
        text = render_factorization(gauss_cholesky(golden_a)).replace("pivot-threshold 4.440892098500626e-15", line)
        with pytest.raises(ParseError) as exc:
            parse_factorization(text)
        assert exc.value.line == 12

    @pytest.mark.parametrize("line", ["symmetry-tol", "symmetry-tol 1e-12 1e-12"])
    def test_malformed_symmetry_tol_rejected(self, golden_a, line):
        text = render_factorization(gauss_cholesky(golden_a)).replace("symmetry-tol 1e-12", line)
        with pytest.raises(ParseError, match="a tolerance or 'none'") as exc:
            parse_factorization(text)
        assert exc.value.line == 11

    def test_nothing_may_follow_the_threshold(self, golden_a):
        text = render_factorization(gauss_cholesky(golden_a)) + "flops 44\n"
        with pytest.raises(ParseError, match="end of file after provenance"):
            parse_factorization(text)

    def test_file_without_threshold_loads_and_round_trips(self, golden_a):
        text = re.sub(r"pivot-threshold .*\n", "", render_factorization(gauss_cholesky(golden_a)))
        f = parse_factorization(text)
        assert f.provenance.pivot_threshold is None
        assert f.provenance.hash_scheme == "bytes"
        assert render_factorization(f) == text

    def test_file_without_threshold_is_judged_by_the_factor_scaled_rule(self):
        # U = [[1e-8, 1], [0, 1 - 1e8]]: 1e-8 <= 2 * eps * 1e8, as before thresholds were recorded
        text = render_factorization(lu_from_record(gauss_eliminate(DenseMatrix(NEAR_SINGULAR_A))))
        parse_factorization(text)
        with pytest.raises(ParseError, match="consistent factorization"):
            parse_factorization(re.sub(r"pivot-threshold .*\n", "", text))

    def test_flop_count_beyond_int_digit_limit_is_a_parse_error(self, golden_a):
        text = render_factorization(gauss_cholesky(golden_a)).replace("flops 44", "flops " + "4" * 5000)
        with pytest.raises(ParseError, match="non-negative integer flop count"):
            parse_factorization(text)

    def test_readme_factor_file_is_what_render_writes(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```\n(factor .*?)```", readme, flags=re.S)
        assert blocks == [render_factorization(gauss_cholesky(DenseMatrix(GOLD_A)))]


    def test_readme_quick_start_prints_what_it_shows(self):
        # every print in the quick start is followed by a comment line holding its output
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        lines = block.splitlines()
        shown = [after[2:] for line, after in zip(lines, lines[1:]) if line.startswith("print(")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, {})
        assert out.getvalue().splitlines() == shown
        assert len(shown) == 2

class TestFuzz:
    ALPHABET = "0123456789.,-+eE# \nmatrixcomplel"

    def _mutate(self, rng, text):
        chars = list(text)
        for _ in range(int(rng.integers(1, 4))):
            op = rng.integers(0, 4)
            if op == 0 and chars:
                chars[int(rng.integers(0, len(chars)))] = self.ALPHABET[int(rng.integers(0, len(self.ALPHABET)))]
            elif op == 1 and chars:
                del chars[int(rng.integers(0, len(chars)))]
            elif op == 2:
                chars.insert(int(rng.integers(0, len(chars) + 1)), self.ALPHABET[int(rng.integers(0, len(self.ALPHABET)))])
            else:
                chars = chars[: int(rng.integers(0, len(chars) + 1))]
        return "".join(chars)

    def test_mutated_matrix_files_never_crash(self, golden_a):
        rng = np.random.default_rng(32)
        base = render_matrix(golden_a)
        rejected = 0
        for _ in range(500):
            mutated = self._mutate(rng, base)
            try:
                parse_matrix(mutated)
            except ParseError as exc:
                rejected += 1
                assert f"line {exc.line}" in str(exc)
        assert rejected > 0

    def test_mutated_factor_files_never_crash(self, golden_a):
        rng = np.random.default_rng(33)
        base = render_factorization(gauss_cholesky(golden_a))
        for _ in range(300):
            mutated = self._mutate(rng, base)
            try:
                parse_factorization(mutated)
            except ParseError as exc:
                assert exc.line >= 1
