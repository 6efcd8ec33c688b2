import contextlib
import io
import math
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
import factorkit.matio
from factorkit.factorizations import FACTOR_NAMES
from factorkit.matio import _render_rows, format_entry, stale_factor_check

from conftest import (
    GOLD_A,
    LEGACY_GOLD_FACTOR_FILE,
    NEAR_SINGULAR_A,
    OVERFLOWING_DIVISOR_FACTOR_FILE,
    OVERFLOWING_DIVISOR_MESSAGE,
    OVERFLOWING_DIVISOR_THRESHOLD,
)
from oracles import random_spd, random_symmetric, token_read_rows


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

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("matrix 999999999 1 real\n1\n2\n", "line 3: expected 999999999 data rows, found 2"),
            ("matrix 999999999 999999999 real\n1\n", "line 2, column 1: expected 999999999 entries, found 1"),
            ("matrix 1 " + "9" * 40 + " complex\n1,2\n", "entries, found 1"),
        ],
    )
    def test_huge_claimed_dimensions_fail_fast(self, text, fragment):
        # No array is allocated for a claim the text cannot hold.
        with pytest.raises(ParseError, match=fragment):
            parse_matrix(text)

    def test_huge_claimed_order_of_a_factor_file_fails_fast(self):
        with pytest.raises(ParseError, match="line 3, column 1: expected 999999999 entries, found 1"):
            parse_factorization("factor lu 999999999 real\nl\n1\n")


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


# The LU factor file of [[-2, 1, 0], [0, 3, 1], [1, 0, 4]], whose record holds
# the multiplier m_21 = 0 / -2 = -0.0; as every L does, L holds it as 0.0.
NEGATIVE_ZERO_MULTIPLIER_A = [[-2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 4.0]]
NEGATIVE_ZERO_MULTIPLIER_FILE = """\
factor lu 3 real
l
1.0 0.0 0.0
0.0 1.0 0.0
-0.5 0.16666666666666666 1.0
u
-2.0 1.0 0.0
0.0 3.0 1.0
0.0 0.0 3.8333333333333335
provenance
matrix-hash ac2142c526445b43 bytes
pivots -2.0 3.0 3.8333333333333335
flops 13
symmetry-tol none
pivot-threshold 2.6645352591003757e-15
"""


class TestFactorFiles:
    def test_record_built_lu_file_bytes(self):
        record = gauss_eliminate(DenseMatrix(NEGATIVE_ZERO_MULTIPLIER_A))
        assert math.copysign(1.0, record.lu.data[1, 0]) == -1.0
        text = render_factorization(lu_from_record(record))
        assert text == NEGATIVE_ZERO_MULTIPLIER_FILE
        assert render_factorization(parse_factorization(text)) == text

    def test_negative_zeros_in_an_lu_file_read_back_as_the_packed_array_holds_them(self):
        # Hand-written -0.0s: the multiplier m_21, L's l_12, U's u_21, and U's own u_13.
        text = NEGATIVE_ZERO_MULTIPLIER_FILE.replace("l\n1.0 0.0 0.0\n0.0 1.0", "l\n1.0 -0.0 0.0\n-0.0 1.0")
        text = text.replace("u\n-2.0 1.0 0.0\n0.0 3.0", "u\n-2.0 1.0 -0.0\n-0.0 3.0")
        assert text.count("-0.0") == 4
        f = parse_factorization(text)
        # L's multipliers and the zeros outside each triangle read as +0.0, as in
        # every L and U formed; U's own entries read bit for bit.
        assert f == parse_factorization(NEGATIVE_ZERO_MULTIPLIER_FILE)
        assert render_factorization(f) == NEGATIVE_ZERO_MULTIPLIER_FILE.replace("-2.0 1.0 0.0", "-2.0 1.0 -0.0")
        assert math.copysign(1.0, f.lu.data[0, 2]) == -1.0

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

    @pytest.mark.parametrize("n", [1, 4, 17])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind", ["lu", "gauss-cholesky"])
    def test_parse_inverts_render(self, kind, field, n):
        rng = np.random.default_rng(n)
        if kind == "lu":
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            if field == "complex":
                a = a + 1j * rng.standard_normal((n, n))
            f = lu_from_record(gauss_eliminate(DenseMatrix(a)))
        elif field == "real":
            f = gauss_cholesky(DenseMatrix(random_spd(rng, n)))
        else:
            f = gauss_cholesky(DenseMatrix(random_symmetric(rng, n, complex_entries=True) + n * np.eye(n)))
        assert getattr(f, "u" if kind == "lu" else "g").field == field
        text = render_factorization(f)
        parsed = parse_factorization(text)
        assert parsed == f
        assert render_factorization(parsed) == text

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

    @pytest.mark.parametrize("threshold", ["", OVERFLOWING_DIVISOR_THRESHOLD], ids=["unrecorded", "recorded"])
    def test_divisor_whose_modulus_overflows_rejected(self, threshold):
        # Unrecorded, max|U| saturates at the largest double and u_11 clears 1 * eps * max|U|.
        with pytest.raises(ParseError, match=re.escape(f"({OVERFLOWING_DIVISOR_MESSAGE})")):
            parse_factorization(OVERFLOWING_DIVISOR_FACTOR_FILE + threshold)

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
        out, namespace = io.StringIO(), {}
        with contextlib.redirect_stdout(out):
            exec(block, namespace)
        assert out.getvalue().splitlines() == shown
        assert len(shown) == 2
        # The documented ledger and answer, pinned apart from the README's own comments.
        assert shown[1] == "CostReport(first_flops=72, reuse_flops_per_rhs=32, reuse_count=1, total_flops=104)"
        assert np.allclose(namespace["x2"].solutions.data.ravel(), [3.75, 1.75, -0.5, 1], rtol=1e-12, atol=0)


# GOLD_A's factor file, one entry per line: 1 header, 2 g, 3-6 rows, 7 provenance,
# 8 matrix-hash, 9 pivots, 10 flops, 11 symmetry-tol, 12 pivot-threshold.
GOLD_FACTOR_LINES = render_factorization(gauss_cholesky(DenseMatrix(GOLD_A))).splitlines()


def _gold_factor(line: int, replacement: str) -> str:
    lines = list(GOLD_FACTOR_LINES)
    lines[line - 1] = replacement
    return "\n".join(lines) + "\n"


def _gold_factor_cut(before: int, tail: str = "") -> str:
    return "\n".join(GOLD_FACTOR_LINES[: before - 1]) + "\n" + tail


class TestKeywordLineErrors:
    """Every header and provenance line's error: message, line and column, pinned whole."""

    @pytest.mark.parametrize(
        "parse, text, message, line, column",
        [
            (parse_matrix, "", "line 1: expected header line 'matrix <rows> <cols> <field>'", 1, None),
            (parse_matrix, "# only\n\n  # note\n",
             "line 3: expected header line 'matrix <rows> <cols> <field>'", 3, None),
            (parse_factorization, "", "line 1: expected keyword 'factor'", 1, None),
            (parse_factorization, "# only\n\n  # note\n", "line 3: expected keyword 'factor'", 3, None),
            (parse_matrix, "\n  vector 2 2 real\n1 2\n3 4\n",
             "line 2, column 3: expected keyword 'matrix', got 'vector'", 2, 3),
            (parse_factorization, "matrix 1 1 real\n1\n",
             "line 1, column 1: expected keyword 'factor', got 'matrix'", 1, 1),
            (parse_matrix, "  matrix 2 2\n1 2\n3 4\n",
             "line 1, column 3: expected 'matrix <rows> <cols> <field>', got 3 tokens", 1, 3),
            (parse_matrix, "# c\nmatrix 2 2 real 9\n1 2\n3 4\n",
             "line 2, column 1: expected 'matrix <rows> <cols> <field>', got 5 tokens", 2, 1),
            (parse_factorization, _gold_factor(1, " factor gauss-cholesky 4"),
             "line 1, column 2: expected 'factor <kind> <n> <field>', got 3 tokens", 1, 2),
            (parse_factorization, _gold_factor(8, "  matrix-hash"),
             "line 8, column 3: expected a hash value and its scheme", 8, 3),
            (parse_factorization, _gold_factor(8, "matrix-hash 0123456789abcdef bytes x"),
             "line 8, column 1: expected a hash value and its scheme", 8, 1),
            (parse_factorization, _gold_factor(9, "pivots 1.0 4.0 4.0 1.0 1.0"),
             "line 9, column 1: expected 4 pivots, found 5", 9, 1),
            (parse_factorization, _gold_factor(9, "   pivots"),
             "line 9, column 4: expected 4 pivots, found 0", 9, 4),
            (parse_factorization, _gold_factor(10, "flops"), "line 10, column 1: expected a flop count", 10, 1),
            (parse_factorization, _gold_factor(10, " flops 44 44"), "line 10, column 2: expected a flop count", 10, 2),
            (parse_factorization, _gold_factor(11, "  symmetry-tol"),
             "line 11, column 3: expected a tolerance or 'none'", 11, 3),
            (parse_factorization, _gold_factor(11, "symmetry-tol none 1e-12"),
             "line 11, column 1: expected a tolerance or 'none'", 11, 1),
            (parse_factorization, _gold_factor_cut(7), "line 6: expected keyword 'provenance'", 6, None),
            (parse_factorization, _gold_factor_cut(7, "\n# cut\n  \n"),
             "line 9: expected keyword 'provenance'", 9, None),
            (parse_factorization, _gold_factor_cut(9), "line 8: expected keyword 'pivots'", 8, None),
            (parse_factorization, _gold_factor_cut(9, "# cut\n\n"), "line 10: expected keyword 'pivots'", 10, None),
        ],
    )
    def test_error_is_pinned(self, parse, text, message, line, column):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (str(exc.value), exc.value.line, exc.value.column) == (message, line, column)


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

    @staticmethod
    def _assert_points_into(text, exc):
        """The error names a line of ``text``, and any column starts a token on that line."""
        lines = text.splitlines()
        assert 1 <= exc.line <= max(len(lines), 1)
        if exc.column is not None:
            assert exc.column in [m.start() + 1 for m in re.finditer(r"\S+", lines[exc.line - 1])]

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
                self._assert_points_into(mutated, exc)
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
                self._assert_points_into(mutated, exc)


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: its ParseError whole, or every array's bytes."""
    try:
        result = parse(text)
    except ParseError as exc:
        return "rejected", str(exc), exc.line, exc.column
    if isinstance(result, DenseMatrix):
        return "accepted", result.data.dtype.str, result.data.shape, result.data.tobytes()
    arrays = [getattr(result, name).data for name in FACTOR_NAMES[result.kind]]
    return "accepted", [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], result.provenance


def _special_matrix(rng, n, complex_entries):
    """Entries over 600 decades, with -0.0, subnormals and +-1.7e308 planted."""
    def draw():
        return rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))

    a = draw() + 1j * draw() if complex_entries else draw()
    specials = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3, 1.7e308, -1.7e308]
    for k, v in enumerate(specials):
        a[k % n, (3 * k) % n] = complex(v, specials[-1 - k]) if complex_entries else v
    return DenseMatrix(a)


class TestRowReader:
    """The per-line ``float()`` reader against the token-by-token reference (``oracles.token_read_rows``)."""

    ALPHABET = TestFuzz.ALPHABET + "_inf\xa0١,"
    _mutate = TestFuzz._mutate

    @staticmethod
    def _reference(monkeypatch, parse, text):
        with monkeypatch.context() as m:
            m.setattr(factorkit.matio, "_read_rows", token_read_rows)
            return _outcome(parse, text)

    def _assert_same(self, monkeypatch, parse, text):
        got = _outcome(parse, text)
        assert got == self._reference(monkeypatch, parse, text), text
        return got

    @pytest.mark.parametrize(
        "parse, base",
        [
            (parse_matrix, render_matrix(DenseMatrix(GOLD_A))),
            (parse_matrix, render_matrix(DenseMatrix(np.array(GOLD_A) * (1.5 - 2.25e-3j)))),
            (parse_factorization, render_factorization(lu_from_record(gauss_eliminate(DenseMatrix(GOLD_A))))),
            (parse_factorization, render_factorization(gauss_cholesky(DenseMatrix([[1, 2], [2, 1]])))),
        ],
        ids=["real-matrix", "complex-matrix", "lu-factor", "complex-g-factor"],
    )
    def test_mutated_files_read_as_the_reference_reads_them(self, monkeypatch, parse, base):
        rng = np.random.default_rng(34)
        verdicts = {"accepted": 0, "rejected": 0}
        for _ in range(400):
            verdicts[self._assert_same(monkeypatch, parse, self._mutate(rng, base))[0]] += 1
        assert min(verdicts.values()) > 0

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ("matrix 1 2 complex\n1,2,3 4,5\n", "line 2, column 1: expected a complex pair re,im, got '1,2,3'", 2, 1),
            ("matrix 1 2 complex\n4,5 1\n", "line 2, column 5: expected a complex pair re,im, got '1'", 2, 5),
            ("matrix 1 2 complex\n4,5 1,,2\n", "line 2, column 5: expected a complex pair re,im, got '1,,2'", 2, 5),
            ("matrix 1 2 real\n3 1,2\n", "line 2, column 3: expected a real number, got complex pair '1,2'", 2, 3),
            ("matrix 1 2 real\n3 inf\n", "line 2, column 3: expected a finite number, got 'inf'", 2, 3),
            ("matrix 1 2 real\nnan 3\n", "line 2, column 1: expected a finite number, got 'nan'", 2, 1),
            ("matrix 1 2 real\n3 1e999\n", "line 2, column 3: expected a finite number, got '1e999'", 2, 3),
            ("matrix 1 2 real\n-inf inf\n", "line 2, column 1: expected a finite number, got '-inf'", 2, 1),
            ("matrix 1 2 complex\n1,2 nan,0\n", "line 2, column 5: expected finite components, got 'nan,0'", 2, 5),
            ("matrix 1 1 complex\n0,1e999\n", "line 2, column 1: expected finite components, got '0,1e999'", 2, 1),
            # a non-finite entry on row r is reported, not the bad token on row r + 2
            ("matrix 4 2 real\n1 2\n3 nan\n5 6\nx 8\n", "line 3, column 3: expected a finite number, got 'nan'",
             3, 3),
            ("matrix 4 1 complex\n1,2\ninf,0\n# c\n5,6\n7\n",
             "line 3, column 1: expected finite components, got 'inf,0'", 3, 1),
            ("matrix 2 2 real\n1 2 3\n4 5\n", "line 2, column 1: expected 2 entries, found 3", 2, 1),
            ("matrix 2 2 real\n1 2\n  x\n", "line 3, column 3: expected 2 entries, found 1", 3, 3),
        ],
    )
    def test_rejected_rows_are_pinned(self, monkeypatch, text, message, line, column):
        assert self._assert_same(monkeypatch, parse_matrix, text) == ("rejected", message, line, column)

    @pytest.mark.parametrize(
        "text, values",
        [
            ("matrix 1 2 real\n1e308 1e308\n", [1e308, 1e308]),
            ("matrix 2 2 real\n1.7e308 -1.7e308\n-1.7e308 -1.7e308\n", [1.7e308, -1.7e308, -1.7e308, -1.7e308]),
            ("matrix 1 2 complex\n1.7e308,0 0,1.7e308\n", [1.7e308, 1.7e308j]),
            ("matrix 1 1 complex\n1.7e308,1.7e308\n", [complex(1.7e308, 1.7e308)]),
            ("matrix 1 2 complex\n1,-1e308 2,-1e308\n", [1 - 1e308j, 2 - 1e308j]),
        ],
    )
    def test_rows_whose_sum_overflows_are_accepted(self, monkeypatch, text, values):
        accepted = self._assert_same(monkeypatch, parse_matrix, text)
        assert accepted[0] == "accepted"
        assert_array_equal(parse_matrix(text).data.ravel(), values)

    @pytest.mark.parametrize(
        "text, values, token_path",
        [
            ("matrix 1 2 real\n1_0 ١٢\n", [10.0, 12.0], False),
            ("matrix 1 4 real\n1_0 ١٢ 1e308 1e308\n", [10.0, 12.0, 1e308, 1e308], True),
            ("matrix 1 1 complex\n1_0,١٢\n", [10 + 12j], False),
            ("matrix 1 3 complex\n1_0,١٢ 1e308,0 1e308,0\n", [10 + 12j, 1e308, 1e308], True),
        ],
        ids=["real", "real-token-path", "complex", "complex-token-path"],
    )
    def test_float_is_the_number_grammar(self, monkeypatch, text, values, token_path):
        # digit-group underscores and non-ASCII decimal digits read as float() reads them, on either path
        calls = []
        for name in ("_parse_real", "_parse_complex"):
            original = getattr(factorkit.matio, name)
            monkeypatch.setattr(factorkit.matio, name, lambda *a, _f=original: calls.append(a) or _f(*a))
        assert_array_equal(parse_matrix(text).data.ravel(), values)
        assert bool(calls) == token_path

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_parse_inverts_render_at_n_600(self, field):
        m = _special_matrix(np.random.default_rng(35), 600, field == "complex")
        out = parse_matrix(render_matrix(m))
        assert (out.data.dtype, out.data.tobytes()) == (m.data.dtype, m.data.tobytes())

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_rows_render_as_format_entry_writes_entries(self, field):
        m = _special_matrix(np.random.default_rng(36), 12, field == "complex")
        assert _render_rows(m) == [" ".join(format_entry(v) for v in row) for row in m.data]
