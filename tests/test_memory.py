"""Each step of a session allocates only the arrays it returns or keeps.

A step's scratch is tracemalloc's peak during the step minus what is still
allocated after it, in units of one n x n array of A's entries. A step may
hold no array the size of A where an in-place form exists: at most a
quarter of one (boolean masks, blocks of rows). Opening a session on a
nonsymmetric matrix may hold one more, A - A^T, and ``verify`` two: the
product and the scaled A it is compared with. Reading or writing a matrix
file holds one copy of the text, as lines, and one row of Python numbers at
a time.

What a step keeps is tracemalloc's allocation after it minus before it. An
LU factorization keeps the elimination's packed array, not a copy of it, so
an LU session holds what a gauss-cholesky one does, give or take the
second set of block inverses.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from factorkit import DenseMatrix, gauss_eliminate, lu_from_record, open_session, session_solve, verify
from factorkit.factorizations import KIND_GAUSS_CHOLESKY, KIND_LU, from_record
from factorkit.matio import parse_matrix, render_matrix

from oracles import random_spd, random_symmetric

N = 320  # above 256, so that max_abs's block of rows (2**14 entries) is under a quarter of A


def scratch(step):
    """(result, peak minus kept) of ``step()``, in bytes, as tracemalloc sees it."""
    gc.collect()
    gc.disable()  # a collection inside the step would lower what looks kept
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = step()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
        gc.enable()
    return result, peak - kept


def kept(step):
    """(result, what is allocated after ``step()`` and was not before), in bytes, as tracemalloc sees it."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = step()
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, after - before


def system(field: str, symmetric: bool) -> DenseMatrix:
    rng = np.random.default_rng(30)
    if symmetric:
        a = random_spd(rng, N) if field == "real" else random_symmetric(rng, N, complex_entries=True)
    else:
        a = rng.standard_normal((N, N)) + (1j * rng.standard_normal((N, N)) if field == "complex" else 0)
    return DenseMatrix(a + N * np.eye(N))


def in_arrays(nbytes: int, a: DenseMatrix) -> float:
    return nbytes / a.data.nbytes


@pytest.fixture(params=["real", "complex"])
def field(request):
    return request.param


@pytest.fixture(params=[KIND_LU, KIND_GAUSS_CHOLESKY])
def kind(request):
    return request.param


class TestScratchPerStep:
    def test_max_abs(self, field):
        a = system(field, symmetric=False)
        _, used = scratch(a.max_abs)
        assert in_arrays(used, a) <= 0.25

    def test_open_session_on_nonsymmetric_input(self, field):
        a = system(field, symmetric=False)
        session, used = scratch(lambda: open_session(a, "auto"))
        assert session.method == KIND_LU
        assert in_arrays(used, a) <= 1.25

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_gauss_eliminate(self, field, symmetric):
        a = system(field, symmetric)
        _, used = scratch(lambda: gauss_eliminate(a, symmetric=symmetric))
        assert in_arrays(used, a) <= 0.25

    def test_from_record(self, field, kind):
        a = system(field, symmetric=True)
        record = gauss_eliminate(a, symmetric=kind == KIND_GAUSS_CHOLESKY)
        _, used = scratch(lambda: from_record(record, kind))
        assert in_arrays(used, a) <= 0.25

    def test_first_rebuild(self, field, kind):
        a = system(field, symmetric=True)
        f = from_record(gauss_eliminate(a), kind)
        _, used = scratch(f.rebuild)
        assert in_arrays(used, a) <= 0.25

    def test_verify(self, field, kind):
        a = system(field, symmetric=True)
        f = from_record(gauss_eliminate(a), kind)
        error, used = scratch(lambda: verify(f, a))
        assert error <= 1e-13
        assert in_arrays(used, a) <= 2.25


class TestKeptPerStep:
    def test_lu_from_record_keeps_no_array(self, field):
        a = system(field, symmetric=False)
        record = gauss_eliminate(a)
        f, held = kept(lambda: lu_from_record(record))
        assert in_arrays(held, a) <= 0.25
        assert f.lu is record.lu

    def test_an_lu_session_holds_what_a_gauss_cholesky_one_does(self, field):
        def after_first_reuse(a, method):
            s = open_session(a, method)
            b = DenseMatrix(np.ones((N, 1)))
            session_solve(s, b)
            session_solve(s, b)
            return s

        a_lu, a_gc = system(field, symmetric=False), system(field, symmetric=True)
        _, lu = kept(lambda: after_first_reuse(a_lu, KIND_LU))
        _, gc_ = kept(lambda: after_first_reuse(a_gc, KIND_GAUSS_CHOLESKY))
        assert in_arrays(gc_, a_gc) >= 2  # G and its product
        assert in_arrays(lu, a_lu) <= in_arrays(gc_, a_gc) + 0.25


class TestMatrixFiles:
    def test_render_then_parse(self, field):
        a = system(field, symmetric=False)
        text, used = scratch(lambda: render_matrix(a))
        assert used <= len(text) + 0.5 * a.data.nbytes
        back, used = scratch(lambda: parse_matrix(text))
        assert back == a
        assert used <= len(text) + 0.5 * a.data.nbytes


class TestMaxAbs:
    """``max_abs`` is ``np.max(np.abs(data))``, whichever way it is computed."""

    BIG = float(np.finfo(np.float64).max)
    TINY = 5e-324

    @pytest.mark.parametrize("fortran", [False, True])
    @pytest.mark.parametrize(
        "entries",
        [
            [[0.0, -0.0], [-0.0, 0.0]],
            [[-TINY, 0.0], [TINY / 2, -0.0]],
            [[-BIG, 1.0], [2.0, 3.0]],
            [[BIG, -BIG], [-1.0, 0.0]],
            [[-3.0, -2.0], [-1.0, -0.5]],
            [[1 + 2j, -0.0 - 3j], [-TINY * 1j, 0j]],
            [[complex(-BIG, 0), complex(0, BIG)], [1j, -1]],
        ],
    )
    def test_equals_the_largest_magnitude(self, entries, fortran):
        arr = np.array(entries)
        a = DenseMatrix(np.asfortranarray(arr) if fortran else arr)
        assert a.max_abs() == float(np.max(np.abs(arr)))
        assert math.copysign(1.0, a.max_abs()) == 1.0

    @pytest.mark.parametrize("fortran", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1), (300, 300), (1, 40000), (40000, 1), (129, 130)])
    def test_equals_the_largest_magnitude_across_row_blocks(self, shape, field, fortran):
        rng = np.random.default_rng(shape[0] * 7 + shape[1])
        arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        if field == "complex":
            arr = arr + 1j * rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        a = DenseMatrix(np.asfortranarray(arr) if fortran else arr)
        assert a.max_abs() == float(np.max(np.abs(arr)))

    @pytest.mark.parametrize("fortran", [False, True])
    def test_a_modulus_beyond_the_largest_double_gives_the_largest_double(self, fortran):
        arr = np.array([[1.0, complex(1.5e308, 1.5e308)], [complex(-self.BIG, self.BIG), -1.0]])
        assert np.isinf(np.abs(arr)).sum() == 2
        a = DenseMatrix(np.asfortranarray(arr) if fortran else arr)
        assert a.max_abs() == self.BIG

    def test_an_all_negative_zero_matrix_gives_positive_zero(self):
        value = DenseMatrix([[-0.0]]).max_abs()
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestSymmetryDeviation:
    """The deviation and its place are those of argmax over the whole |A - A^T|."""

    @pytest.mark.parametrize("fortran", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 65])
    def test_matches_the_whole_array_argmax(self, n, field, fortran):
        rng = np.random.default_rng(n)
        # Small integers: the largest deviation recurs, so its place is a tie.
        arr = rng.integers(-3, 4, (n, n)).astype(float)
        if field == "complex":
            arr = arr + 1j * rng.integers(-3, 4, (n, n))
        a = DenseMatrix(np.asfortranarray(arr) if fortran else arr)
        diff = np.abs(arr - arr.T)
        i, j = np.unravel_index(np.argmax(diff), diff.shape)
        assert a.symmetry_deviation() == (float(diff[i, j]), (int(i) + 1, int(j) + 1))
