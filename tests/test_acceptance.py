"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or
``pytest -v -rA``) and enforces the criterion's tolerance exactly as
stated. Random cases use frozen seeds so every run is identical.
"""

import functools
import time

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from factorkit import (
    DenseMatrix,
    KIND_GAUSS_CHOLESKY,
    ZeroPivotError,
    back_substitute,
    forward_substitute,
    gauss_cholesky,
    gauss_eliminate,
    lu_from_record,
    parse_matrix,
    render_matrix,
    run_bench,
    solve,
    transpose,
    vector,
)
from factorkit.cli import cli_main
from factorkit.errors import ParseError
from factorkit.matrices import principal_sqrt

from conftest import GOLD_A, GOLD_B1, GOLD_B2, GOLD_BPRIME, GOLD_U, GOLD_X1, GOLD_X2, GOLD_Y2
from oracles import (
    adjugate_solve,
    classical_upper_cholesky,
    cofactor_det,
    random_spd,
    random_symmetric,
    random_unit_square_symmetric,
)


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {label}")
                raise
            print(f"PASS {label}")

        return wrapper

    return decorate


def _rel_fro(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


@criterion("criterion 1: golden elimination produces U and B' exactly, under 1 ms")
def test_criterion_01_golden_elimination():
    a = DenseMatrix(GOLD_A)
    b = vector(GOLD_B1)
    record = gauss_eliminate(a, b)
    assert_array_equal(np.triu(record.lu.data), np.array(GOLD_U, dtype=float))
    assert_array_equal(record.transformed_rhs.data.ravel(), np.array(GOLD_BPRIME, dtype=float))

    best = min(
        _timed(lambda: gauss_eliminate(a, b)) for _ in range(20)
    )
    assert best < 1e-3, f"elimination took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@criterion("criterion 2: golden solutions x1, x2 and intermediate y within 1e-13")
def test_criterion_02_golden_solutions():
    a = DenseMatrix(GOLD_A)
    record = gauss_eliminate(a, vector(GOLD_B1))
    x1 = back_substitute(lu_from_record(record).u, record.transformed_rhs)
    assert np.max(np.abs(x1.data.ravel() - np.array(GOLD_X1, float))) <= 1e-13

    f = gauss_cholesky(a)
    y = forward_substitute(transpose(f.g), vector(GOLD_B2))
    assert np.max(np.abs(y.data.ravel() - np.array(GOLD_Y2, float))) <= 1e-13
    x2 = solve(f, vector(GOLD_B2)).solutions
    assert np.max(np.abs(x2.data.ravel() - np.array(GOLD_X2, float))) <= 1e-13


@criterion("criterion 3: G^T G rebuilds 500 random complex symmetric matrices to 1e-9, under 5 s")
def test_criterion_03_complex_symmetric_reconstruction():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(2, 31))
        while True:
            a = random_unit_square_symmetric(rng, n)
            try:
                f = gauss_cholesky(DenseMatrix(a))
                break
            except ZeroPivotError:
                continue
        assert _rel_fro(f.g.data.T @ f.g.data, a) <= 1e-9
    assert time.perf_counter() - start < 5.0


@criterion("criterion 4: gauss-cholesky equals classical Cholesky on 200 SPD matrices to 1e-9")
def test_criterion_04_cholesky_agreement():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 51))
        a = random_spd(rng, n)
        f = gauss_cholesky(DenseMatrix(a))
        assert not f.g.is_complex, "SPD input must keep G real"
        assert np.all(np.diagonal(f.g.data) > 0)
        assert _rel_fro(f.g.data, classical_upper_cholesky(a)) <= 1e-9


@criterion("criterion 5: (I + multipliers) U = A to 1e-11 on 200 random matrices")
def test_criterion_05_lu_identity():
    rng = np.random.default_rng(0)
    done = 0
    while done < 200:
        n = int(rng.integers(2, 51))
        a = rng.standard_normal((n, n))
        try:
            record = gauss_eliminate(DenseMatrix(a))
        except ZeroPivotError:
            continue
        l = np.eye(n) + np.tril(record.lu.data, -1)
        assert _rel_fro(l @ np.triu(record.lu.data), a) <= 1e-11
        done += 1


@criterion("criterion 6: [[0,1],[1,0]] raises a zero-pivot error naming column 1")
def test_criterion_06_hypothesis_gap_regression():
    with pytest.raises(ZeroPivotError) as exc:
        gauss_cholesky(DenseMatrix([[0, 1], [1, 0]]))
    assert exc.value.column == 1
    assert "column 1" in str(exc.value)


@criterion("criterion 7: lu, gauss-cholesky, and adjugate solves agree to 1e-9; pivot determinant to 1e-10")
def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 5):
        done = 0
        while done < 40:
            a = random_symmetric(rng, n)
            b = rng.uniform(-1, 1, (n, 1))
            try:
                record = gauss_eliminate(DenseMatrix(a))
            except ZeroPivotError:
                continue
            x_lu = solve(lu_from_record(record), vector(b)).solutions.data
            x_gc = solve(gauss_cholesky(DenseMatrix(a)), vector(b)).solutions.data
            x_ref = adjugate_solve(a, b)
            scale = np.linalg.norm(x_ref)
            assert np.linalg.norm(x_lu - x_ref) <= 1e-9 * max(1.0, scale)
            assert np.linalg.norm(x_gc - x_ref) <= 1e-9 * max(1.0, scale)
            det = cofactor_det(a)
            assert abs(np.prod(record.pivots) - det) <= 1e-10 * abs(det)
            done += 1


@criterion("criterion 8: one factorization plus 10 reuses costs under 35% of 10 eliminations (n=50)")
def test_criterion_08_reuse_economics():
    result = run_bench(n=50, rhs_count=10, seed=0)
    assert result.method == KIND_GAUSS_CHOLESKY
    assert result.reuse_total < 0.35 * result.elimination_total, (
        f"{result.reuse_total} flops vs 35% of {result.elimination_total}"
    )
    # and the ledger is deterministic
    assert run_bench(n=50, rhs_count=10, seed=0) == result


@criterion("criterion 9: L(A) D^-1 equals transpose(D U(A)) to 1e-11 on 100 symmetric matrices")
def test_criterion_09_proof_identity():
    rng = np.random.default_rng(3)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 21))
        a = random_symmetric(rng, n, complex_entries=bool(done % 2))
        try:
            record = gauss_eliminate(DenseMatrix(a))
        except ZeroPivotError:
            continue
        roots = np.array([principal_sqrt(p) for p in record.pivots])
        l = np.eye(n) + np.tril(record.lu.data, -1)
        lhs = l * roots[None, :]          # L(A) @ diag(roots)
        rhs = (np.triu(record.lu.data) / roots[:, None]).T  # transpose(diag(1/roots) @ U(A))
        assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(rhs)
        done += 1


@criterion("criterion 10: parse/render identity, CLI prints 3.75 1.75 -0.5 1, fuzz never crashes")
def test_criterion_10_cli_round_trip_and_fuzz(tmp_path, capsys):
    rng = np.random.default_rng(4)
    for i in range(200):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        data = rng.uniform(-1e3, 1e3, (n, m))
        if i % 2:
            data = data + 1j * rng.uniform(-1e3, 1e3, (n, m))
        matrix = DenseMatrix(data)
        again = parse_matrix(render_matrix(matrix))
        assert again == matrix and again.is_complex == matrix.is_complex

    a_path = tmp_path / "a.mat"
    rhs_path = tmp_path / "b2.mat"
    a_path.write_text(render_matrix(DenseMatrix(GOLD_A)))
    rhs_path.write_text(render_matrix(vector(GOLD_B2)))
    argv = ["solve", "--matrix", str(a_path), "--rhs", str(rhs_path), "--method", "gauss-cholesky"]
    assert cli_main(argv) == 0
    out_first = capsys.readouterr().out
    assert "3.75 1.75 -0.5 1" in out_first.splitlines()
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == out_first  # byte-identical rerun

    alphabet = "0123456789.,-+eE# \nmatrixcomplel"
    base = render_matrix(DenseMatrix(GOLD_A))
    fuzz_path = tmp_path / "fuzz.mat"
    rejected = 0
    for i in range(1000):
        chars = list(base)
        for _ in range(int(rng.integers(1, 4))):
            op = int(rng.integers(0, 4))
            if op == 0 and chars:
                chars[int(rng.integers(0, len(chars)))] = alphabet[int(rng.integers(0, len(alphabet)))]
            elif op == 1 and chars:
                del chars[int(rng.integers(0, len(chars)))]
            elif op == 2:
                chars.insert(int(rng.integers(0, len(chars) + 1)), alphabet[int(rng.integers(0, len(alphabet)))])
            else:
                chars = chars[: int(rng.integers(0, len(chars) + 1))]
        mutated = "".join(chars)
        try:
            parse_matrix(mutated)
        except ParseError as exc:
            rejected += 1
            assert f"line {exc.line}" in str(exc)
        if i % 20 == 0:  # spot-check the full CLI path as well
            fuzz_path.write_text(mutated)
            assert cli_main(["check", "--input", str(fuzz_path)]) in (0, 1, 2)
    capsys.readouterr()
    assert rejected > 0
