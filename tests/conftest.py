"""Shared fixtures: a 4x4 symmetric system small enough to work by hand.

All expected values below were verified by hand (and the derived ones by
the oracles in oracles.py) before being frozen here.
"""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import factorkit.elimination
import factorkit.factorizations
import factorkit.matrices
from factorkit import DenseMatrix, vector

GOLD_A = [[1, -1, 0, 1], [-1, 5, 2, -3], [0, 2, 5, 1], [1, -3, 1, 4]]
GOLD_B1 = [3, -5, -7, 2]
GOLD_B2 = [3, 1, 2, 2]
GOLD_U = [[1, -1, 0, 1], [0, 4, 2, -2], [0, 0, 4, 2], [0, 0, 0, 1]]
GOLD_BPRIME = [3, -2, -6, 1]
# Strictly-lower multiplier table: columns (-1, 0, 1), (1/2, -1/2), (1/2).
GOLD_MULT = [[0, 0, 0, 0], [-1, 0, 0, 0], [0, 0.5, 0, 0], [1, -0.5, 0.5, 0]]
GOLD_L = [[1, 0, 0, 0], [-1, 1, 0, 0], [0, 0.5, 1, 0], [1, -0.5, 0.5, 1]]
GOLD_G = [[1, -1, 0, 1], [0, 2, 1, -1], [0, 0, 2, 1], [0, 0, 0, 1]]
GOLD_GT = [[1, 0, 0, 0], [-1, 2, 0, 0], [0, 1, 2, 0], [1, -1, 1, 1]]
GOLD_PIVOTS = (1.0, 4.0, 4.0, 1.0)
GOLD_X1 = [3, 1, -2, 1]
GOLD_X2 = [3.75, 1.75, -0.5, 1]
GOLD_Y2 = [3, 2, 0, 1]
# GOLD_A's factor file as written before factor files recorded their hash
# scheme: the untagged hash is blake2b of GOLD_A's canonical text.
LEGACY_GOLD_FACTOR_FILE = """factor gauss-cholesky 4 real
g
1.0 -1.0 0.0 1.0
0.0 2.0 1.0 -1.0
0.0 0.0 2.0 1.0
0.0 0.0 0.0 1.0
provenance
matrix-hash bf0aa662f48bfcf5
pivots 1.0 4.0 4.0 1.0
flops 44
symmetry-tol 1e-12
"""
# Real, symmetric and indefinite (pivots 1, -3, 10/3): G is complex, each of
# its rows purely real or purely imaginary, and every answer of a real
# system is real. INDEFINITE_A @ INDEFINITE_X = INDEFINITE_B, column by column.
INDEFINITE_A = [[1, 2, 0], [2, 1, 1], [0, 1, 3]]
INDEFINITE_B = [[1, 1], [0, 2], [1, 0]]
INDEFINITE_X = [[-0.4, 1], [0.7, 0], [0.1, 0]]
# A pivot far below max|U| but above n * eps * max|A|: the elimination
# accepts it, so every path must.
NEAR_SINGULAR_A = [[1e-8, 1], [1, 1]]
# A first pivot below 2 * eps * 1: every path must fail in column 1.
ZERO_PIVOT_A = [[1e-20, 1], [1, 1]]
# Finite and symmetric, but column 1's multiplier 1e14 sends the pivot of
# column 2 to 1 - 1e314 = -inf: every path must fail in column 2.
OVERFLOW_A = [[1e286, 1e300], [1e300, 1]]
OVERFLOW_MESSAGE = "non-finite pivot in column 2: the elimination overflowed"
# Healthy and symmetric, with the largest double on its diagonal: G^T G,
# formed unscaled, overflows at (2,2), so the reconstruction is measured
# from scaled factors.
LARGEST_DOUBLE_A = [[1.7976931348623157e308, 1e308], [1e308, 1.7976931348623157e308]]
# Finite, with a_12 = 1.5e308 + 1.5e308j, whose modulus exceeds the largest
# double: max|a_ij| saturates there, so every rule it scales is finite. Not
# symmetric (a_12 - a_21 overflows), and its pivot 1 is negligible.
MODULUS_OVERFLOW_A = [[1, 1.5e308 + 1.5e308j], [1e-308, 1]]
# A 1 x 1 LU factor file, without a pivot threshold, whose finite divisor
# u_11 = 1.5e308 + 1.5e308j has a modulus beyond the largest double: LAPACK's
# reciprocal of it underflows, so loading must reject it.
OVERFLOWING_DIVISOR_FACTOR_FILE = """factor lu 1 complex
l
1.0,0.0
u
1.5e308,1.5e308
provenance
matrix-hash f71ba4739610b7ac bytes
pivots 1.5e308,1.5e308
flops 0
symmetry-tol none
"""
OVERFLOWING_DIVISOR_THRESHOLD = "pivot-threshold 3.1401849173675503e-16\n"
OVERFLOWING_DIVISOR_MESSAGE = "factor u has a diagonal entry whose modulus overflows"
# Healthy and symmetric, but the side's 1 - 1e3 * 1e306 = -inf: the
# elimination, or the forward substitution, overflows the side, not a pivot.
SIDE_OVERFLOW_A = [[1e-3, 1], [1, 1]]
SIDE_OVERFLOW_B = [1e306, 1]
# Its complex twin, whose sides do not ride in the working array: the side's
# 1 - 1e3j * 1e306 overflows to 1 - inf j in the forward substitution instead.
COMPLEX_SIDE_OVERFLOW_A = [[1e-3, 1j], [1j, 1]]
SIDE_OVERFLOW_MESSAGE = "the elimination of the right-hand side overflowed"
FORWARD_OVERFLOW_MESSAGE = "the forward substitution overflowed"
# Healthy and symmetric, and the side eliminates to itself, but the back
# substitution's x_2 = 1e306 / 1e-3 = inf.
SUBSTITUTION_OVERFLOW_A = [[1, 0], [0, 1e-3]]
SUBSTITUTION_OVERFLOW_B = [1, 1e306]
BACK_OVERFLOW_MESSAGE = "the back substitution overflowed"
# A first pivot one ulp above its threshold 2 * eps * max|A| whose principal
# root, squared, rounds to at or below it: the elimination accepts it, so
# every path must, including the one that builds G from that root.
ULP_ABOVE_THRESHOLD_A = [[5.825701929797969e-16, 1.3118314520104855], [1.3118314520104855, 1.3118314520104855]]
# Asymmetric by 1e-13, half its largest entry: symmetric only if the
# tolerance were floored at an absolute 1e-12. Both columns of the side
# have the solution (0.25, 0.5); read as G^T G, A answers (0.375, 0.25).
TINY_ASYMMETRIC_A = [[2e-13, 1e-13], [0, 2e-13]]
TINY_ASYMMETRIC_B = [[1e-13, 1e-13], [1e-13, 1e-13]]
TINY_ASYMMETRIC_MESSAGE = "matrix is not symmetric: |a[1,2] - a[2,1]| = 1.000000e-13 exceeds 2.000000e-25"


def _count_calls(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name`` made inside the package."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, loaded in list(sys.modules.items()):
        if module_name.startswith("factorkit.") and getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, counting)
    return calls


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


@pytest.fixture
def record_builds(monkeypatch):
    """Every call of ``lu_from_record`` or ``gauss_cholesky_from_record``, which ``from_record`` calls by global name."""
    builds = []
    for name in ("lu_from_record", "gauss_cholesky_from_record"):
        build = getattr(factorkit.factorizations, name)
        monkeypatch.setattr(factorkit.factorizations, name, lambda *a, build=build: builds.append(a) or build(*a))
    return builds


@pytest.fixture
def product_calls(monkeypatch):
    """Every call of ``factorizations._product``, which forms the factors' product."""
    return _count_calls(monkeypatch, factorkit.factorizations, "_product")


@pytest.fixture
def residual_norm_calls(monkeypatch):
    """Every call of ``matrices.residual_norm`` made inside the package."""
    return _count_calls(monkeypatch, factorkit.matrices, "residual_norm")


@pytest.fixture
def pivot_threshold_calls(monkeypatch):
    """Every call of the package's pivot policy, ``elimination._pivot_threshold``."""
    return _count_calls(monkeypatch, factorkit.elimination, "_pivot_threshold")


@pytest.fixture
def gauss_eliminate_calls(monkeypatch):
    """Every call of ``elimination.gauss_eliminate`` made inside the package."""
    return _count_calls(monkeypatch, factorkit.elimination, "gauss_eliminate")


@pytest.fixture
def matrix_hash_calls(monkeypatch):
    """Every call of ``matrices.matrix_hash`` made inside the package."""
    return _count_calls(monkeypatch, factorkit.matrices, "matrix_hash")


@pytest.fixture
def symmetry_scans(monkeypatch):
    """Every ``DenseMatrix.symmetry_deviation`` call that had to scan its matrix (nothing cached yet)."""
    scans = []
    original = factorkit.matrices.DenseMatrix.symmetry_deviation

    def counting(m):
        if getattr(m, "_symmetry", None) is None:
            scans.append(m)
        return original(m)

    monkeypatch.setattr(factorkit.matrices.DenseMatrix, "symmetry_deviation", counting)
    return scans


@pytest.fixture
def golden_a():
    return DenseMatrix(GOLD_A)


@pytest.fixture
def golden_b1():
    return vector(GOLD_B1)


@pytest.fixture
def golden_b2():
    return vector(GOLD_B2)


@pytest.fixture
def golden_u():
    return DenseMatrix(GOLD_U)


@pytest.fixture
def golden_g():
    return DenseMatrix(GOLD_G)
