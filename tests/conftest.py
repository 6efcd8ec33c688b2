"""Shared fixtures: a 4x4 symmetric system small enough to work by hand.

All expected values below were verified by hand (and the derived ones by
the oracles in oracles.py) before being frozen here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import factorkit.elimination
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
# A pivot far below max|U| but above n * eps * max|A|: the elimination
# accepts it, so every path must.
NEAR_SINGULAR_A = [[1e-8, 1], [1, 1]]
# A first pivot below 2 * eps * 1: every path must fail in column 1.
ZERO_PIVOT_A = [[1e-20, 1], [1, 1]]
# A first pivot one ulp above its threshold 2 * eps * max|A| whose principal
# root, squared, rounds to at or below it: the elimination accepts it, so
# every path must, including the one that builds G from that root.
ULP_ABOVE_THRESHOLD_A = [[5.825701929797969e-16, 1.3118314520104855], [1.3118314520104855, 1.3118314520104855]]


def _count_calls(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name`` made inside the package."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module_name, loaded in list(sys.modules.items()):
        if module_name.startswith("factorkit.") and getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, counting)
    return calls


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
