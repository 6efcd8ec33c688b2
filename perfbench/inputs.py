"""Deterministic input generators.

Every input is drawn from ``numpy.random.default_rng([seed, stream, index])``,
so the same seed always yields the same matrices and right-hand sides, item by
item, however many items a run gets through. The program under test only ever
sees the generated arrays.

All non-failing matrices are strictly diagonally dominant (or, for the SPD
kind, well conditioned), so no-pivot elimination succeeds on them with small
growth; the failing variant zeroes one row and column, which makes the pivot
of exactly that column zero.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

SPD = "spd"
NONSYMMETRIC = "nonsymmetric"
COMPLEX_SYMMETRIC = "complex-symmetric"
INDEFINITE = "indefinite"

#: The factor-fresh and cli-files mix, in cycle order.
KINDS = (SPD, NONSYMMETRIC, COMPLEX_SYMMETRIC, INDEFINITE)

#: The method ``auto`` must resolve to for each kind.
EXPECTED_METHOD = {
    SPD: "gauss-cholesky",
    NONSYMMETRIC: "lu",
    COMPLEX_SYMMETRIC: "gauss-cholesky",
    INDEFINITE: "gauss-cholesky",
}

#: Whether the factor G (or U) of each kind is complex.
COMPLEX_FACTOR = {SPD: False, NONSYMMETRIC: False, COMPLEX_SYMMETRIC: True, INDEFINITE: True}


def rng_for(seed: int, stream: str, index: int) -> np.random.Generator:
    """Independent generator for item ``index`` of a named stream."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode()), index])


def _dominant_diagonal(a: np.ndarray) -> np.ndarray:
    return np.abs(a).sum(axis=1) + 1.0


def make_matrix(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """One n-by-n matrix of the given kind."""
    idx = np.arange(n)
    if kind == SPD:
        m = rng.standard_normal((n, n))
        a = m.T @ m / n + np.eye(n)
        return (a + a.T) / 2  # exactly symmetric, whatever the matmul kernel did
    if kind == NONSYMMETRIC:
        a = rng.standard_normal((n, n))
        a[idx, idx] = _dominant_diagonal(a)
        return a
    if kind == COMPLEX_SYMMETRIC:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        z = z + z.T
        phase = rng.uniform(-1.0, 1.0, n)
        z[idx, idx] = _dominant_diagonal(z) * np.exp(1j * phase)
        return z
    if kind == INDEFINITE:
        s = rng.standard_normal((n, n))
        s = s + s.T
        # Alternating signs: real symmetric, nonsingular leading minors, and
        # negative pivots, so the principal square roots make G complex.
        signs = np.where(idx % 2 == 0, 1.0, -1.0)
        s[idx, idx] = signs * _dominant_diagonal(s)
        return s
    raise ValueError(f"unknown matrix kind {kind!r}")


def zero_pivot_variant(a: np.ndarray, column: int) -> np.ndarray:
    """Copy of ``a`` whose 1-based row and column ``column`` are zero.

    Elimination leaves that row and column zero, so the pivot of exactly this
    column is zero while every earlier pivot is that of the intact matrix.
    """
    out = a.copy()
    out[column - 1, :] = 0
    out[:, column - 1] = 0
    return out


def make_rhs(a: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` right-hand-side columns in the field of ``a``."""
    b = rng.standard_normal((a.shape[0], k))
    if np.iscomplexobj(a):
        b = b + 1j * rng.standard_normal(b.shape)
    return b


@dataclass(frozen=True)
class Case:
    """One generated system: the matrix, its sides, and what must happen."""

    kind: str
    a: np.ndarray
    b: np.ndarray  # n-by-k
    fail_column: int | None = None  # 1-based column whose pivot is zero


def make_case(
    kind: str, n: int, k: int, rng: np.random.Generator, fail: bool = False
) -> Case:
    a = make_matrix(kind, n, rng)
    b = make_rhs(a, k, rng)
    if not fail:
        return Case(kind, a, b)
    column = int(rng.integers(1, n + 1))
    return Case(kind, zero_pivot_variant(a, column), b, column)
