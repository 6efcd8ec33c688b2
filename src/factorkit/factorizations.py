"""Packaged factorizations built from an elimination pass.

Two kinds are supported:

* ``lu``: A = L U with L the unit lower-triangular multiplier matrix and U
  the eliminated upper triangle.
* ``gauss-cholesky``: for symmetric A (complex symmetric allowed, no
  conjugation), A = G^T G where G is U with row i divided by the principal
  square root of the pivot u_ii. Real symmetric positive definite input
  stays entirely real on the same code path; a negative pivot simply makes
  G complex. No positive-definiteness proof is attempted or required.

Both kinds are immutable once constructed and may serve any number of
concurrent solves. The first solve of a factorization larger than one
substitution block inverts the diagonal blocks of its triangular factors
(one set for G, whose transposes serve G^T; one each for L and U) and
caches them, so every solve substitutes block by block. The inverses are
derived state: never a constructor argument, never written to factor files.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .elimination import EliminationRecord, _pivot_threshold, _require_triangular, gauss_eliminate, scaling_flops
from .elimination import _block_inverses, _solve_lower, _solve_upper
from .errors import NotSymmetricError, ShapeError
from .matrices import (
    DEFAULT_SYMMETRY_TOL,
    HASH_SCHEME,
    DenseMatrix,
    principal_sqrt,
    residual_norm,
)

__all__ = [
    "Factorization",
    "KIND_GAUSS_CHOLESKY",
    "KIND_LU",
    "Provenance",
    "SolveReport",
    "gauss_cholesky",
    "gauss_cholesky_from_record",
    "lu_from_record",
    "solve",
    "verify",
]

KIND_LU = "lu"
KIND_GAUSS_CHOLESKY = "gauss-cholesky"

# The factors each kind carries, in file order; the last one's diagonal
# holds the divisors of the solves.
FACTOR_NAMES = {KIND_LU: ("l", "u"), KIND_GAUSS_CHOLESKY: ("g",)}


@dataclass(frozen=True)
class Provenance:
    """Where a factorization came from: source hash, pivot sequence, cost.

    ``hash_scheme`` names how ``matrix_hash`` was computed; factor files
    written before schemes were recorded carry the legacy ``"text"`` one.
    ``pivot_threshold`` is the elimination's bound on |pivot|; ``None`` if
    not recorded, as in older factor files.
    """

    matrix_hash: str
    pivots: tuple
    flops: int
    symmetry_tol: float | None = None
    hash_scheme: str = HASH_SCHEME
    pivot_threshold: float | None = None


@dataclass(frozen=True)
class SolveReport:
    """Solutions (one column per right-hand side) with quality and cost."""

    solutions: DenseMatrix
    residuals: tuple[float, ...]
    flops: int
    method: str


@dataclass(frozen=True)
class Factorization:
    """A tagged factorization: LU factors, or the single G of A = G^T G."""

    kind: str
    n: int
    provenance: Provenance
    l: DenseMatrix | None = None
    u: DenseMatrix | None = None
    g: DenseMatrix | None = None

    def __post_init__(self):
        names = FACTOR_NAMES.get(self.kind)
        if names is None:
            raise ValueError(f"unknown factorization kind {self.kind!r}")
        if tuple(name for name in "lug" if getattr(self, name) is not None) != names:
            raise ValueError(f"{self.kind} factorizations carry exactly {' and '.join(names)}")
        for name in names:
            m = getattr(self, name)
            if m.shape != (self.n, self.n):
                raise ShapeError(f"factor {name} must be {self.n}x{self.n}, got {m.rows}x{m.cols}")
            _require_triangular(m, lower=name == "l", unit_diagonal=name == "l", name=f"factor {name}")
        if len({getattr(self, name).field for name in names}) > 1:  # a factor file has one field
            raise ValueError(f"{self.kind} factors must be all real or all complex")
        # The solves divide by the last factor's diagonal: u_ii, the pivots, or
        # g_ii, their roots. A recorded threshold judges the pivots themselves,
        # which the diagonal must then match exactly; without one the factor
        # meets the rule it was saved under, n * eps * max|factor|.
        name = names[-1]
        divisor = getattr(self, name)
        diagonal = np.diagonal(divisor.data)
        threshold = self.provenance.pivot_threshold
        if threshold is None:
            ok = np.min(np.abs(diagonal)) > _pivot_threshold(self.n, divisor.max_abs())
        else:
            pivots = self.provenance.pivots
            ok = min(map(abs, pivots)) > threshold
            if ok and not np.array_equal(diagonal, pivots if name == "u" else _pivot_roots(pivots)):
                raise ValueError(f"factor {name} has a diagonal that is not the recorded pivots' own")
        if not ok:
            raise ValueError(f"factor {name} has a negligible diagonal entry")

    @functools.cached_property
    def _inverses(self) -> tuple:
        """(forward, back) diagonal-block inverses for ``solve``, made on first use, never saved."""
        if self.kind == KIND_LU:
            return _block_inverses(self.l.data, True, unit_diagonal=True), _block_inverses(self.u.data, False)
        back = _block_inverses(self.g.data, False)  # G^T's blocks are G's transposed
        return back and tuple(v if v is None else v.T for v in back), back

    def rebuild(self) -> DenseMatrix:
        """Multiply the factors back together; G^T G is exactly symmetric."""
        if self.kind == KIND_LU:
            return DenseMatrix(self.l.data @ self.u.data)
        return DenseMatrix(self.g.data.T @ self.g.data)


def _pivot_roots(pivots: tuple) -> np.ndarray:
    """G's diagonal: the principal square root of each pivot, as ``principal_sqrt`` gives it."""
    p = np.array(pivots)
    if p.dtype.kind == "c":
        return np.array([principal_sqrt(z) for z in pivots])
    negative = p < 0
    roots = np.sqrt(np.where(negative, -p, p))  # -0.0 keeps its sign, as in math.sqrt
    return np.where(negative, 1j * roots, roots) if negative.any() else roots


def _provenance(record: EliminationRecord, flops: int, symmetry_tol: float | None = None) -> Provenance:
    return Provenance(
        record.source_hash, record.pivots, flops, symmetry_tol, pivot_threshold=record.pivot_threshold
    )


def lu_from_record(record: EliminationRecord) -> Factorization:
    """Package an elimination record as A = L U, cutting both from the packed ``record.lu``."""
    n, lu = record.n, record.lu.data
    return Factorization(
        kind=KIND_LU,
        n=n,
        l=DenseMatrix(np.eye(n, dtype=lu.dtype) + np.tril(lu, -1)),
        u=DenseMatrix(np.triu(lu)),
        provenance=_provenance(record, record.flops),
    )


def gauss_cholesky_from_record(
    record: EliminationRecord, symmetry_tol: float = DEFAULT_SYMMETRY_TOL
) -> Factorization:
    """Scale an elimination record of a symmetric matrix into A = G^T G.

    Row i of U is divided by the principal square root of the pivot u_ii;
    the diagonal itself is set to that root (the algebraically identical
    form of u_ii divided by it). The caller is responsible for having
    checked symmetry of the source.
    """
    n = record.n
    roots = _pivot_roots(record.pivots)
    g = np.triu(record.lu.data) / roots[:, None]
    idx = np.arange(n)
    g[idx, idx] = roots
    return Factorization(
        kind=KIND_GAUSS_CHOLESKY,
        n=n,
        g=DenseMatrix(g),
        provenance=_provenance(record, record.flops + scaling_flops(n), symmetry_tol),
    )


def from_record(record: EliminationRecord, kind: str, symmetry_tol: float = DEFAULT_SYMMETRY_TOL) -> Factorization:
    """Package an elimination record as a factorization of ``kind``, lu or gauss-cholesky."""
    if kind == KIND_LU:
        return lu_from_record(record)
    if kind == KIND_GAUSS_CHOLESKY:
        return gauss_cholesky_from_record(record, symmetry_tol)
    raise ValueError(f"unknown factorization kind {kind!r}")


def require_symmetric(a: DenseMatrix, tol: float = DEFAULT_SYMMETRY_TOL) -> None:
    """Raise ``NotSymmetricError`` unless ``a.is_symmetric(tol)``."""
    if not a.is_symmetric(tol):
        raise NotSymmetricError(*a.symmetry_deviation(), tol * a.max_abs())


def gauss_cholesky(a: DenseMatrix, symmetry_tol: float = DEFAULT_SYMMETRY_TOL) -> Factorization:
    """Factor a symmetric matrix as A = G^T G via no-pivot elimination.

    Raises ``NotSymmetricError`` when the input is not symmetric (Hermitian
    complex input does not qualify) and propagates ``ZeroPivotError`` when
    elimination stalls; a nonzero determinant alone does not guarantee
    success, every leading pivot must be nonzero.
    """
    require_symmetric(a, symmetry_tol)
    return gauss_cholesky_from_record(gauss_eliminate(a, symmetric=True), symmetry_tol)


def solve(f: Factorization, b: DenseMatrix) -> SolveReport:
    """Solve A x = b through the factors, one forward and one back substitution.

    ``b`` may carry any number of columns; each is solved independently.
    Residuals are measured against the reconstructed matrix, since the
    factorization does not retain its source.
    """
    if b.rows != f.n:
        raise ShapeError(f"right-hand side has {b.rows} rows, factorization is for n = {f.n}")
    lu = f.kind == KIND_LU
    forward, back = f._inverses
    y, fl_forward = _solve_lower(f.l.data if lu else f.g.data.T, b.data, unit_diagonal=lu, inverses=forward)
    x, fl_back = _solve_upper(f.u.data if lu else f.g.data, y, inverses=back)
    solutions = DenseMatrix(x)
    rebuilt = f.rebuild()
    residuals = tuple(
        residual_norm(rebuilt, solutions.column(j), b.column(j)) for j in range(b.cols)
    )
    return SolveReport(
        solutions=solutions,
        residuals=residuals,
        flops=fl_forward + fl_back,
        method=f.kind,
    )


def _require_order(f: Factorization, a: DenseMatrix) -> None:
    if a.shape != (f.n, f.n):
        raise ShapeError(f"matrix is {a.rows}x{a.cols}, factorization is for n = {f.n}")


def verify(f: Factorization, a: DenseMatrix) -> float:
    """Relative Frobenius error of the reconstruction against ``a``.

    Both norms are taken of entries divided by a power of two within a
    factor 2 of max|A| (an exact division), so they neither overflow nor
    underflow however large or small A's entries are.
    """
    _require_order(f, a)
    scale = math.ldexp(1.0, min(math.frexp(a.max_abs())[1], 1023))
    diff = float(np.linalg.norm((f.rebuild().data - a.data) / scale))
    denom = float(np.linalg.norm(a.data / scale))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / denom
