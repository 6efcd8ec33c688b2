"""Packaged factorizations built from an elimination pass.

Two kinds are supported:

* ``lu``: A = L U with L the unit lower-triangular multiplier matrix and U
  the eliminated upper triangle.
* ``gauss-cholesky``: for symmetric A (complex symmetric allowed, no
  conjugation), A = G^T G where G is U with row i divided by the principal
  square root of the pivot u_ii. Real symmetric positive definite input
  stays entirely real on the same code path; a negative pivot simply makes
  G complex. No positive-definiteness proof is attempted or required.

Packaging an elimination record forms its kind's factors at once from the
record's packed array and builds the factorization through its
constructor, which validates them as it validates factors from anywhere
else. The one caller that can answer without the factors, a session's
first solve, defers packaging itself (see ``workflow``).

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
from dataclasses import astuple, dataclass

import numpy as np

from .elimination import EliminationRecord, _pivot_threshold, _require_triangular, gauss_eliminate, scaling_flops
from .elimination import _block_inverses, _overflow_is_checked, _solve_lower, _solve_upper
from .errors import NotSymmetricError, ShapeError
from .matrices import (
    DEFAULT_SYMMETRY_TOL,
    HASH_SCHEME,
    DenseMatrix,
    _require_finite_entries,
    _wrap,
    matrix_hash,
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

    ``matrix_hash`` may be given as the source ``DenseMatrix`` itself, as a
    factorization built from an elimination record gives it: the matrix is
    then referenced, not copied, until ``matrix_hash`` is first read, which
    hashes it. Equality, ``repr``, copies and pickles go by the hash value.
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

    def __post_init__(self):
        if isinstance(self.matrix_hash, DenseMatrix):  # hashed by __getattr__ on first read
            self.__dict__["_source"] = self.__dict__.pop("matrix_hash")

    def __getattr__(self, name):
        # Called when lookup misses: for matrix_hash, until a first read has
        # stored the hash and dropped the matrix, which another thread may
        # finish in between.
        d = self.__dict__
        source = d.get("_source")
        if name != "matrix_hash" or source is None and name not in d:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if source is not None:
            d.setdefault(name, matrix_hash(source))  # racing first reads store the same value
            d.pop("_source", None)
        return d[name]

    def __reduce__(self):  # copies and pickles carry the hash, not the matrix
        return Provenance, astuple(self)


@dataclass(frozen=True)
class SolveReport:
    """Solutions (one column per right-hand side) with quality and cost."""

    solutions: DenseMatrix
    residuals: tuple[float, ...]
    flops: int
    method: str


@dataclass(frozen=True)
class Factorization:
    """A tagged factorization: LU factors, or the single G of A = G^T G.

    The constructor validates the factors, wherever they come from: square
    and exactly triangular, a unit diagonal for L, one field, and a last
    factor whose diagonal is the recorded pivots' own (or, where no pivot
    threshold was recorded, clears n * eps * max|factor|).
    """

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


def _packaging_flops(kind: str, n: int, elimination: int) -> int:
    """The ledger of an elimination packaged as ``kind``: its flops, plus scaling U into G for gauss-cholesky."""
    return elimination + (scaling_flops(n) if kind == KIND_GAUSS_CHOLESKY else 0)


def _provenance(record: EliminationRecord, kind: str, symmetry_tol: float | None = None) -> Provenance:
    flops = _packaging_flops(kind, record.n, record.flops)
    return Provenance(record.source, record.pivots, flops, symmetry_tol, pivot_threshold=record.pivot_threshold)


@_overflow_is_checked
def _factors(lu: np.ndarray, pivots: tuple | None) -> tuple:
    """The factors a packed elimination holds: (L, U), or (G,) given the pivots.

    L = I + tril(lu, -1), added in place, an addition that turns a -0.0
    multiplier into +0.0, and U = triu(lu). G = triu(lu) / r[:, None] with
    r the pivots' principal roots, which G's diagonal then holds (the
    algebraically identical form of u_ii / r_i). Each factor is one fresh
    array, wrapped without a copy. L and U are finite because ``lu`` is. G
    is checked, though a record from ``gauss_eliminate`` cannot overflow it:
    g_ij^2 is u_ij * m_ji, a term of pivot j's update (row j's own update
    when i and j = i + 1 are a column pair, the pair's rank-2 product when
    j lies later in i's panel, column i's rank-1 update in a one-panel
    elimination, the panel-start product otherwise), and an overflow there
    fails as a non-finite pivot.
    """
    if pivots is None:
        l = np.tril(lu, -1)
        l += np.eye(lu.shape[0], dtype=lu.dtype)
        return _wrap(l), _wrap(np.triu(lu))
    roots = _pivot_roots(pivots)
    g = np.triu(lu) / roots[:, None]
    np.fill_diagonal(g, roots)
    _require_finite_entries(g)
    return (_wrap(g),)


def lu_from_record(record: EliminationRecord) -> Factorization:
    """Package an elimination record as A = L U, cut from the packed ``record.lu``."""
    l, u = _factors(record.lu.data, None)
    return Factorization(KIND_LU, record.n, _provenance(record, KIND_LU), l=l, u=u)


def gauss_cholesky_from_record(
    record: EliminationRecord, symmetry_tol: float = DEFAULT_SYMMETRY_TOL
) -> Factorization:
    """Package an elimination record of a symmetric matrix as A = G^T G.

    G is U, from the packed ``record.lu``, with row i divided by the
    principal square root of the pivot u_ii. The caller is responsible for
    having checked symmetry of the source.
    """
    (g,) = _factors(record.lu.data, record.pivots)
    provenance = _provenance(record, KIND_GAUSS_CHOLESKY, symmetry_tol)
    return Factorization(KIND_GAUSS_CHOLESKY, record.n, provenance, g=g)


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

    ``b`` may carry any number of columns; each is solved independently,
    but its last digits depend on how many there are: one column is
    substituted as a vector, several as a matrix, whose products round
    differently (up to about 1e-13 relative at n = 150). Residuals are
    measured against the reconstructed matrix, since a factorization need
    not hold its source: one read from a factor file carries only its hash.
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
