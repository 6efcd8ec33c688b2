"""Factor-once / solve-many sessions.

A session holds one matrix and answers any number of right-hand sides
against it. The first solve performs the elimination with that side riding
along and answers it straight off the triangular system; the session keeps
the elimination record. The first reuse, or the first read of
``factorization``, packages that record into the cached factorization and
drops it (an LU factorization keeps its packed array, G is cut from it);
every later solve costs two triangular substitutions and one residual,
against A: the residuals of the report ``solve`` returns, measured against
the factors' product only when read, are never read here.
The flop ledger separates the one-time cost from the per-reuse cost so the
economics are checkable without wall-clock noise.

A session keeps only what it cannot derive, down to a count of the reuse
solves that returned an answer; residuals go back with each answer, so it
does not grow with their number. Sessions are safe under concurrent use: a
per-session lock lets exactly one caller eliminate and counts the reuses,
whose substitutions run outside it.
An elimination that hits a zero pivot is not retried: later solves re-raise
its error.
"""

from __future__ import annotations

import copy
import threading
import warnings
from dataclasses import dataclass, field

from .elimination import EliminationRecord, _solve_upper, elimination_flops, gauss_eliminate, substitution_flops
from .errors import NonSquareError, NoSolvesError, ShapeError, ZeroPivotError
from .factorizations import (
    KIND_GAUSS_CHOLESKY,
    KIND_LU,
    Factorization,
    SolveReport,
    _packaging_flops,
    from_record,
    require_symmetric,
    solve,
)
from .matrices import DEFAULT_SYMMETRY_TOL, DenseMatrix, residual_norm

__all__ = [
    "BenchResult",
    "CostReport",
    "SolveSession",
    "cost_report",
    "open_session",
    "run_bench",
    "session_solve",
]

METHOD_AUTO = "auto"

# Default bound on a session's scaled residual ||A x - b||_inf / max(1, ||b||_inf);
# a solve above it warns.
DEFAULT_RESIDUAL_TOL = 1e-10


@dataclass
class SolveSession:
    """One matrix, one cached factorization, many right-hand sides."""

    matrix: DenseMatrix
    method: str  # resolved: "lu" or "gauss-cholesky"
    symmetry_tol: float
    residual_tol: float
    reuse_count: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False, compare=False)
    # The first solve's elimination record until it is packaged, then the
    # factorization: cached, so equality ignores it and replace() drops it.
    _solved: EliminationRecord | Factorization | None = field(default=None, init=False, repr=False, compare=False)
    # The elimination's ZeroPivotError, which later solves re-raise.
    _failure: ZeroPivotError | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def factorization(self) -> Factorization | None:
        """The cached factorization, packaged on first read; ``None`` before a first solve."""
        with self._lock:
            return self._packaged()

    def _packaged(self) -> Factorization | None:
        # Under the lock: package the record once and drop it.
        if isinstance(self._solved, EliminationRecord):
            self._solved = from_record(self._solved, self.method, self.symmetry_tol)
        return self._solved


@dataclass(frozen=True)
class CostReport:
    first_flops: int
    reuse_flops_per_rhs: int
    reuse_count: int
    total_flops: int


@dataclass(frozen=True)
class BenchResult:
    n: int
    rhs_count: int
    method: str
    factor_flops: int
    reuse_flops_per_rhs: int
    reuse_total: int
    elimination_flops_per_rhs: int
    elimination_total: int
    flop_ratio: float


def resolve_method(a: DenseMatrix, method: str = METHOD_AUTO, symmetry_tol: float = DEFAULT_SYMMETRY_TOL) -> str:
    """The kind, lu or gauss-cholesky, that ``method`` asks for on square ``a``.

    ``auto`` resolves to gauss-cholesky when the matrix is symmetric within
    tolerance and to lu otherwise; gauss-cholesky on a non-symmetric matrix
    raises ``NotSymmetricError``.
    """
    if not a.is_square:
        raise NonSquareError(a.rows, a.cols)
    if method == METHOD_AUTO:
        return KIND_GAUSS_CHOLESKY if a.is_symmetric(symmetry_tol) else KIND_LU
    if method == KIND_GAUSS_CHOLESKY:
        require_symmetric(a, symmetry_tol)
    elif method != KIND_LU:
        raise ValueError(f"unknown method {method!r}; expected lu, gauss-cholesky, or auto")
    return method


def open_session(
    a: DenseMatrix,
    method: str = METHOD_AUTO,
    *,
    symmetry_tol: float = DEFAULT_SYMMETRY_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> SolveSession:
    """Create a session for ``a``, resolving its method now; no factorization happens yet."""
    return SolveSession(
        matrix=a,
        method=resolve_method(a, method, symmetry_tol),
        symmetry_tol=symmetry_tol,
        residual_tol=residual_tol,
    )


def session_solve(s: SolveSession, b: DenseMatrix) -> SolveReport:
    """Solve against the session matrix, factoring on the first call only."""
    if b.cols != 1:
        raise ShapeError("session_solve takes one right-hand side column at a time")
    if b.rows != s.matrix.rows:
        raise ShapeError(f"right-hand side has {b.rows} rows, matrix has {s.matrix.rows}")

    with s._lock:
        if s._failure is not None:
            raise copy.copy(s._failure)
        f = s._packaged()
        if f is None:
            try:
                record = s._solved = gauss_eliminate(s.matrix, b, symmetric=s.method == KIND_GAUSS_CHOLESKY)
            except ZeroPivotError as exc:
                # A copy: the raised one's traceback would keep the elimination's frames alive.
                s._failure = copy.copy(exc)
                raise
    if f is None:
        # The first system is answered directly from the triangular system
        # U x = b' that the elimination left in the upper triangle of record.lu.
        x_arr, _ = _solve_upper(record.lu.data, record.transformed_rhs.data)
        solutions = DenseMatrix(x_arr)
        flops = _first_solve_flops(s.method, record.n)
    else:
        report = solve(f, b)
        solutions = report.solutions
        flops = report.flops
        with s._lock:  # counted once answered: a reuse that raises is not one
            s.reuse_count += 1

    residual = residual_norm(s.matrix, solutions, b)
    if residual > s.residual_tol:
        warnings.warn(
            f"solve residual {residual:.3e} exceeds session tolerance {s.residual_tol:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return SolveReport(solutions=solutions, residuals=(residual,), flops=flops, method=s.method)


def _first_solve_flops(method: str, n: int) -> int:
    # The first solve eliminates with its one side, then substitutes back.
    return _packaging_flops(method, n, elimination_flops(n, 1)) + substitution_flops(n, 1)


def _reuse_flops(method: str, n: int) -> int:
    # Forward then back substitution; LU's forward factor has a unit diagonal.
    return substitution_flops(n, 1, unit_diagonal=method == KIND_LU) + substitution_flops(n, 1)


def cost_report(s: SolveSession) -> CostReport:
    """First-solve cost versus per-reuse cost for this session, from the closed forms."""
    if s._solved is None:
        raise NoSolvesError()
    first, reuse = _first_solve_flops(s.method, s.matrix.rows), _reuse_flops(s.method, s.matrix.rows)
    return CostReport(
        first_flops=first,
        reuse_flops_per_rhs=reuse,
        reuse_count=s.reuse_count,
        total_flops=first + s.reuse_count * reuse,
    )


def run_bench(n: int, rhs_count: int) -> BenchResult:
    """Compare factor-once reuse against repeated eliminations, from the flop ledger.

    One gauss-cholesky factorization followed by ``rhs_count`` reuses, each
    two substitutions, against ``rhs_count`` LU first solves, each a fresh
    elimination with its side riding along. Every count is a closed form of
    n, so nothing is factored or solved.
    """
    if n < 1:
        raise ValueError("bench needs n >= 1")
    if rhs_count < 1:
        raise ValueError("bench needs at least one right-hand side")
    factor = _packaging_flops(KIND_GAUSS_CHOLESKY, n, elimination_flops(n, 0))
    reuse_per_rhs = _reuse_flops(KIND_GAUSS_CHOLESKY, n)
    reuse_total = factor + rhs_count * reuse_per_rhs
    elim_per_rhs = _first_solve_flops(KIND_LU, n)
    elim_total = rhs_count * elim_per_rhs

    return BenchResult(
        n=n,
        rhs_count=rhs_count,
        method=KIND_GAUSS_CHOLESKY,
        factor_flops=factor,
        reuse_flops_per_rhs=reuse_per_rhs,
        reuse_total=reuse_total,
        elimination_flops_per_rhs=elim_per_rhs,
        elimination_total=elim_total,
        flop_ratio=reuse_total / elim_total,
    )
