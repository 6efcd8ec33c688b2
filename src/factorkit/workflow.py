"""Factor-once / solve-many sessions.

A session holds one matrix and answers any number of right-hand sides
against it. The first solve performs the elimination with that side riding
along, answers it straight off the triangular system, and caches the
factorization; every later solve costs only two triangular substitutions.
The flop ledger separates the one-time cost from the per-reuse cost so the
economics are checkable without wall-clock noise.

Thread contract: the first solve mutates the session cache and must be
exclusive; once it has returned, concurrent solves on the same session are
safe. Callers serialize until the first solve completes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .elimination import _solve_upper, elimination_flops, gauss_eliminate, substitution_flops
from .errors import NonSquareError, NoSolvesError, ShapeError
from .factorizations import (
    DEFAULT_RECONSTRUCTION_TOL,
    KIND_GAUSS_CHOLESKY,
    KIND_LU,
    Factorization,
    SolveReport,
    gauss_cholesky,
    gauss_cholesky_from_record,
    lu_from_record,
    require_symmetric,
    solve,
)
from .matrices import DEFAULT_SYMMETRY_TOL, DenseMatrix, Vector, matrix_hash, residual_norm, vector

__all__ = [
    "BenchResult",
    "CostReport",
    "METHOD_AUTO",
    "SolveSession",
    "cost_report",
    "open_session",
    "resolve_method",
    "run_bench",
    "session_solve",
]

METHOD_AUTO = "auto"


@dataclass
class SolveSession:
    """One matrix, one cached factorization, many right-hand sides."""

    matrix: DenseMatrix
    matrix_hash: str
    method: str  # resolved: "lu" or "gauss-cholesky"
    requested_method: str
    symmetry_tol: float
    residual_tol: float
    factorization: Factorization | None = None
    first_flops: int | None = None
    reuse_flops: list[int] = field(default_factory=list)
    solve_log: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CostReport:
    first_flops: int
    reuse_flops_per_rhs: int
    k_break_even: int  # 0 means reuse is never strictly cheaper (only n = 1)
    reuse_count: int
    total_flops: int


@dataclass(frozen=True)
class BenchResult:
    n: int
    rhs_count: int
    seed: int
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
    residual_tol: float = DEFAULT_RECONSTRUCTION_TOL,
) -> SolveSession:
    """Create a session for ``a``, resolving its method now; no factorization happens yet."""
    return SolveSession(
        matrix=a,
        method=resolve_method(a, method, symmetry_tol),
        matrix_hash=matrix_hash(a),
        requested_method=method,
        symmetry_tol=symmetry_tol,
        residual_tol=residual_tol,
    )


def session_solve(s: SolveSession, b: Vector) -> SolveReport:
    """Solve against the session matrix, factoring on the first call only."""
    if b.cols != 1:
        raise ShapeError("session_solve takes one right-hand side column at a time")
    if b.rows != s.matrix.rows:
        raise ShapeError(f"right-hand side has {b.rows} rows, matrix has {s.matrix.rows}")

    if s.factorization is None:
        record = gauss_eliminate(s.matrix, b)
        if s.method == KIND_GAUSS_CHOLESKY:
            s.factorization = gauss_cholesky_from_record(record, s.symmetry_tol)
        else:
            s.factorization = lu_from_record(record)
        # The first system is answered directly from the triangular system
        # U x = b' produced by the elimination itself.
        x_arr, back_flops = _solve_upper(record.u.data, record.transformed_rhs.data)
        solutions = DenseMatrix(x_arr)
        flops = s.factorization.provenance.flops + back_flops
        s.first_flops = flops
    else:
        report = solve(s.factorization, b)
        solutions = report.solutions
        flops = report.flops
        s.reuse_flops.append(flops)

    residual = residual_norm(s.matrix, solutions, b)
    if residual > s.residual_tol:
        warnings.warn(
            f"solve residual {residual:.3e} exceeds session tolerance {s.residual_tol:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    s.solve_log[matrix_hash(b)] = residual
    return SolveReport(solutions=solutions, residuals=(residual,), flops=flops, method=s.method)


def _reuse_flops(n: int, method: str) -> int:
    # Forward then back substitution; LU's forward factor has a unit diagonal.
    return substitution_flops(n, 1, unit_diagonal=method == KIND_LU) + substitution_flops(n, 1)


def cost_report(s: SolveSession) -> CostReport:
    """Measured first-solve cost versus per-reuse cost for this session."""
    if s.first_flops is None:
        raise NoSolvesError()
    n = s.matrix.rows
    reuse = s.reuse_flops[0] if s.reuse_flops else _reuse_flops(n, s.method)
    # Cost of answering one right-hand side from scratch: eliminate with the
    # side riding along, then back substitution.
    fresh = elimination_flops(n, 1) + substitution_flops(n, 1)
    return CostReport(
        first_flops=s.first_flops,
        reuse_flops_per_rhs=reuse,
        k_break_even=1 if reuse < fresh else 0,
        reuse_count=len(s.reuse_flops),
        total_flops=s.first_flops + sum(s.reuse_flops),
    )


def run_bench(n: int, rhs_count: int, seed: int) -> BenchResult:
    """Compare factor-once reuse against repeated eliminations on one instance.

    The instance is a random symmetric positive definite matrix M^T M + n I;
    the comparison is flop-ledger based and fully deterministic for a given
    seed.
    """
    if n < 1:
        raise ValueError("bench needs n >= 1")
    if rhs_count < 1:
        raise ValueError("bench needs at least one right-hand side")
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = DenseMatrix(m.T @ m + n * np.eye(n))
    sides = [vector(rng.standard_normal(n)) for _ in range(rhs_count)]

    f = gauss_cholesky(a)
    reuse_per_rhs = 0
    reuse_total = f.provenance.flops
    for b in sides:
        report = solve(f, b)
        reuse_per_rhs = report.flops
        reuse_total += report.flops

    elim_per_rhs = 0
    elim_total = 0
    for b in sides:
        record = gauss_eliminate(a, b)
        _, back_flops = _solve_upper(record.u.data, record.transformed_rhs.data)
        elim_per_rhs = record.flops + back_flops
        elim_total += elim_per_rhs

    return BenchResult(
        n=n,
        rhs_count=rhs_count,
        seed=seed,
        method=f.kind,
        factor_flops=f.provenance.flops,
        reuse_flops_per_rhs=reuse_per_rhs,
        reuse_total=reuse_total,
        elimination_flops_per_rhs=elim_per_rhs,
        elimination_total=elim_total,
        flop_ratio=reuse_total / elim_total,
    )
