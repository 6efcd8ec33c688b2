"""Gauss elimination without pivoting, plus the triangular substitutions.

The eliminator reduces A to an upper-triangular matrix U column by column,
storing the multiplier m_il = a_il / a_ll used to clear each sub-diagonal
entry. Row exchanges are never performed: a pivot at or below the
singularity threshold raises ``ZeroPivotError`` instead of being worked
around, because every consumer of the multiplier table depends on the
elimination order being exactly 1..n.

Arithmetic is costed at one flop per scalar add/sub/mul/div; the counts
are accumulated alongside the computation and reported on the record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonSquareError, ShapeError, ZeroPivotError
from .matrices import EPS, DenseMatrix, Vector, matrix_hash

__all__ = [
    "EliminationRecord",
    "back_substitute",
    "forward_substitute",
    "gauss_eliminate",
]


@dataclass(frozen=True)
class EliminationRecord:
    """Everything produced by one elimination pass.

    ``u`` is upper triangular with exact zeros below the diagonal (set, not
    computed). ``multipliers`` is the strictly-lower-triangular table of
    m_il; adding the identity to it gives the unit lower-triangular L with
    L @ u == source matrix. ``transformed_rhs`` holds the right-hand sides
    after the same row operations, when any were supplied.
    """

    u: DenseMatrix
    multipliers: DenseMatrix
    pivots: tuple
    transformed_rhs: DenseMatrix | None
    flops: int
    source_hash: str

    @property
    def n(self) -> int:
        return self.u.rows


def _pivot_threshold(n: int, max_abs: float) -> float:
    # Scaled absolute test: an exact-zero comparison is useless in floating
    # point, so a pivot is "zero" when it is negligible against the largest
    # source entry.
    return n * EPS * max_abs


def gauss_eliminate(a: DenseMatrix, b: DenseMatrix | None = None) -> EliminationRecord:
    """Eliminate ``a`` (and optionally right-hand sides ``b``) without pivoting.

    Raises ``NonSquareError`` for a non-square matrix and ``ZeroPivotError``
    naming the failing column when a pivot is negligible. Inputs are not
    modified.
    """
    if not a.is_square:
        raise NonSquareError(a.rows, a.cols)
    if b is not None and b.rows != a.rows:
        raise ShapeError(f"right-hand side has {b.rows} rows, matrix has {a.rows}")

    n = a.rows
    work = np.array(a.data)
    # Promote once so complex multipliers can be applied to real sides.
    rhs = np.array(b.data, dtype=np.result_type(a.data, b.data)) if b is not None else None
    multipliers = np.zeros_like(work)
    threshold = _pivot_threshold(n, a.max_abs())
    pivots = []
    flops = 0

    for col in range(n):
        pivot = work[col, col]
        if abs(pivot) <= threshold:
            raise ZeroPivotError("column", col + 1, pivot.item(), threshold)
        pivots.append(pivot.item())
        below = n - col - 1
        if below == 0:
            continue
        m = work[col + 1 :, col] / pivot
        multipliers[col + 1 :, col] = m
        # Standard update a_ij - m_il * a_lj: one division per row, then one
        # multiply and one subtract per trailing entry.
        work[col + 1 :, col + 1 :] -= np.outer(m, work[col, col + 1 :])
        work[col + 1 :, col] = 0.0
        flops += below + 2 * below * below
        if rhs is not None:
            rhs[col + 1 :, :] -= np.outer(m, rhs[col, :])
            flops += 2 * below * rhs.shape[1]

    return EliminationRecord(
        u=DenseMatrix(work),
        multipliers=DenseMatrix(multipliers),
        pivots=tuple(pivots),
        transformed_rhs=DenseMatrix(rhs) if rhs is not None else None,
        flops=flops,
        source_hash=matrix_hash(a),
    )


def _check_diagonal(arr: np.ndarray, threshold: float) -> None:
    diag = np.abs(np.diagonal(arr))
    bad = np.nonzero(diag <= threshold)[0]
    if bad.size:
        i = int(bad[0])
        raise ZeroPivotError("row", i + 1, arr[i, i].item(), threshold)


def _solve_upper(u: np.ndarray, c: np.ndarray, max_abs: float) -> tuple[np.ndarray, int]:
    """Back substitution, last row upward. Returns (solution, flops).

    ``max_abs`` is max|u_ij|, which scales the diagonal's pivot threshold;
    callers pass the factor's cached value so no solve rescans u.
    """
    n, k = u.shape[0], c.shape[1]
    _check_diagonal(u, _pivot_threshold(n, max_abs))
    x = np.zeros((n, k), dtype=np.result_type(u, c))
    flops = 0
    for i in range(n - 1, -1, -1):
        x[i, :] = (c[i, :] - u[i, i + 1 :] @ x[i + 1 :, :]) / u[i, i]
        flops += k * (2 * (n - 1 - i) + 1)
    return x, flops


def _solve_lower(l: np.ndarray, c: np.ndarray, max_abs: float | None) -> tuple[np.ndarray, int]:
    """Forward substitution, first row downward. Returns (solution, flops).

    ``max_abs`` is max|l_ij| as for ``_solve_upper``; ``None`` marks a unit
    diagonal, which is neither checked nor divided by.
    """
    n, k = l.shape[0], c.shape[1]
    unit_diagonal = max_abs is None
    if not unit_diagonal:
        _check_diagonal(l, _pivot_threshold(n, max_abs))
    y = np.zeros((n, k), dtype=np.result_type(l, c))
    flops = 0
    for i in range(n):
        y[i, :] = c[i, :] - l[i, :i] @ y[:i, :]
        flops += k * 2 * i
        if not unit_diagonal:
            y[i, :] /= l[i, i]
            flops += k
    return y, flops


def _require_triangular(m: DenseMatrix, lower: bool) -> None:
    if not m.is_square:
        raise NonSquareError(m.rows, m.cols)
    off = np.triu(m.data, 1) if lower else np.tril(m.data, -1)
    if np.count_nonzero(off):
        side = "lower" if lower else "upper"
        raise ShapeError(f"expected an exactly {side}-triangular matrix")


def back_substitute(u: DenseMatrix, c: Vector) -> Vector:
    """Solve ``u @ x = c`` for upper-triangular u (each column independently)."""
    _require_triangular(u, lower=False)
    if c.rows != u.rows:
        raise ShapeError(f"right-hand side has {c.rows} rows, matrix has {u.rows}")
    x, _ = _solve_upper(u.data, c.data, u.max_abs())
    return DenseMatrix(x)


def forward_substitute(l: DenseMatrix, c: Vector) -> Vector:
    """Solve ``l @ y = c`` for lower-triangular l (each column independently)."""
    _require_triangular(l, lower=True)
    if c.rows != l.rows:
        raise ShapeError(f"right-hand side has {c.rows} rows, matrix has {l.rows}")
    y, _ = _solve_lower(l.data, c.data, l.max_abs())
    return DenseMatrix(y)
