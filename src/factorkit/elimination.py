"""Gauss elimination without pivoting, plus the triangular substitutions.

The eliminator reduces A to an upper-triangular matrix U, storing the
multiplier m_il = a_il / a_ll used to clear each sub-diagonal entry. Row
exchanges are never performed: a pivot at or below the singularity
threshold n * eps * max|A| raises ``ZeroPivotError`` instead of being worked
around, because every consumer of the multiplier table depends on the
elimination order being exactly 1..n. This is the one place a pivot is
judged: the threshold rides on the record into the factors, and the
substitution kernels test nothing.

The elimination is blocked (right-looking). Each panel of ``_PANEL_WIDTH``
columns is reduced column by column, with the pivot test at every column,
updating only the panel, its block row and the matching rows of the sides;
the rest of the trailing matrix and sides then take the whole panel's
update as one matrix product. Multipliers are kept in place below the
diagonal and split from U at the end. For n <= ``_PANEL_WIDTH`` there is one
panel, so every entry is computed by exactly the operations, in exactly the
order, of a plain column-by-column elimination.

Arithmetic is costed at one flop per scalar add/sub/mul/div. The counts are
closed forms of (n, number of sides), defined once below, not tallied while
the arithmetic runs, so blocking does not change the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonSquareError, ShapeError, ZeroPivotError
from .matrices import EPS, DenseMatrix, matrix_hash

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
    ``pivot_threshold`` is the bound every pivot exceeded in magnitude.
    """

    u: DenseMatrix
    multipliers: DenseMatrix
    pivots: tuple
    transformed_rhs: DenseMatrix | None
    flops: int
    source_hash: str
    pivot_threshold: float

    @property
    def n(self) -> int:
        return self.u.rows


# Columns per panel, the fastest in a sweep of 8 to 48 at n = 128, 200 and
# 600 (one BLAS thread): narrower panels make more and thinner matrix
# products, wider ones leave more of the work in the per-column updates.
_PANEL_WIDTH = 16


def _pivot_threshold(n: int, max_abs: float) -> float:
    # Scaled absolute test: an exact-zero comparison is useless in floating
    # point, so a pivot is "zero" when it is negligible against the largest
    # source entry.
    return n * EPS * max_abs


def elimination_flops(n: int, sides: int) -> int:
    """Flops to reduce an n x n matrix to U with ``sides`` columns riding along.

    One division per multiplier plus a multiply and a subtract per updated
    entry, summed over trailing blocks of size s = n-1 .. 1; each side
    column takes a multiply and a subtract per multiplier.
    """
    return n * (n - 1) // 2 + (n - 1) * n * (2 * n - 1) // 3 + sides * n * (n - 1)


def scaling_flops(n: int) -> int:
    """Flops to scale U into G: n square roots plus a division per strictly-upper entry."""
    return n + n * (n - 1) // 2


def substitution_flops(n: int, sides: int, unit_diagonal: bool = False) -> int:
    """Flops of one triangular substitution for ``sides`` columns.

    Row i costs a multiply and an add per known unknown plus, unless the
    diagonal is unit, one division.
    """
    return sides * n * (n - 1) if unit_diagonal else sides * n * n


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
    # Row-major copies: the matrix products round by memory layout, and the
    # results must depend on the entries only. Promote the sides once so
    # complex multipliers can be applied to real sides.
    work = np.array(a.data, order="C")
    rhs = np.array(b.data, dtype=np.result_type(a.data, b.data), order="C") if b is not None else None
    threshold = _pivot_threshold(n, a.max_abs())

    for k0 in range(0, n, _PANEL_WIDTH):
        k1 = min(k0 + _PANEL_WIDTH, n)
        for col in range(k0, k1):
            pivot = work[col, col]
            if abs(pivot) <= threshold:
                raise ZeroPivotError("column", col + 1, pivot.item(), threshold)
            # Standard update a_ij - m_il * a_lj. The products are written
            # as m[:, None] * v[None, :], which is what np.outer computes
            # without its wrapper; m[:, None] * v with a 1-D v can round
            # complex products differently.
            m = work[col + 1 :, col] / pivot
            work[col + 1 :, col] = m
            work[col + 1 :, col + 1 : k1] -= m[:, None] * work[col, col + 1 : k1][None, :]
            m_panel = m[: k1 - col - 1, None]
            work[col + 1 : k1, k1:] -= m_panel * work[col, k1:][None, :]
            if rhs is not None:
                rhs[col + 1 : k1] -= m_panel * rhs[col][None, :]
        if k1 < n:
            # The panel's rank-(k1 - k0) update of everything below and right
            # of it: L21 @ U12, and L21 applied to the sides.
            l21 = work[k1:, k0:k1]
            work[k1:, k1:] -= l21 @ work[k0:k1, k1:]
            if rhs is not None:
                rhs[k1:] -= l21 @ rhs[k0:k1]

    return EliminationRecord(
        u=DenseMatrix(np.triu(work)),
        multipliers=DenseMatrix(np.tril(work, -1)),
        pivots=tuple(np.diagonal(work).tolist()),
        transformed_rhs=DenseMatrix(rhs) if rhs is not None else None,
        flops=elimination_flops(n, rhs.shape[1] if rhs is not None else 0),
        source_hash=matrix_hash(a),
        pivot_threshold=threshold,
    )


def _solve_upper(u: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, int]:
    """Back substitution, last row upward. Returns (solution, flops)."""
    n, k = u.shape[0], c.shape[1]
    x = np.zeros((n, k), dtype=np.result_type(u, c))
    for i in range(n - 1, -1, -1):
        x[i, :] = (c[i, :] - u[i, i + 1 :] @ x[i + 1 :, :]) / u[i, i]
    return x, substitution_flops(n, k)


def _solve_lower(l: np.ndarray, c: np.ndarray, unit_diagonal: bool) -> tuple[np.ndarray, int]:
    """Forward substitution, first row downward. Returns (solution, flops).

    A unit diagonal is neither read nor divided by.
    """
    n, k = l.shape[0], c.shape[1]
    y = np.zeros((n, k), dtype=np.result_type(l, c))
    for i in range(n):
        y[i, :] = c[i, :] - l[i, :i] @ y[:i, :]
        if not unit_diagonal:
            y[i, :] /= l[i, i]
    return y, substitution_flops(n, k, unit_diagonal)


def _require_triangular(m: DenseMatrix, lower: bool, unit_diagonal: bool = False, name: str = "matrix") -> None:
    if not m.is_square:
        raise NonSquareError(m.rows, m.cols)
    off = np.triu(m.data, 1) if lower else np.tril(m.data, -1)
    if np.count_nonzero(off):
        side = "lower" if lower else "upper"
        raise ShapeError(f"expected an exactly {side}-triangular {name}")
    if unit_diagonal and not np.all(np.diagonal(m.data) == 1.0):
        raise ShapeError(f"expected {name} to have a unit diagonal")


def _substitute(t: DenseMatrix, c: DenseMatrix, lower: bool) -> DenseMatrix:
    # t is the caller's source matrix: judge its diagonal as pivots are judged.
    _require_triangular(t, lower)
    if c.rows != t.rows:
        raise ShapeError(f"right-hand side has {c.rows} rows, matrix has {t.rows}")
    threshold = _pivot_threshold(t.rows, t.max_abs())
    diag = np.diagonal(t.data)
    bad = np.flatnonzero(np.abs(diag) <= threshold)
    if bad.size:
        i = int(bad[0])
        raise ZeroPivotError("row", i + 1, diag[i].item(), threshold)
    x, _ = _solve_lower(t.data, c.data, unit_diagonal=False) if lower else _solve_upper(t.data, c.data)
    return DenseMatrix(x)


def back_substitute(u: DenseMatrix, c: DenseMatrix) -> DenseMatrix:
    """Solve ``u @ x = c`` for upper-triangular u (each column independently)."""
    return _substitute(u, c, lower=False)


def forward_substitute(l: DenseMatrix, c: DenseMatrix) -> DenseMatrix:
    """Solve ``l @ y = c`` for lower-triangular l (each column independently)."""
    return _substitute(l, c, lower=True)
