"""Gauss elimination without pivoting, plus one triangular substitution kernel.

The eliminator reduces A to an upper-triangular matrix U, storing the
multiplier m_il = a_il / a_ll used to clear each sub-diagonal entry. Row
exchanges are never performed: a pivot at or below the singularity
threshold n * eps * max|A|, or one that is not finite because the
elimination overflowed, raises ``ZeroPivotError`` instead of being worked
around, because every consumer of the multiplier table depends on the
elimination order being exactly 1..n. This is the one place a pivot is
judged: the threshold rides on the record into the factors, and the
substitution kernel, one for forward and back substitution alike, tests no
pivot. A right-hand side that overflows, in the elimination or in a
substitution, raises ``OverflowError``: the fault is the side's, not the
matrix's.

The elimination is blocked (right-looking). Each panel of ``_PANEL_WIDTH``
columns is reduced column by column, with the pivot test at every column,
updating only the panel, its block row and the matching rows of the sides;
the rest of the trailing matrix and sides then take the whole panel's
update as one matrix product. Multipliers are kept in place below the
diagonal, so the record carries the working array itself, packed as
LAPACK's ``getrf`` returns it. For n <= ``_PANEL_WIDTH`` there is one
panel, so every entry is computed by exactly the operations, in exactly the
order, of a plain column-by-column elimination.

For a symmetric matrix the paper's theorem gives every multiplier from U:
m_il = u_li / u_ll. Asked to, the eliminator uses it above one panel, as
LAPACK's ``xPOTRF`` and ``xSYTRF`` do: it reads only A's upper triangle,
takes each panel's multipliers from its pivot rows, and updates only the
block upper triangle of the trailing matrix, about half the work. The
pivot test and the sides are as in the general loop, and the record is
packed the same way.

The substitution kernel solves one row at a time. Given the inverses of a
triangle's diagonal blocks of ``_SUBSTITUTION_BLOCK`` rows, which a
factorization computes once for all its solves, it goes a block at a time
instead: one matrix product for the rows already solved, one for the
block's inverse. A block too ill conditioned to be applied by its inverse,
and every triangle of at most one block, keep the row loop, so small
systems are solved with exactly the row loop's operations.

Arithmetic is costed at one flop per scalar add/sub/mul/div. The counts are
closed forms of (n, number of sides), defined once below, not tallied while
the arithmetic runs, so blocking does not change the ledger.
"""

from __future__ import annotations

import functools
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

    ``lu`` is the packed elimination: U on and above the diagonal, the
    multipliers m_il strictly below it; the identity plus that lower part
    is the unit lower-triangular L with L @ U == source matrix. A symmetric
    elimination of more than one panel takes them from U, m_il = u_li / u_ll,
    so then L @ U is the matrix that A's upper triangle mirrors.
    ``transformed_rhs`` holds the right-hand sides after the same row
    operations, when any were supplied. ``pivot_threshold`` is the bound
    every pivot exceeded in magnitude.
    """

    lu: DenseMatrix
    pivots: tuple
    transformed_rhs: DenseMatrix | None
    flops: int
    source_hash: str
    pivot_threshold: float

    @property
    def n(self) -> int:
        return self.lu.rows


# Columns per panel, the fastest in a sweep of 8 to 48 at n = 128, 200 and
# 600 (one BLAS thread): narrower panels make more and thinner matrix
# products, wider ones leave more of the work in the per-column updates.
_PANEL_WIDTH = 16

# Columns per block of the one-triangle trailing update. Each block updates
# the rows down to its last column, so narrower blocks spend less on the
# lower half but make more matrix products; 32 to 128 timed alike at n = 200
# and 600 (one BLAS thread), and 32 spends least.
_TRAILING_BLOCK = 32


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


# Overflow fails as a non-finite pivot or an OverflowError; numpy's warnings would repeat it.
_overflow_is_checked = np.errstate(over="ignore", invalid="ignore")


def _require_finite(x: np.ndarray, what: str) -> None:
    if not np.isfinite(x).all():
        raise OverflowError(f"{what} overflowed")


@_overflow_is_checked
def gauss_eliminate(a: DenseMatrix, b: DenseMatrix | None = None, *, symmetric: bool = False) -> EliminationRecord:
    """Eliminate ``a`` (and optionally right-hand sides ``b``) without pivoting.

    With ``symmetric``, the caller vouches that ``a`` is symmetric (no
    conjugation), and above ``_PANEL_WIDTH`` unknowns only its upper
    triangle is read: each multiplier is m_il = u_li / u_ll, as the
    theorem gives, and the trailing updates touch only the block upper
    triangle.

    Raises ``NonSquareError`` for a non-square matrix, ``ZeroPivotError``
    naming the failing column when a pivot is negligible or not finite, and
    ``OverflowError`` when the transformed sides are not finite. Inputs are
    not modified.
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
    one_triangle = symmetric and n > _PANEL_WIDTH

    for k0 in range(0, n, _PANEL_WIDTH):
        k1 = min(k0 + _PANEL_WIDTH, n)
        for col in range(k0, k1):
            pivot = work[col, col]
            if not threshold < abs(pivot) < np.inf:
                raise ZeroPivotError("column", col + 1, pivot.item(), threshold)
            # Standard update a_ij - m_il * a_lj. The products are written
            # as m[:, None] * v[None, :], which is what np.outer computes
            # without its wrapper; m[:, None] * v with a 1-D v can round
            # complex products differently.
            if one_triangle:
                # The panel's own multipliers come from the pivot row, and one
                # rank-1 update covers their rows across the full width; the
                # multipliers below the panel wait for the panel's end.
                m = work[col + 1 : k1, col]
                np.divide(work[col, col + 1 : k1], pivot, out=m)
                m_panel = m[:, None]
                work[col + 1 : k1, col + 1 :] -= m_panel * work[col, col + 1 :][None, :]
            else:
                m = work[col + 1 :, col]
                m /= pivot
                work[col + 1 :, col + 1 : k1] -= m[:, None] * work[col, col + 1 : k1][None, :]
                m_panel = m[: k1 - col - 1, None]
                work[col + 1 : k1, k1:] -= m_panel * work[col, k1:][None, :]
            if rhs is not None:
                rhs[col + 1 : k1] -= m_panel * rhs[col][None, :]
        if k1 < n:
            # The panel's rank-(k1 - k0) update of everything below and right
            # of it: L21 @ U12, and L21 applied to the sides.
            u12 = work[k0:k1, k1:]
            l21 = work[k1:, k0:k1]
            if one_triangle:
                # The theorem: L21 = (D^-1 U12)^T. The trailing matrix stays
                # symmetric, so only its block upper triangle is updated, one
                # column block at a time; what lands below it is never read.
                l21[...] = (u12 / np.diagonal(work)[k0:k1, None]).T
                for j0 in range(k1, n, _TRAILING_BLOCK):
                    j1 = min(j0 + _TRAILING_BLOCK, n)
                    work[k1:j1, j0:j1] -= l21[: j1 - k1] @ work[k0:k1, j0:j1]
            else:
                work[k1:, k1:] -= l21 @ u12
            if rhs is not None:
                rhs[k1:] -= l21 @ rhs[k0:k1]

    if rhs is not None:
        _require_finite(rhs, "the elimination of the right-hand side")
    return EliminationRecord(
        lu=DenseMatrix(work),
        pivots=tuple(np.diagonal(work).tolist()),
        transformed_rhs=DenseMatrix(rhs) if rhs is not None else None,
        flops=elimination_flops(n, rhs.shape[1] if rhs is not None else 0),
        source_hash=matrix_hash(a),
        pivot_threshold=threshold,
    )


# Rows per diagonal block of the blocked substitution, from a sweep of 32 to
# 128 at n = 200 and 600 (one BLAS thread): 128 substituted up to a third
# faster, but its inverses cost up to three times as much to make. A
# triangle of at most this order is substituted by the row loop alone.
_SUBSTITUTION_BLOCK = 64

# Largest condition number ||T|| ||T^-1||, in the 1-norm and the inf-norm,
# of a diagonal block applied through its explicit inverse. Such a product is
# backward stable only up to that number (Du Croz & Higham, IMA J. Numer.
# Anal. 12, 1992), and without pivoting the multipliers are unbounded, so a
# worse block keeps the row loop for its own rows.
_BLOCK_CONDITION_BOUND = 1e3


def _rows(t: np.ndarray, c: np.ndarray, lower: bool, unit_diagonal: bool) -> np.ndarray:
    # Row i takes its known unknowns as one dot product, then its divisor.
    n, k = t.shape[0], c.shape[1]
    x = np.zeros((n, k), dtype=np.result_type(t, c))
    for i in range(n) if lower else range(n - 1, -1, -1):
        lo, hi = (0, i) if lower else (i + 1, n)  # the rows of x already solved
        r = c[i, :] - t[i, lo:hi] @ x[lo:hi, :]
        x[i, :] = r if unit_diagonal else r / t[i, i]
    return x


@_overflow_is_checked
def _block_inverses(t: np.ndarray, lower: bool, unit_diagonal: bool = False) -> tuple | None:
    """Inverses of the diagonal blocks of triangle ``t``, for the blocked substitution.

    Each block is inverted by the row loop against the identity, so the
    inverse is exactly triangular and nothing is pivoted. A block whose
    inverse is not finite, or whose condition number exceeds the bound in
    either norm, gets ``None`` and keeps the row loop. ``t`` must be exactly
    triangular, with a stored unit diagonal where ``unit_diagonal``, as a
    ``Factorization``'s factors are, so the norms are those of the triangle
    the kernel reads. The transposes of the inverses serve ``t``'s
    transpose. ``None`` when t fits in one block.
    """
    n, nb = t.shape[0], _SUBSTITUTION_BLOCK
    if n <= nb:
        return None
    inverses = []
    for k0 in range(0, n, nb):
        block = t[k0 : k0 + nb, k0 : k0 + nb]
        inv = _rows(block, np.eye(block.shape[0], dtype=block.dtype), lower, unit_diagonal)
        a, a_inv = np.abs(block), np.abs(inv)
        condition = max(a.sum(0).max() * a_inv.sum(0).max(), a.sum(1).max() * a_inv.sum(1).max())
        inverses.append(inv if np.isfinite(inv).all() and condition <= _BLOCK_CONDITION_BOUND else None)
    return tuple(inverses)


@_overflow_is_checked
def _substitute_rows(
    t: np.ndarray, c: np.ndarray, lower: bool, unit_diagonal: bool, inverses: tuple | None = None
) -> tuple[np.ndarray, int]:
    """Solve t @ x = c, reading only t's own triangle. Returns (solution, flops).

    Lower walks first-down (forward substitution), upper last-up (back
    substitution). A unit diagonal is neither read nor divided by. Without
    ``inverses`` the rows are solved one at a time. With them, from
    ``_block_inverses(t, ...)``, the rows go in blocks: each block takes the
    update by the rows already solved as one matrix product, then its
    diagonal block's inverse, or the row loop where that inverse is ``None``.
    The flops are the row loop's, whichever way the rows go.
    """
    n, k = t.shape[0], c.shape[1]
    nb = _SUBSTITUTION_BLOCK if inverses else n
    x = np.zeros((n, k), dtype=np.result_type(t, c))
    for k0 in range(0, n, nb) if lower else range((n - 1) // nb * nb, -1, -nb):
        k1 = min(k0 + nb, n)
        lo, hi = (0, k0) if lower else (k1, n)  # the rows of x already solved
        r = c[k0:k1] - t[k0:k1, lo:hi] @ x[lo:hi] if hi > lo else c[k0:k1]
        inv = inverses[k0 // nb] if inverses else None
        x[k0:k1] = _rows(t[k0:k1, k0:k1], r, lower, unit_diagonal) if inv is None else inv @ r
    _require_finite(x, "the forward substitution" if lower else "the back substitution")
    return x, substitution_flops(n, k, unit_diagonal)


# The two directions keep their own names, which the callers use and
# perfbench's tracer wraps: _solve_upper(u, c), _solve_lower(l, c, unit_diagonal=...),
# each with an optional inverses=.
_solve_upper = functools.partial(_substitute_rows, lower=False, unit_diagonal=False)
_solve_lower = functools.partial(_substitute_rows, lower=True)


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
