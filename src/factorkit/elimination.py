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

The elimination is blocked and left-looking, the sides riding as extra
columns of the one working array. A panel is ``_PANEL_WIDTH`` rows and
columns on the diagonal. Its rows first take every earlier panel's update
as one matrix product, then the sides take theirs as another, so the
factors never depend on the sides. The panel is then reduced a column pair
at a time, with the pivot test at every column in order: row c + 1 takes
column c's update across the full width, so each pivot row is final when
its pivot is tested, then the panel's other rows take both columns' updates
as one rank-2 matrix product, a lone row's A entry apart from its sides.
The width is even, so only n's own last column can go alone, with
no row left below it in its panel. Multipliers stay in place below the
diagonal, packed as LAPACK's ``getrf`` returns them. Only real sides of a
real matrix ride; any others take the same row operations afterwards, as a
forward substitution through the multipliers in the kernel below.

The two paths differ only in where a column's multipliers come from. In
general the rows below the panel take every earlier column left-looking,
one matrix product per column pair, as in the Crout LU of Golub & Van Loan
(§3.2); column c + 1 then takes column c's term, and each column is divided
by its pivot. For a symmetric matrix the paper's theorem gives them from
the final pivot row, m_il = u_li / u_ll. Asked to, the eliminator uses it
at every size, as LAPACK's blocked upper ``xPOTRF`` does: every product
then reads only rows of U and the multipliers formed from them, so A's
lower triangle is never read and the rows below a panel wait for their own,
about half the work. The record is packed the same way on both paths.

The substitution kernel goes a block of ``_SUBSTITUTION_BLOCK`` rows at a
time, at every size: a matrix product for the rows already solved, then the
block's inverse, which a factorization computes once for all its solves, or
LAPACK on the block's triangle, handed over as an upper triangle so that no
row is exchanged. A block too ill conditioned to apply by its inverse has none.

Arithmetic is costed at one flop per scalar add/sub/mul/div. The counts are
closed forms of (n, number of sides), defined once below, not tallied while
the arithmetic runs, so blocking does not change the ledger.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonSquareError, ShapeError, ZeroPivotError
from .matrices import _LARGEST_DOUBLE, EPS, DenseMatrix, _overflow_is_checked, _wrap

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
    elimination takes them from U, m_il = u_li / u_ll, so then L @ U is the
    matrix that A's upper triangle mirrors.
    ``transformed_rhs`` holds the right-hand sides after the same row
    operations, when any were supplied. Both are read-only and not copies:
    views of the elimination's one working array, or for sides that did not
    ride in it, the substitution kernel's own array.
    ``pivot_threshold`` is the bound every pivot exceeded in magnitude.
    ``source`` is the eliminated matrix itself, not a copy.
    """

    lu: DenseMatrix
    pivots: tuple
    transformed_rhs: DenseMatrix | None
    flops: int
    source: DenseMatrix
    pivot_threshold: float

    @property
    def n(self) -> int:
        return self.lu.rows


# Columns per panel, which sets the blocking only: every size is reduced in
# column pairs, so the width must be even. A sweep of 8 to 32 (one BLAS
# thread; n = 200 and 600; SPD, LU, complex symmetric, indefinite) found no
# width fastest at both sizes for every kind: 8 to 20 were within 6% at 200;
# at 600, 8 or 12 led 16 by up to 12% on symmetric input, LU's lead varied.
_PANEL_WIDTH = 16


def _pivot_threshold(n: int, max_abs: float) -> float:
    # Scaled absolute test: an exact-zero comparison is useless in floating
    # point, so a pivot is "zero" when it is negligible against the largest
    # source entry, whose modulus max_abs saturates at the largest double.
    return n * EPS * max_abs


def _usable_divisor(moduli, threshold: float):
    # The one rule for a divisor's modulus, elementwise: above the threshold and
    # finite (LAPACK's reciprocal of a larger one underflows to 0); NaN fails.
    return (threshold < moduli) & (moduli <= _LARGEST_DOUBLE)


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


# A divisor below the smallest normal double is divided with its dividend,
# both scaled by 2^64 first. The scaling is exact, and it keeps each quotient's
# real value: numpy's complex division by such a divisor gives NaN
# (0 / (1e-310 + 0j) = nan+nanj), and OpenBLAS's reciprocal of it overflows.
_SMALLEST_NORMAL = 2.0**-1022
_SUBNORMAL_SCALE = 2.0**64


def _require_finite(x: np.ndarray, what: str) -> None:
    if not np.isfinite(x).all():
        raise OverflowError(f"{what} overflowed")


@_overflow_is_checked
def gauss_eliminate(a: DenseMatrix, b: DenseMatrix | None = None, *, symmetric: bool = False) -> EliminationRecord:
    """Eliminate ``a`` (and optionally right-hand sides ``b``) without pivoting.

    With ``symmetric``, the caller vouches that ``a`` is symmetric (no
    conjugation), and only its upper triangle is read: each multiplier is
    m_il = u_li / u_ll, as the theorem gives, from a pivot row that the
    earlier steps have already made final.

    Sides of any layout ride beside A when both are real, else a forward
    substitution transforms them; the factors are the same bits without them.

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
    # One row-major working array [A | real sides]: the matrix products round by
    # memory layout, and the results must depend on the entries only.
    ride = b is not None and not (a.is_complex or b.is_complex)
    work = np.empty((n, n + (b.cols if ride else 0)), dtype=a.data.dtype)
    work[:, :n] = a.data
    lu, rhs = work[:, :n], work[:, n:]
    if ride:
        rhs[...] = b.data
    threshold = _pivot_threshold(n, a.max_abs())

    for k0 in range(0, n, _PANEL_WIDTH):
        k1 = min(k0 + _PANEL_WIDTH, n)
        if k0:
            # Left-looking: the panel's rows take every earlier panel's
            # update, then the sides their own, so the factors never see them.
            l = work[k0:k1, :k0]
            work[k0:k1, k0:n] -= l @ work[:k0, k0:n]
            work[k0:k1, n:] -= l @ work[:k0, n:]
        for c0 in range(k0, k1, 2):
            c1 = min(c0 + 2, k1)  # this step's columns are c0 .. c1 - 1
            # LU's rows below the panel take every earlier column now.
            below = work[k1:, :c0] @ work[:c0, c0:c1] if not symmetric and c0 and k1 < n else None
            for col in range(c0, c1):
                pivot = work[col, col]
                size = abs(pivot)
                if not _usable_divisor(size, threshold):
                    raise ZeroPivotError("column", col + 1, pivot.item(), threshold)
                # The multipliers divide the theorem's final pivot row
                # (m_il = u_li / u_ll) or LU's updated column by the pivot.
                m = work[col + 1 :, col]
                if symmetric:
                    dividend = work[col, col + 1 : n]
                else:
                    if below is not None:
                        m[k1 - col - 1 :] -= below[:, col - c0]
                    dividend = m
                if size < _SMALLEST_NORMAL:
                    dividend, pivot = dividend * _SUBNORMAL_SCALE, pivot * _SUBNORMAL_SCALE
                np.divide(dividend, pivot, m)
                if col + 1 < c1:
                    # Row c0 + 1 takes column c0's update, sides included, so its
                    # pivot row is final; LU's column c0 + 1 takes c0's term.
                    work[col + 1, col + 1 :] -= m[0] * work[col, col + 1 :]
                    if not symmetric:
                        work[col + 2 :, col + 1] -= m[1:] * work[col, col + 1]
            # One rank-2 product covers the panel's remaining rows, if any; a lone
            # row's A entry goes apart, so BLAS forms it as the same dot product.
            cut = n if k1 - c1 == 1 else work.shape[1]
            work[c1:k1, c1:cut] -= work[c1:k1, c0:c1] @ work[c0:c1, c1:cut]
            if cut < work.shape[1]:
                work[c1:k1, cut:] -= work[c1:k1, c0:c1] @ work[c0:c1, cut:]

    if b is not None and not ride:
        try:
            rhs, _ = _substitute_rows(lu, b.data, lower=True, unit_diagonal=True)
        except OverflowError:
            raise OverflowError("the elimination of the right-hand side overflowed") from None
    _require_finite(rhs, "the elimination of the right-hand side")
    # The record takes views of the working array: no one else holds it, the
    # sides were checked just above, and every packed entry is finite
    # because every pivot was. A strict-upper u_kp and a multiplier m_pk
    # both enter pivot p as m_pk * u_kp: by row p's own update when k and
    # p = k + 1 are a column pair, by the pair's rank-2 product when p lies
    # later in k's panel, otherwise as a term of the pivot's dot product in
    # the panel-start product. In IEEE arithmetic a non-finite factor makes
    # that product, and so any sum holding it, non-finite, even against a
    # zero (inf * 0 = NaN), so the later pivot test fails.
    return EliminationRecord(
        lu=_wrap(lu),
        pivots=tuple(np.diagonal(lu).tolist()),
        transformed_rhs=None if b is None else _wrap(rhs),
        flops=elimination_flops(n, rhs.shape[1]),
        source=a,
        pivot_threshold=threshold,
    )


# Rows per diagonal block of the blocked substitution, which runs at every
# size, so this sets the blocking only. In a sweep of 32 to 128 at n = 200
# and 600 (one BLAS thread), 128 substituted up to a third faster; whether
# that repays its dearer inverses is not yet measured.
_SUBSTITUTION_BLOCK = 64

# Largest condition number ||T|| ||T^-1||, in the 1-norm and the inf-norm, of a
# diagonal block applied through its explicit inverse: such a product is backward
# stable only up to that number (Du Croz & Higham, IMA J. Numer. Anal. 12, 1992),
# and without pivoting the multipliers are unbounded. A worse block goes to LAPACK.
_BLOCK_CONDITION_BOUND = 1e3


def _triangle(block: np.ndarray, lower: bool, unit_diagonal: bool) -> np.ndarray:
    # A fresh copy of the block's own triangle, a unit diagonal filled with 1.
    t = np.tril(block) if lower else np.triu(block)
    if unit_diagonal:
        np.fill_diagonal(t, 1)
    return t


def _block_solve(block: np.ndarray, c: np.ndarray, lower: bool, unit_diagonal: bool) -> np.ndarray:
    # LAPACK gets only the block's own triangle (_triangle), always upper triangular (a
    # lower one as t[::-1, ::-1] with c[::-1]), so gesv's partial pivoting finds
    # only zeros below each diagonal entry and exchanges no row. A block
    # with a subnormal diagonal entry goes scaled with its sides (_SUBNORMAL_SCALE). A
    # NaN or inf in t or c comes back as a non-finite answer, not as an error: gesv
    # reports a singular matrix only for an exactly zero diagonal entry, which no caller
    # passes. Should one come, the handler answers NaN, so the block fails as non-finite.
    t = _triangle(block, lower, unit_diagonal)
    if not unit_diagonal and np.abs(np.diagonal(t)).min() < _SMALLEST_NORMAL:
        t, c = t * _SUBNORMAL_SCALE, c * _SUBNORMAL_SCALE
    order = slice(None, None, -1 if lower else 1)
    try:
        return np.linalg.solve(t[order, order], c[order])[order]
    except np.linalg.LinAlgError:
        return np.full(c.shape, np.nan, dtype=np.result_type(t, c))


@_overflow_is_checked
def _block_inverses(t: np.ndarray, lower: bool, unit_diagonal: bool = False) -> tuple:
    """Inverses of the diagonal blocks of ``t``'s own triangle, for the blocked substitution.

    As ``_substitute_rows`` does, it reads only that triangle and never a
    unit diagonal, so ``t`` may be a packed array holding both of LU's
    factors. Each block's triangle is solved against the identity by
    ``_block_solve``, so the inverse is exactly triangular and nothing is
    pivoted, and the condition norms are that triangle's. A block whose
    inverse is not finite, or whose condition number exceeds the bound in
    either norm, gets ``None`` and is solved by ``_block_solve`` each time.
    Transposed, the inverses of an upper triangle serve its transpose.
    """
    n, nb = t.shape[0], _SUBSTITUTION_BLOCK
    inverses = []
    for k0 in range(0, n, nb):
        block = _triangle(t[k0 : k0 + nb, k0 : k0 + nb], lower, unit_diagonal)
        identity = np.eye(block.shape[0], dtype=block.dtype)
        # Contiguous: a lower block's inverse comes back as a reversed view, slower to apply.
        inv = np.ascontiguousarray(_block_solve(block, identity, lower, unit_diagonal))
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
    substitution), in blocks of ``_SUBSTITUTION_BLOCK`` rows. Each block takes
    the update by the rows already solved as one matrix product, then its
    diagonal block's inverse from ``inverses`` (``_block_inverses(t, lower)``)
    or, where there is none, ``_block_solve``. A unit diagonal is never read.
    The flops are a row-by-row substitution's, whichever way the blocks go.
    """
    n, k, nb = t.shape[0], c.shape[1], _SUBSTITUTION_BLOCK
    x = np.zeros((n, k), dtype=np.result_type(t, c))
    for k0 in range(0, n, nb) if lower else range((n - 1) // nb * nb, -1, -nb):
        k1 = min(k0 + nb, n)
        lo, hi = (0, k0) if lower else (k1, n)  # the rows of x already solved
        # One expression for every block: with no rows solved yet the product is empty.
        r = c[k0:k1] - t[k0:k1, lo:hi] @ x[lo:hi]
        inv = inverses[k0 // nb] if inverses else None
        x[k0:k1] = _block_solve(t[k0:k1, k0:k1], r, lower, unit_diagonal) if inv is None else inv @ r
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
    # Strictly below the diagonal, transposed for strictly above: no copy of either triangle.
    off = np.tri(m.rows, k=-1, dtype=bool)
    if np.any(m.data, where=off.T if lower else off):
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
    bad = np.flatnonzero(~_usable_divisor(np.abs(diag), threshold))
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
