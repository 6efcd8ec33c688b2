"""Dense matrices, vectors, and scalar helpers used by all solvers.

Entries are IEEE doubles: real matrices hold float64, complex ones
complex128 (stored as re/im pairs). Complex symmetry throughout this
library means a_ij == a_ji with no conjugation.

Indexing convention, stated once for the whole package: documentation,
error messages, and reports use 1-based row/column indices; Python-level
access (``m.data``, ``m[i, j]``, ``m.column(j)``) is 0-based.
"""

from __future__ import annotations

import cmath
import hashlib
import math

import numpy as np

from .errors import NonSquareError, ShapeError

__all__ = [
    "DEFAULT_SYMMETRY_TOL",
    "DenseMatrix",
    "matrix_hash",
    "principal_sqrt",
    "residual_norm",
    "transpose",
    "vector",
]

EPS = float(np.finfo(np.float64).eps)

# Relative symmetry tolerance: max|a_ij - a_ji| <= tol * max|a_ij|.
DEFAULT_SYMMETRY_TOL = 1e-12

#: Name of the scheme ``matrix_hash`` uses, recorded in factor files.
HASH_SCHEME = "bytes"

# Entries per block of rows that max_abs takes |a_ij| of at a time on
# complex input: 128 KiB of float64, far below A's size.
_BLOCK_ENTRIES = 1 << 14


def _coerce_entries(entries) -> np.ndarray:
    arr = np.array(entries, copy=True)
    if arr.dtype.kind in "iub":
        arr = arr.astype(np.float64)
    elif arr.dtype.kind == "f":
        arr = arr.astype(np.float64, copy=False)
    elif arr.dtype.kind == "c":
        arr = arr.astype(np.complex128, copy=False)
    else:
        raise TypeError(f"matrix entries must be real or complex numbers, got dtype {arr.dtype}")
    return arr


def _require_finite_entries(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"non-finite entry at ({i + 1},{j + 1}): {arr[i, j]}")


class DenseMatrix:
    """An immutable dense matrix of float64 or complex128 entries.

    Construction rejects non-finite entries (NaN/Inf) outright so that a
    bad value is reported at its source rather than deep inside a solve.
    Because the entries never change, the content hash, the largest
    magnitude and the symmetry deviation are computed at most once and cached.
    """

    __slots__ = ("_data", "_hash", "_max_abs", "_symmetry")

    def __init__(self, entries):
        if isinstance(entries, DenseMatrix):
            entries = entries._data
        arr = _coerce_entries(entries)
        if arr.ndim != 2:
            raise ShapeError(f"matrix entries must be two-dimensional, got {arr.ndim} dimension(s)")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"matrix dimensions must be positive, got {arr.shape[0]}x{arr.shape[1]}")
        _require_finite_entries(arr)
        arr.setflags(write=False)
        self._data = arr
        self._hash = None
        self._max_abs = None
        self._symmetry = None

    @property
    def data(self) -> np.ndarray:
        """The underlying read-only ndarray."""
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_complex(self) -> bool:
        return self._data.dtype.kind == "c"

    @property
    def field(self) -> str:
        return "complex" if self.is_complex else "real"

    def __getitem__(self, index):
        value = self._data[index]
        if np.isscalar(value) or value.ndim == 0:
            return value.item()
        return value

    def __array__(self, dtype=None, copy=None):
        return np.array(self._data, dtype=dtype, copy=copy)

    def column(self, j: int) -> "DenseMatrix":
        """Column ``j`` (0-based) as an n-by-1 matrix."""
        return DenseMatrix(self._data[:, j : j + 1])

    def max_abs(self) -> float:
        """Largest |a_ij|, the value of ``np.max(np.abs(data))``, with no copy of the matrix.

        Real entries give max(max a_ij, -min a_ij), plus 0.0 so that an
        all-zero matrix gives +0.0, not -0.0; complex ones take |a_ij| a
        block of rows at a time.
        """
        if self._max_abs is None:
            a = self._data
            if self.is_complex:
                step = max(1, _BLOCK_ENTRIES // a.shape[1])
                largest = max(np.abs(a[i : i + step]).max() for i in range(0, a.shape[0], step))
            else:
                largest = max(a.max(), -a.min()) + 0.0
            self._max_abs = float(largest)
        return self._max_abs

    def symmetry_deviation(self) -> tuple[float, tuple[int, int]]:
        """Largest |a_ij - a_ji| and its 1-based location, the first in row-major order.

        A - A^T is the one array it allocates: its moduli are taken in place.
        """
        if not self.is_square:
            raise NonSquareError(self.rows, self.cols)
        if self._symmetry is None:
            diff = self._data - self._data.T
            np.abs(diff, out=diff)  # complex moduli land in the real parts
            i, j = np.unravel_index(np.argmax(diff), diff.shape)
            self._symmetry = float(diff[i, j].real), (int(i) + 1, int(j) + 1)
        return self._symmetry

    def is_symmetric(self, tol: float = DEFAULT_SYMMETRY_TOL) -> bool:
        """The package's one symmetry rule: max|a_ij - a_ji| <= tol * max|a_ij|."""
        if np.array_equal(self._data, self._data.T):  # exact, since no entry is NaN
            return True
        deviation, _ = self.symmetry_deviation()
        return deviation <= tol * self.max_abs()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._data, other._data))

    __hash__ = None  # value equality; use matrix_hash for content addressing

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols} {self.field})"


def _wrap(arr: np.ndarray) -> DenseMatrix:
    """``arr`` itself as a ``DenseMatrix``, made read-only: no copy, no checks.

    Only for a fresh two-dimensional float64 or complex128 array of finite
    entries that no one else holds: views of an elimination's working array,
    which its record takes, and the factors formed from them.
    """
    m = DenseMatrix.__new__(DenseMatrix)
    arr.setflags(write=False)
    m._data = arr
    m._hash = m._max_abs = m._symmetry = None
    return m


def vector(values) -> DenseMatrix:
    """Build an n-by-1 column vector from a flat sequence."""
    arr = _coerce_entries(values)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != 1:
        raise ShapeError(f"a vector must be a flat sequence or an n-by-1 matrix, got shape {arr.shape}")
    return DenseMatrix(arr)


def principal_sqrt(z: float | complex) -> float | complex:
    """Principal square root: Re > 0, or Re == 0 with Im >= 0.

    Real non-negative input yields a real result; everything else is complex.
    """
    if isinstance(z, complex) or isinstance(z, np.complexfloating):
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError(f"square root requires a finite value, got {z}")
        w = cmath.sqrt(z)
        # cmath picks the branch cut side from the sign of Im(z); fold the
        # negative-imaginary edge back onto the principal branch.
        if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
            w = -w
        return w
    x = float(z)
    if not math.isfinite(x):
        raise ValueError(f"square root requires a finite value, got {x}")
    if x >= 0.0:
        return math.sqrt(x)
    return complex(0.0, math.sqrt(-x))


def transpose(a: DenseMatrix) -> DenseMatrix:
    """Transpose without conjugation."""
    return DenseMatrix(a.data.T)


def residual_norm(a: DenseMatrix, x: DenseMatrix, b: DenseMatrix) -> float:
    """Scaled residual ``||A x - b||_inf / max(1, ||b||_inf)``."""
    if x.cols != 1 or b.cols != 1:
        raise ShapeError("residual_norm expects single-column x and b")
    if a.cols != x.rows or a.rows != b.rows:
        raise ShapeError(
            f"shapes do not conform: A is {a.rows}x{a.cols}, x has {x.rows} rows, b has {b.rows} rows"
        )
    r = a.data @ x.data - b.data
    return float(np.max(np.abs(r)) / max(1.0, np.max(np.abs(b.data))))


def matrix_hash(m: DenseMatrix) -> str:
    """64-bit content hash of a matrix, as 16 hex digits.

    blake2b over the matrix file's header line ``matrix <rows> <cols>
    <field>`` and then the entries' row-major little-endian bytes (``<f8``
    or ``<c16``). Since files use the shortest decimal that round-trips
    exactly, two matrices hash alike exactly when their matrix files
    (``matio.render_matrix``) are equal (``-0.0`` and ``0.0`` differ in
    both). Computed once per matrix, then cached. The package calls it only
    to write a factor file and to check one against a matrix: elimination
    records and factorizations reference their source matrix and hash it
    when their hash is first read.
    """
    if m._hash is None:
        h = hashlib.blake2b(f"matrix {m.rows} {m.cols} {m.field}\n".encode("ascii"), digest_size=8)
        # Row-major whatever the memory layout: a transposed source stays
        # F-ordered after construction, so its raw buffer is column-major.
        h.update(np.ascontiguousarray(m.data, dtype=m.data.dtype.newbyteorder("<")))
        m._hash = h.hexdigest()
    return m._hash
