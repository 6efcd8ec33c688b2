"""Packaged factorizations built from an elimination pass.

Two kinds are supported:

* ``lu``: A = L U with L the unit lower-triangular multiplier matrix and U
  the eliminated upper triangle, both held in one array packed as the
  elimination leaves it and as LAPACK's ``xGETRF`` returns it: U on and
  above the diagonal, the multipliers below.
* ``gauss-cholesky``: for symmetric A (complex symmetric allowed, no
  conjugation), A = G^T G where G is U with row i divided by the principal
  square root of the pivot u_ii. Real symmetric positive definite input
  stays entirely real on the same code path; a negative pivot simply makes
  G complex. No positive-definiteness proof is attempted or required.

Packaging an elimination record builds the factorization through its
constructor, which validates it as it validates factorizations from
anywhere else: LU adopts the record's packed array itself, and
gauss-cholesky forms G from it at once. Factors as a factor file lists
them, L and U or G, come in through ``Factorization.from_factors``, which
packs L and U once. The one caller that can answer without the factors, a
session's first solve, defers packaging itself (see ``workflow``).

Both kinds are immutable once constructed and may serve any number of
concurrent solves. The first solve of a factorization inverts the
diagonal blocks of its triangular factors (one set for G, whose transposes
serve G^T; one each for L and U, read from the packed array) and caches
them, so every solve substitutes block by block. ``solve`` also caches the
factors' product, against which its report measures the residuals when
they are first read. Only a factorization's first solve pays that O(n^3)
product; each later one costs two O(n^2) substitutions, plus one O(n^2)
product per column if its residuals are read, which a session's reuse
never does. The substitution step alone, ``_substitute_factors``, forms no
product. LU's product is formed in place of a copy of U, one row block at a
time, by the elimination module's ``_times_unit_lower``.
The inverses and the product are derived state: never a constructor
argument, never carried into factor files, copies or pickles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .elimination import EliminationRecord, _pivot_threshold, _require_triangular, gauss_eliminate, scaling_flops
from .elimination import _block_inverses, _require_finite, _solve_lower, _solve_upper, _times_unit_lower, _triangle
from .elimination import _usable_divisor
from .errors import NotSymmetricError, ShapeError
from .matrices import (
    DEFAULT_SYMMETRY_TOL,
    HASH_SCHEME,
    DenseMatrix,
    _overflow_is_checked,
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
# holds the divisors of the solves. LU stores both in one packed array.
FACTOR_NAMES = {KIND_LU: ("l", "u"), KIND_GAUSS_CHOLESKY: ("g",)}


def _first_read(obj, name: str, field: str, pending: str, measure):
    """``obj.__getattr__(name)`` for a ``field`` whose source waits in ``obj.__dict__[pending]``.

    Called when lookup misses: for ``field``, until a first read has stored
    ``measure(source)`` and dropped the source, which another thread may
    finish in between.
    """
    d = obj.__dict__
    source = d.get(pending)
    if name != field or source is None and name not in d:
        raise AttributeError(f"{type(obj).__name__!r} object has no attribute {name!r}")
    if source is not None:
        d.setdefault(name, measure(source))  # racing first reads store the same value
        d.pop(pending, None)
    return d[name]


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
        return _first_read(self, name, "matrix_hash", "_source", matrix_hash)

    def __reduce__(self):  # copies and pickles carry the hash, not the matrix
        return Provenance, astuple(self)


@dataclass(frozen=True)
class SolveReport:
    """Solutions (one column per right-hand side) with quality and cost.

    ``residuals`` may be given as a function of no arguments, as ``solve``
    gives it: the residuals are then measured when first read, and the
    function dropped. Until then the report holds what the function holds,
    for ``solve`` its solutions, the sides and the factors' product, which
    the factorization holds anyway. Equality, ``repr``, copies and pickles
    go by the residuals' values.
    """

    solutions: DenseMatrix
    residuals: tuple[float, ...]
    flops: int
    method: str

    def __post_init__(self):
        if callable(self.residuals):  # measured by __getattr__ on first read
            self.__dict__["_measure"] = self.__dict__.pop("residuals")

    def __getattr__(self, name):
        return _first_read(self, name, "residuals", "_measure", lambda measure: measure())

    def __reduce__(self):  # copies and pickles carry the residuals, not the product
        return SolveReport, (self.solutions, self.residuals, self.flops, self.method)


@dataclass(frozen=True)
class Factorization:
    """A tagged factorization: LU's packed factors, or the single G of A = G^T G.

    An LU factorization stores one n x n array, ``lu``: U on and above the
    diagonal, L's multipliers below it. ``l`` and ``u`` are formed from it
    on each read. ``from_factors`` builds either kind from its factors as a
    factor file lists them.

    The constructor validates what it stores, wherever it comes from: one
    n x n array, G exactly upper triangular, and a diagonal of U or G that
    is the recorded pivots' own (or, where no pivot threshold was recorded,
    clears n * eps * max|factor|).
    """

    kind: str
    n: int
    provenance: Provenance
    lu: DenseMatrix | None = None
    g: DenseMatrix | None = None

    def __post_init__(self):
        if self.kind not in FACTOR_NAMES:
            raise ValueError(f"unknown factorization kind {self.kind!r}")
        stored = "lu" if self.kind == KIND_LU else "g"
        if tuple(name for name in ("lu", "g") if getattr(self, name) is not None) != (stored,):
            raise ValueError(f"{self.kind} factorizations store exactly {stored}")
        m = getattr(self, stored)
        if m.shape != (self.n, self.n):
            raise ShapeError(f"factor {stored} must be {self.n}x{self.n}, got {m.rows}x{m.cols}")
        if stored == "g":
            _require_triangular(m, lower=False, name="factor g")
        # The solves divide by the last factor's diagonal: u_ii, the pivots, or
        # g_ii, their roots. A recorded threshold judges the pivots themselves,
        # which the diagonal must then match exactly; without one the factor
        # meets the rule it was saved under, n * eps * max|factor|. Either way a
        # modulus must be finite: LAPACK's reciprocal of a larger one underflows.
        name = FACTOR_NAMES[self.kind][-1]
        diagonal = np.diagonal(m.data)
        pivots = self.provenance.pivots
        threshold = self.provenance.pivot_threshold
        recorded = threshold is not None
        moduli = np.abs(pivots if recorded else diagonal)
        if not recorded:  # an older factor file's rule; U is formed for it
            threshold = _pivot_threshold(self.n, getattr(self, name).max_abs())
        bad = np.flatnonzero(~_usable_divisor(moduli, threshold))
        if bad.size and moduli[bad[0]] < np.inf:
            raise ValueError(f"factor {name} has a negligible diagonal entry")
        if bad.size:
            raise ValueError(f"factor {name} has a diagonal entry whose modulus overflows")
        if recorded and not np.array_equal(diagonal, pivots if name == "u" else _pivot_roots(pivots)):
            raise ValueError(f"factor {name} has a diagonal that is not the recorded pivots' own")

    @classmethod
    def from_factors(cls, kind: str, n: int, provenance: Provenance, **factors: DenseMatrix) -> Factorization:
        """The factorization whose factors, named as ``FACTOR_NAMES`` lists them, are ``factors``.

        L and U must each be n x n and exactly triangular, L with a unit
        diagonal, both of one field (a factor file has one). They are
        packed into one fresh array, U's triangle bit for bit and L's
        multipliers by value: read back through ``l``, a zero multiplier
        is +0.0, as in every L, and so is every zero outside the triangles.
        G goes to the constructor as it is.
        """
        names = FACTOR_NAMES.get(kind)
        if names is None:
            raise ValueError(f"unknown factorization kind {kind!r}")
        if set(factors) != set(names):
            raise ValueError(f"{kind} factorizations carry exactly {' and '.join(names)}")
        if kind != KIND_LU:
            return cls(kind, n, provenance, **factors)
        for name, m in factors.items():
            if m.shape != (n, n):
                raise ShapeError(f"factor {name} must be {n}x{n}, got {m.rows}x{m.cols}")
            _require_triangular(m, lower=name == "l", unit_diagonal=name == "l", name=f"factor {name}")
        l, u = factors["l"], factors["u"]
        if l.field != u.field:
            raise ValueError(f"{kind} factors must be all real or all complex")
        lu = np.array(u.data)
        np.copyto(lu, l.data, where=np.tri(n, k=-1, dtype=bool))
        return cls(kind, n, provenance, lu=_wrap(lu))

    @property
    def l(self) -> DenseMatrix | None:
        """L = I + tril(lu, -1), formed afresh on each read; ``None`` for gauss-cholesky.

        lu's unit-lower triangle plus 0.0 in place, an addition that turns
        a -0.0 multiplier into +0.0.
        """
        if self.lu is None:
            return None
        l = _triangle(self.lu.data, lower=True, unit_diagonal=True)
        l += 0.0
        return _wrap(l)

    @property
    def u(self) -> DenseMatrix | None:
        """U = triu(lu), formed afresh on each read; ``None`` for gauss-cholesky."""
        return None if self.lu is None else _wrap(np.triu(self.lu.data))

    @functools.cached_property
    def _inverses(self) -> tuple:
        """(forward, back) diagonal-block inverses for ``solve``, made on first use, never saved."""
        if self.kind == KIND_LU:
            lu = self.lu.data
            return _block_inverses(lu, True, True), _block_inverses(lu, False)
        back = _block_inverses(self.g.data, False)  # G^T's blocks are G's transposed
        return tuple(v if v is None else v.T for v in back), back

    @functools.cached_property
    def _rebuilt(self) -> DenseMatrix:
        """The factors' product for ``rebuild``, formed on first use, never saved."""
        product = _product(self)
        _require_finite(product, "the factors' product")
        return _wrap(product)

    def __getstate__(self):  # copies and pickles leave the derived inverses and product behind
        return {name: value for name, value in self.__dict__.items() if name not in ("_inverses", "_rebuilt")}

    def rebuild(self) -> DenseMatrix:
        """The factors multiplied back together; G^T G is exactly symmetric.

        The product is formed on a factorization's first call and the same
        read-only matrix is returned by every later one.
        """
        return self._rebuilt


@_overflow_is_checked
def _product(f: Factorization, shift: int = 0) -> np.ndarray:
    """The factors' product divided by 2**shift, as a fresh array.

    The factors are divided before they are multiplied, U by 2**shift for
    LU and G by 2**(shift / 2) for gauss-cholesky (so ``shift`` is then
    even). A division by a power of two is exact wherever the entries stay
    normal, and a product near the largest double is formed near 1 instead,
    where it cannot overflow. LU's U is copied out of the packed array,
    divided in place and multiplied by L in place, so the returned array is
    the only one the size of A; G is divided as a copy. A product that
    overflows anyway comes back with its non-finite entries and no warning,
    for the caller to check.
    """
    if f.kind == KIND_LU:
        product = np.triu(f.lu.data)
        if shift:
            product /= 2.0**shift
        return _times_unit_lower(f.lu.data, product)
    g = f.g.data / 2.0 ** (shift // 2) if shift else f.g.data
    return g.T @ g


def _pivot_roots(pivots: tuple) -> np.ndarray:
    """G's diagonal: the principal square root of each pivot."""
    return np.array([principal_sqrt(p) for p in pivots])


def _packaging_flops(kind: str, n: int, elimination: int) -> int:
    """The ledger of an elimination packaged as ``kind``: its flops, plus scaling U into G for gauss-cholesky."""
    return elimination + (scaling_flops(n) if kind == KIND_GAUSS_CHOLESKY else 0)


def _provenance(record: EliminationRecord, kind: str, symmetry_tol: float | None = None) -> Provenance:
    flops = _packaging_flops(kind, record.n, record.flops)
    return Provenance(record.source, record.pivots, flops, symmetry_tol, pivot_threshold=record.pivot_threshold)


def lu_from_record(record: EliminationRecord) -> Factorization:
    """Package an elimination record as A = L U, holding the packed ``record.lu`` itself.

    The factorization adopts the record's read-only array without a copy:
    U on and above its diagonal, L's multipliers below. Where a side rode
    in the elimination that array is a view, one column narrower than the
    working array it keeps alive.
    """
    return Factorization(KIND_LU, record.n, _provenance(record, KIND_LU), lu=record.lu)


@_overflow_is_checked
def gauss_cholesky_from_record(
    record: EliminationRecord, symmetry_tol: float = DEFAULT_SYMMETRY_TOL
) -> Factorization:
    """Package an elimination record of a symmetric matrix as A = G^T G.

    G is U, from the packed ``record.lu``, with row i divided by the
    principal square root of the pivot u_ii. The caller is responsible for
    having checked symmetry of the source. G = triu(lu) / r[:, None] with r
    the pivots' principal roots, which G's diagonal then holds (the
    algebraically identical form of u_ii / r_i), one fresh array divided in
    place and wrapped without a copy; a negative pivot of a real record
    makes G complex, and triu(lu) is then copied into that field first. G
    is checked, though a record from ``gauss_eliminate``
    cannot overflow it: g_ij^2 is u_ij * m_ji, a term of pivot j's update
    (row j's own update when i and j = i + 1 are a column pair, the step's
    trailing product when j lies later in i's panel, the panel-start product
    otherwise), and an overflow there fails as a non-finite pivot.
    """
    roots = _pivot_roots(record.pivots)
    g = np.triu(record.lu.data).astype(roots.dtype, copy=False)
    g /= roots[:, None]
    np.fill_diagonal(g, roots)
    _require_finite(g, "the factor G")
    provenance = _provenance(record, KIND_GAUSS_CHOLESKY, symmetry_tol)
    return Factorization(KIND_GAUSS_CHOLESKY, record.n, provenance, g=_wrap(g))


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


def _substitute_factors(f: Factorization, b: DenseMatrix) -> tuple[DenseMatrix, int]:
    """Solve A x = b through the factors, one forward and one back substitution.

    Returns (solutions, flops). No product of the factors is formed, so the
    cost is O(n^2) per column after a factorization's first solve has
    inverted its diagonal blocks. ``b`` may carry any number of columns;
    each is solved independently, but its last digits depend on how many
    there are: one column is substituted as a vector, several as a matrix,
    whose products round differently (up to about 1e-13 relative at
    n = 150). A real system's answers are real, also where a negative pivot
    makes G complex: each row of G is then purely real or purely imaginary,
    so every imaginary part of the answer is exactly 0.
    """
    if b.rows != f.n:
        raise ShapeError(f"right-hand side has {b.rows} rows, factorization is for n = {f.n}")
    # Each substitution reads only its own triangle of LU's packed array.
    unit = f.kind == KIND_LU
    t = f.lu.data if unit else f.g.data
    forward, back = f._inverses
    y, fl_forward = _solve_lower(t if unit else t.T, b.data, unit_diagonal=unit, inverses=forward)
    x, fl_back = _solve_upper(t, y, inverses=back)
    if x.dtype.kind == "c" and not b.is_complex and not any(isinstance(p, complex) for p in f.provenance.pivots):
        x = x if x.imag.any() else x.real  # real sides and real pivots: a real system
    return DenseMatrix(x), fl_forward + fl_back


def _residuals(rebuilt: DenseMatrix, solutions: DenseMatrix, b: DenseMatrix) -> tuple[float, ...]:
    """Each column's ``residual_norm`` against the factors' product."""
    return tuple(
        residual_norm(rebuilt, solutions.column(j), b.column(j)) for j in range(b.cols)
    )


def solve(f: Factorization, b: DenseMatrix) -> SolveReport:
    """Solve A x = b through the factors (``_substitute_factors``), with residuals.

    Residuals are measured against the reconstructed matrix, since a
    factorization need not hold its source: one read from a factor file
    carries only its hash. The first solve of a factorization forms that
    matrix in O(n^3); later solves reuse it. A product that overflows, as
    G^T G of a matrix at the largest double can, raises ``OverflowError``
    here. The residuals themselves, an O(n^2) product per column, are
    measured when the report's ``residuals`` are first read, so a caller
    that never reads them, as a session's reuse, never pays for them.
    """
    solutions, flops = _substitute_factors(f, b)
    residuals = functools.partial(_residuals, f.rebuild(), solutions, b)
    return SolveReport(solutions=solutions, residuals=residuals, flops=flops, method=f.kind)


def _require_order(f: Factorization, a: DenseMatrix) -> None:
    if a.shape != (f.n, f.n):
        raise ShapeError(f"matrix is {a.rows}x{a.cols}, factorization is for n = {f.n}")


def verify(f: Factorization, a: DenseMatrix) -> float:
    """Relative Frobenius error of the reconstruction against ``a``.

    A and the reconstruction are divided by one power of two within a
    factor 4 of max|A|, an even power for gauss-cholesky; the
    reconstruction is formed from factors divided first (``_product``).
    Both divisions are exact, so neither the product nor the norms overflow
    or underflow however large or small A's entries are, the largest double
    included. The scaled A is subtracted from the product in place, so at
    most two arrays the size of A are alive at once.
    """
    _require_order(f, a)
    shift = min(math.frexp(a.max_abs())[1], 1023)
    if f.kind == KIND_GAUSS_CHOLESKY:
        shift -= shift & 1
    product = _product(f, shift)
    scaled = a.data / 2.0**shift
    product = product.astype(np.result_type(product, scaled), copy=False)  # real factors, complex A
    product -= scaled
    diff = float(np.linalg.norm(product))
    denom = float(np.linalg.norm(scaled))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / denom
