"""Exception types shared across the library.

Indices carried by these exceptions are 1-based, matching the convention
used in reports and documentation.

Each exception's ``args`` are its constructor's arguments and its message is
built by ``__str__``, so pickling and ``copy.copy`` rebuild it as it was.
"""

from __future__ import annotations

import math

__all__ = [
    "FactorMismatchError",
    "NonSquareError",
    "NoSolvesError",
    "NotSymmetricError",
    "ParseError",
    "ShapeError",
    "ZeroPivotError",
]


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class NonSquareError(ShapeError):
    """A square matrix was required."""

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        super().__init__(rows, cols)

    def __str__(self) -> str:
        return f"expected a square matrix, got {self.rows}x{self.cols}"


class NotSymmetricError(ValueError):
    """The matrix is not symmetric (a_ij == a_ji) within tolerance."""

    def __init__(self, deviation: float, at: tuple[int, int], bound: float):
        self.deviation = deviation
        self.at = at
        self.bound = bound
        super().__init__(deviation, at, bound)

    def __str__(self) -> str:
        i, j = self.at
        return (
            f"matrix is not symmetric: |a[{i},{j}] - a[{j},{i}]| = {self.deviation:.6e} "
            f"exceeds {self.bound:.6e}"
        )


class ZeroPivotError(ArithmeticError):
    """A diagonal pivot fell at or below the singularity threshold, or overflowed.

    No-pivot elimination cannot continue past such an entry; callers must not
    silently fall back to row exchanges.
    """

    def __init__(self, axis: str, index: int, value: complex, threshold: float):
        self.axis = axis  # "column" from elimination; "row" from back/forward_substitute
        self.index = index
        self.value = value
        self.threshold = threshold
        super().__init__(axis, index, value, threshold)

    def __str__(self) -> str:
        pivot = math.hypot(self.value.real, self.value.imag)  # inf where abs() of a complex raises
        if not pivot < float("inf"):  # also NaN
            cause = "the elimination overflowed" if self.axis == "column" else "its modulus is not finite"
            return f"non-finite pivot in {self.axis} {self.index}: {cause}"
        return f"zero pivot in {self.axis} {self.index}: |pivot| = {pivot:.6e} <= threshold {self.threshold:.6e}"

    @property
    def column(self) -> int | None:
        return self.index if self.axis == "column" else None


class ParseError(ValueError):
    """A matrix or factor file could not be parsed.

    Always carries the 1-based line number; column and the expected token are
    included when known.
    """

    def __init__(self, line: int, expected: str, column: int | None = None):
        self.line = line
        self.column = column
        self.expected = expected
        super().__init__(line, expected, column)

    def __str__(self) -> str:
        where = f"line {self.line}" + (f", column {self.column}" if self.column is not None else "")
        return f"{where}: expected {self.expected}"


class FactorMismatchError(ValueError):
    """A stored factorization does not belong to the supplied matrix."""

    def __init__(self, factor_hash: str, matrix_hash: str):
        self.factor_hash = factor_hash
        self.matrix_hash = matrix_hash
        super().__init__(factor_hash, matrix_hash)

    def __str__(self) -> str:
        return (
            f"factorization was computed from matrix {self.factor_hash}, "
            f"but the supplied matrix hashes to {self.matrix_hash}"
        )


class NoSolvesError(RuntimeError):
    """A cost report was requested before any solve was performed."""

    def __str__(self) -> str:
        return "no solves performed on this session yet"
