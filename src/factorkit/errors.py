"""Exception types shared across the library.

Indices carried by these exceptions are 1-based, matching the convention
used in reports and documentation.
"""

from __future__ import annotations


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class NonSquareError(ShapeError):
    """A square matrix was required."""

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        super().__init__(f"expected a square matrix, got {rows}x{cols}")


class NotSymmetricError(ValueError):
    """The matrix is not symmetric (a_ij == a_ji) within tolerance."""

    def __init__(self, deviation: float, at: tuple[int, int], bound: float):
        self.deviation = deviation
        self.at = at
        self.bound = bound
        i, j = at
        super().__init__(
            f"matrix is not symmetric: |a[{i},{j}] - a[{j},{i}]| = {deviation:.6e} "
            f"exceeds {bound:.6e}"
        )


class ZeroPivotError(ArithmeticError):
    """A diagonal pivot fell at or below the singularity threshold.

    No-pivot elimination cannot continue past such an entry; callers must not
    silently fall back to row exchanges.
    """

    def __init__(self, axis: str, index: int, value: complex, threshold: float):
        self.axis = axis  # "column" from elimination; "row" from back/forward_substitute
        self.index = index
        self.value = value
        self.threshold = threshold
        super().__init__(
            f"zero pivot in {axis} {index}: |pivot| = {abs(value):.6e} "
            f"<= threshold {threshold:.6e}"
        )

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
        where = f"line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{where}: expected {expected}")


class FactorMismatchError(ValueError):
    """A stored factorization does not belong to the supplied matrix."""

    def __init__(self, factor_hash: str, matrix_hash: str):
        self.factor_hash = factor_hash
        self.matrix_hash = matrix_hash
        super().__init__(
            f"factorization was computed from matrix {factor_hash}, "
            f"but the supplied matrix hashes to {matrix_hash}"
        )


class NoSolvesError(RuntimeError):
    """A cost report was requested before any solve was performed."""

    def __init__(self) -> None:
        super().__init__("no solves performed on this session yet")
