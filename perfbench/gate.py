"""The correctness gate: backward errors, closed-form flop counts, CLI output.

Everything here runs outside the timed regions and uses numpy only, against
the generated inputs rather than anything the program hands back.
"""

from __future__ import annotations

import numpy as np

LU = "lu"
GAUSS_CHOLESKY = "gauss-cholesky"


def inf_norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=1).max())


def backward_error(a: np.ndarray, x: np.ndarray, b: np.ndarray, a_norm: float | None = None) -> float:
    """Largest normwise backward error over the columns of ``x``.

    eta = ||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf), the
    Rigal-Gaches backward error (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 7.1).
    """
    x = x.reshape(a.shape[0], -1)
    b = b.reshape(a.shape[0], -1)
    residual = np.abs(a @ x - b).max(axis=0)
    if a_norm is None:
        a_norm = inf_norm(a)
    scale = a_norm * np.abs(x).max(axis=0) + np.abs(b).max(axis=0)
    return float((residual / scale).max())


# Closed forms of the flop ledger, one flop per scalar add, sub, mul or div.


def elimination_flops(n: int) -> int:
    """Reducing A to U: one division per multiplier, two flops per update."""
    return n * (n - 1) // 2 + (n - 1) * n * (2 * n - 1) // 3


def rhs_transform_flops(n: int, k: int = 1) -> int:
    """Applying the row operations to ``k`` sides riding along."""
    return k * n * (n - 1)


def scaling_flops(n: int, method: str) -> int:
    """Turning U into G: n square roots and one division per strict-upper entry."""
    return n + n * (n - 1) // 2 if method == GAUSS_CHOLESKY else 0


def factor_flops(n: int, method: str) -> int:
    """``Provenance.flops`` of a factorization made without sides."""
    return elimination_flops(n) + scaling_flops(n, method)


def first_solve_flops(n: int, method: str) -> int:
    """A session's first solve: elimination with the side, scaling, back substitution."""
    return factor_flops(n, method) + rhs_transform_flops(n) + n * n


def reuse_flops(n: int, method: str) -> int:
    """One side through the cached factors: 2n^2, or 2n^2 - n with LU's unit diagonal."""
    return 2 * n * n - (n if method == LU else 0)


def parse_entry(token: str) -> complex | float:
    if "," in token:
        re_part, im_part = token.split(",")
        return complex(float(re_part), float(im_part))
    return float(token)


def parse_solution_lines(lines: list[str], n: int) -> np.ndarray:
    """Stack printed solution lines (one system per line) as columns of x."""
    rows = [[parse_entry(tok) for tok in line.split()] for line in lines]
    if any(len(row) != n for row in rows):
        raise ValueError(f"a solution line does not have {n} entries")
    return np.array(rows).T


class Gate:
    """Counts checked outcomes and records every miss."""

    def __init__(self, eta_tol: float):
        self.eta_tol = eta_tol
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.max_eta = 0.0

    def attempt(self, misses: list[str], where: str) -> None:
        """Record one checked operation; ``misses`` lists what was wrong with it."""
        self.attempted += 1
        self.failed += bool(misses)
        self.misses.extend(f"{where}: {m}" for m in misses)

    def eta_misses(self, a: np.ndarray, x: np.ndarray, b: np.ndarray, a_norm: float | None = None) -> list[str]:
        eta = backward_error(a, x, b, a_norm)
        self.max_eta = max(self.max_eta, eta)
        if not eta <= self.eta_tol:
            return [f"backward error {eta:.3e} exceeds {self.eta_tol:.1e}"]
        return []


def expect_equal(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what} is {got!r}, expected {want!r}"]
