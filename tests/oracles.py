"""Independent reference implementations used to check the library.

Nothing here calls into factorkit's solvers: the Cholesky factor is the
classical textbook recursion, determinants come from cofactor expansion,
and linear systems are solved by Cramer's rule. These stay deliberately
naive so that agreement with the fast paths is meaningful.
"""

from __future__ import annotations

import numpy as np


def classical_upper_cholesky(a: np.ndarray) -> np.ndarray:
    """Textbook A = C^T C with C upper triangular and positive diagonal."""
    n = a.shape[0]
    c = np.zeros_like(np.asarray(a, dtype=float))
    for j in range(n):
        s = a[j, j] - c[:j, j] @ c[:j, j]
        if s <= 0:
            raise ValueError(f"not positive definite at step {j + 1}")
        c[j, j] = np.sqrt(s)
        for i in range(j + 1, n):
            c[j, i] = (a[j, i] - c[:j, j] @ c[:j, i]) / c[j, j]
    return c


def cofactor_det(a: np.ndarray):
    """Determinant by recursive cofactor expansion along the first row."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


def adjugate_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cramer's rule: x_i = det(A with column i replaced by b) / det(A)."""
    n = a.shape[0]
    d = cofactor_det(a)
    x = np.zeros(n, dtype=np.result_type(a, b))
    rhs = b.ravel()
    for i in range(n):
        ai = np.array(a, dtype=np.result_type(a, b))
        ai[:, i] = rhs
        x[i] = cofactor_det(ai) / d
    return x.reshape(-1, 1)


def elimination_snapshots(a: np.ndarray) -> list[np.ndarray]:
    """Plain-loop no-pivot elimination, keeping the working matrix after
    every column step (snapshot 0 is the input)."""
    w = np.array(a, dtype=np.result_type(a, 1.0))
    n = w.shape[0]
    steps = [w.copy()]
    for col in range(n - 1):
        for i in range(col + 1, n):
            m = w[i, col] / w[col, col]
            for j in range(col, n):
                w[i, j] = w[i, j] - m * w[col, j]
        steps.append(w.copy())
    return steps


def plain_eliminate(a: np.ndarray, b: np.ndarray):
    """Unblocked no-pivot elimination, one rank-1 update per column.

    Returns (u, multipliers, transformed b, pivots) computed with exactly
    the operations of a column-by-column loop, as the reference the blocked
    eliminator must match bit for bit while its input fits in one panel.
    Pivots are not tested against any threshold.
    """
    n = a.shape[0]
    work = np.array(a)
    rhs = np.array(b, dtype=np.result_type(a, b))
    multipliers = np.zeros_like(work)
    pivots = []
    for col in range(n):
        pivot = work[col, col]
        pivots.append(pivot.item())
        m = work[col + 1 :, col] / pivot
        multipliers[col + 1 :, col] = m
        work[col + 1 :, col + 1 :] -= np.outer(m, work[col, col + 1 :])
        work[col + 1 :, col] = 0.0
        rhs[col + 1 :, :] -= np.outer(m, rhs[col, :])
    return work, multipliers, rhs, tuple(pivots)


def random_symmetric(rng: np.random.Generator, n: int, *, complex_entries: bool = False) -> np.ndarray:
    """Symmetric (a_ij == a_ji, no conjugation) with entries in [-1, 1)."""
    a = np.zeros((n, n), dtype=complex if complex_entries else float)
    for i in range(n):
        for j in range(i, n):
            if complex_entries:
                v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            else:
                v = rng.uniform(-1, 1)
            a[i, j] = a[j, i] = v
    return a


def random_unit_square_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex symmetric with re and im drawn uniformly from [0, 1)."""
    a = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            z = complex(rng.uniform(), rng.uniform())
            a[i, j] = a[j, i] = z
    return a


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric positive definite: M^T M + n I."""
    m = rng.standard_normal((n, n))
    return m.T @ m + n * np.eye(n)
