"""Independent reference implementations used to check the library.

Nothing here calls into factorkit's solvers: the Cholesky factor is the
classical textbook recursion, determinants come from cofactor expansion,
and linear systems are solved by Cramer's rule. These stay deliberately
naive so that agreement with the fast paths is meaningful. The row
substitutions are kept as the reference for the library's kernel, and the
token-by-token matrix-body reader as the reference for ``matio``'s.
"""

from __future__ import annotations

import numpy as np

from factorkit.errors import ParseError
from factorkit.matio import _parse_complex, _parse_real, _tokens
from factorkit.matrices import principal_sqrt


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

    Returns (lu, transformed b, pivots) computed with exactly the
    operations of a column-by-column loop, as the reference the blocked
    eliminator must agree with to within rounding at every size.
    ``lu`` is packed: U on and above the diagonal, the multipliers below.
    Pivots are not tested against any threshold.
    """
    n = a.shape[0]
    work = np.array(a)
    rhs = np.array(b, dtype=np.result_type(a, b))
    pivots = []
    for col in range(n):
        pivot = work[col, col]
        pivots.append(pivot.item())
        m = work[col + 1 :, col] / pivot
        work[col + 1 :, col + 1 :] -= np.outer(m, work[col, col + 1 :])
        work[col + 1 :, col] = m
        rhs[col + 1 :, :] -= np.outer(m, rhs[col, :])
    return work, rhs, tuple(pivots)


def row_back_substitute(u: np.ndarray, c: np.ndarray):
    """Back substitution, last row upward, reading only u's upper triangle.

    Returns (x, flops) with the flops tallied row by row: a multiply and an
    add per known unknown, then a division. The library's substitution
    kernel must match its flops exactly and its backward error to rounding.
    """
    n, k = u.shape[0], c.shape[1]
    x = np.zeros((n, k), dtype=np.result_type(u, c))
    flops = 0
    for i in range(n - 1, -1, -1):
        x[i, :] = (c[i, :] - u[i, i + 1 :] @ x[i + 1 :, :]) / u[i, i]
        flops += k * (2 * (n - 1 - i) + 1)
    return x, flops


def row_forward_substitute(l: np.ndarray, c: np.ndarray, unit_diagonal: bool):
    """Forward substitution, first row downward; a unit diagonal is neither
    read nor divided by. Returns (y, flops), tallied as in
    ``row_back_substitute``."""
    n, k = l.shape[0], c.shape[1]
    y = np.zeros((n, k), dtype=np.result_type(l, c))
    flops = 0
    for i in range(n):
        y[i, :] = c[i, :] - l[i, :i] @ y[:i, :]
        if not unit_diagonal:
            y[i, :] /= l[i, i]
        flops += k * (2 * i + (0 if unit_diagonal else 1))
    return y, flops


def eta(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """Largest normwise backward error ||A x - b|| / (||A|| ||x|| + ||b||) over the columns, in the inf-norm."""
    r = np.max(np.abs(a @ x - b), axis=0)
    return float(np.max(r / (np.linalg.norm(a, np.inf) * np.max(np.abs(x), axis=0) + np.max(np.abs(b), axis=0))))


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


def token_read_rows(cur, rows: int, cols: int, field: str, what: str) -> np.ndarray:
    """``matio._read_rows`` as it was before rows went through ``float()`` whole:
    every token parsed and checked on its own, in file order."""
    collected = []
    parse = _parse_complex if field == "complex" else _parse_real
    for r in range(rows):
        item = cur.next_content()
        if item is None:
            raise ParseError(cur.end_line, f"{rows} {what} rows, found {r}")
        line, raw = item
        toks = _tokens(raw)
        if len(toks) != cols:
            raise ParseError(line, f"{cols} entries, found {len(toks)}", toks[0][1])
        collected.append([parse(tok, line, col) for tok, col in toks])
    dtype = np.complex128 if field == "complex" else np.float64
    return np.array(collected, dtype=dtype)


def packed_factors(lu: np.ndarray, pivots: tuple) -> dict:
    """The factors held by a packed elimination array, formed up front as
    arrays: L = I + tril(lu, -1) and U = triu(lu), and G = triu(lu) with row
    i divided by the principal root of pivot i, which its diagonal holds."""
    roots = np.array([principal_sqrt(p) for p in pivots])
    g = np.triu(lu) / roots[:, None]
    g[np.arange(len(roots)), np.arange(len(roots))] = roots
    return {"l": np.eye(lu.shape[0], dtype=lu.dtype) + np.tril(lu, -1), "u": np.triu(lu), "g": g}
