"""Plain-text matrix and factorization files.

Matrix file grammar (blank lines and ``#`` comment lines are skipped
anywhere):

    matrix <rows> <cols> <field>      field: real | complex
    <rows lines of <cols> whitespace-separated entries>

Real entries are decimal literals; complex entries are pairs ``re,im``
with no spaces inside the pair. Rendering uses the shortest decimal that
round-trips exactly, so parse(render(M)) == M for every finite matrix.

Factor files persist a factorization the same way:

    factor <kind> <n> <field>         kind: lu | gauss-cholesky
    <one section per stored factor: a line naming it (l, u, or g),
     then n rows in matrix body syntax>
    provenance
    matrix-hash <16 hex digits> <scheme>
    pivots <n entries>
    flops <integer>
    symmetry-tol <float or none>
    pivot-threshold <non-negative float>      (optional)

The hash scheme is ``bytes`` (``matrices.matrix_hash``). Files written
before the scheme was recorded carry no scheme token; their hash is the
legacy ``text`` scheme, blake2b of the matrix's canonical text (its file
text, ``render_matrix``), which is computed only when such a file is checked
against a matrix.

``pivot-threshold`` is the elimination's bound n * eps * max|A|; loading
checks the recorded pivots against it and requires the divisors (u_ii, or
g_ii, the pivots' principal roots) to be exactly those pivots' own. Files
written before it was recorded have their diagonal checked against
n * eps * max|factor| as then.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

import numpy as np

from .errors import FactorMismatchError, ParseError
from .factorizations import FACTOR_NAMES, Factorization, Provenance
from .matrices import HASH_SCHEME, DenseMatrix, matrix_hash

__all__ = [
    "load_factorization",
    "load_matrix",
    "parse_factorization",
    "parse_matrix",
    "render_factorization",
    "render_matrix",
    "save_factorization",
    "save_matrix",
]

_TOKEN = re.compile(r"\S+")

# The scheme of a matrix-hash line without a scheme token.
_LEGACY_HASH_SCHEME = "text"


class _Lines:
    """Cursor over content lines, skipping blanks and comments."""

    def __init__(self, text: str):
        self._lines = text.splitlines()
        self._pos = 0

    def next_content(self) -> tuple[int, str] | None:
        while self._pos < len(self._lines):
            raw = self._lines[self._pos]
            self._pos += 1
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                return self._pos, raw
        return None

    @property
    def end_line(self) -> int:
        return max(len(self._lines), 1)


def _tokens(raw: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(raw)]


def _parse_real(tok: str, line: int, col: int) -> float:
    if "," in tok:
        raise ParseError(line, f"a real number, got complex pair {tok!r}", col)
    try:
        value = float(tok)
    except ValueError:
        raise ParseError(line, f"a real number, got {tok!r}", col) from None
    if not math.isfinite(value):
        raise ParseError(line, f"a finite number, got {tok!r}", col)
    return value


def _parse_complex(tok: str, line: int, col: int) -> complex:
    parts = tok.split(",")
    if len(parts) != 2:
        raise ParseError(line, f"a complex pair re,im, got {tok!r}", col)
    try:
        re_part, im_part = float(parts[0]), float(parts[1])
    except ValueError:
        raise ParseError(line, f"a complex pair re,im, got {tok!r}", col) from None
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ParseError(line, f"finite components, got {tok!r}", col)
    return complex(re_part, im_part)


def _parse_int(tok: str, line: int, col: int, what: str, minimum: int = 1) -> int:
    try:
        value = int(tok) if tok.isascii() and tok.isdigit() else -1
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        value = -1
    if value < minimum:
        raise ParseError(line, f"a {what}, got {tok!r}", col)
    return value


def _parse_field(tok: str, line: int, col: int) -> str:
    if tok not in ("real", "complex"):
        raise ParseError(line, f"field 'real' or 'complex', got {tok!r}", col)
    return tok


def _read_rows(cur: _Lines, rows: int, cols: int, field: str, what: str) -> np.ndarray:
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


def parse_matrix(text: str) -> DenseMatrix:
    """Parse matrix-file text; raises ``ParseError`` naming the bad line."""
    cur = _Lines(text)
    item = cur.next_content()
    if item is None:
        raise ParseError(cur.end_line, "header line 'matrix <rows> <cols> <field>'")
    line, raw = item
    toks = _tokens(raw)
    if toks[0][0] != "matrix":
        raise ParseError(line, f"keyword 'matrix', got {toks[0][0]!r}", toks[0][1])
    if len(toks) != 4:
        raise ParseError(line, f"'matrix <rows> <cols> <field>', got {len(toks)} tokens", toks[0][1])
    rows = _parse_int(toks[1][0], line, toks[1][1], "positive integer row count")
    cols = _parse_int(toks[2][0], line, toks[2][1], "positive integer column count")
    field = _parse_field(toks[3][0], line, toks[3][1])
    body = _read_rows(cur, rows, cols, field, "data")
    trailing = cur.next_content()
    if trailing is not None:
        raise ParseError(trailing[0], "end of file after the last data row")
    return DenseMatrix(body)


def format_entry(value: float | complex) -> str:
    """Shortest exact decimal rendering; complex values as ``re,im``."""
    if isinstance(value, (complex, np.complexfloating)):
        v = complex(value)
        return f"{float(v.real)!r},{float(v.imag)!r}"
    return repr(float(value))


def _render_rows(m: DenseMatrix) -> list[str]:
    return [" ".join(format_entry(v) for v in row) for row in m.data]


def render_matrix(m: DenseMatrix) -> str:
    """Canonical file text for a matrix (exact round-trip)."""
    return "\n".join([f"matrix {m.rows} {m.cols} {m.field}", *_render_rows(m)]) + "\n"


def load_matrix(path) -> DenseMatrix:
    return parse_matrix(Path(path).read_text(encoding="utf-8"))


def save_matrix(path, m: DenseMatrix) -> None:
    Path(path).write_text(render_matrix(m), encoding="utf-8")


def render_factorization(f: Factorization) -> str:
    names = FACTOR_NAMES[f.kind]
    lines = [f"factor {f.kind} {f.n} {getattr(f, names[0]).field}"]
    for name in names:
        lines += [name, *_render_rows(getattr(f, name))]
    prov = f.provenance
    lines.append("provenance")
    if prov.hash_scheme == _LEGACY_HASH_SCHEME:
        lines.append(f"matrix-hash {prov.matrix_hash}")
    else:
        lines.append(f"matrix-hash {prov.matrix_hash} {prov.hash_scheme}")
    lines.append("pivots " + " ".join(format_entry(p) for p in prov.pivots))
    lines.append(f"flops {prov.flops}")
    tol = "none" if prov.symmetry_tol is None else repr(float(prov.symmetry_tol))
    lines.append(f"symmetry-tol {tol}")
    if prov.pivot_threshold is not None:
        lines.append(f"pivot-threshold {float(prov.pivot_threshold)!r}")
    return "\n".join(lines) + "\n"


def _expect_keyword(cur: _Lines, keyword: str) -> tuple[int, list[tuple[str, int]]]:
    item = cur.next_content()
    if item is None:
        raise ParseError(cur.end_line, f"keyword '{keyword}'")
    line, raw = item
    toks = _tokens(raw)
    if toks[0][0] != keyword:
        raise ParseError(line, f"keyword '{keyword}', got {toks[0][0]!r}", toks[0][1])
    return line, toks


def parse_factorization(text: str) -> Factorization:
    """Parse factor-file text back into a ``Factorization``, bit for bit."""
    cur = _Lines(text)
    line, toks = _expect_keyword(cur, "factor")
    if len(toks) != 4:
        raise ParseError(line, f"'factor <kind> <n> <field>', got {len(toks)} tokens", toks[0][1])
    kind = toks[1][0]
    if kind not in FACTOR_NAMES:
        raise ParseError(line, f"kind {' or '.join(map(repr, FACTOR_NAMES))}, got {kind!r}", toks[1][1])
    n = _parse_int(toks[2][0], line, toks[2][1], "positive integer order")
    field = _parse_field(toks[3][0], line, toks[3][1])

    factors = {}
    for name in FACTOR_NAMES[kind]:
        _expect_keyword(cur, name)
        factors[name] = DenseMatrix(_read_rows(cur, n, n, field, f"factor {name}"))

    _expect_keyword(cur, "provenance")

    line, toks = _expect_keyword(cur, "matrix-hash")
    if len(toks) not in (2, 3):
        raise ParseError(line, "a hash value and its scheme", toks[0][1])
    source_hash = toks[1][0]
    scheme = _LEGACY_HASH_SCHEME
    if len(toks) == 3:
        scheme, col = toks[2]
        if scheme != HASH_SCHEME:
            raise ParseError(line, f"hash scheme {HASH_SCHEME!r}, got {scheme!r}", col)

    line, toks = _expect_keyword(cur, "pivots")
    if len(toks) != n + 1:
        raise ParseError(line, f"{n} pivots, found {len(toks) - 1}", toks[0][1])
    pivots = tuple(
        _parse_complex(tok, line, col) if "," in tok else _parse_real(tok, line, col)
        for tok, col in toks[1:]
    )

    line, toks = _expect_keyword(cur, "flops")
    if len(toks) != 2:
        raise ParseError(line, "a flop count", toks[0][1])
    flops = _parse_int(toks[1][0], line, toks[1][1], "non-negative integer flop count", minimum=0)

    line, toks = _expect_keyword(cur, "symmetry-tol")
    if len(toks) != 2:
        raise ParseError(line, "a tolerance or 'none'", toks[0][1])
    tol = None if toks[1][0] == "none" else _parse_real(toks[1][0], line, toks[1][1])

    threshold = None
    trailing = cur.next_content()
    if trailing is not None and trailing[1].split()[0] == "pivot-threshold":
        line, toks = trailing[0], _tokens(trailing[1])
        threshold = _parse_real(toks[1][0], line, toks[1][1]) if len(toks) == 2 else -1.0
        if threshold < 0.0:
            raise ParseError(line, "a non-negative pivot threshold", toks[0][1])
        trailing = cur.next_content()
    if trailing is not None:
        raise ParseError(trailing[0], "end of file after provenance")

    provenance = Provenance(source_hash, pivots, flops, tol, scheme, threshold)
    try:
        return Factorization(kind=kind, n=n, provenance=provenance, **factors)
    except ValueError as exc:
        raise ParseError(1, f"a consistent factorization ({exc})") from None


def load_factorization(path) -> Factorization:
    return parse_factorization(Path(path).read_text(encoding="utf-8"))


def save_factorization(path, f: Factorization) -> None:
    Path(path).write_text(render_factorization(f), encoding="utf-8")


def stale_factor_check(f: Factorization, a: DenseMatrix) -> None:
    """Raise ``FactorMismatchError`` when ``f`` was not computed from ``a``.

    ``a`` is hashed under the scheme the factorization recorded.
    """
    if f.provenance.hash_scheme == _LEGACY_HASH_SCHEME:
        current = hashlib.blake2b(render_matrix(a).encode("ascii"), digest_size=8).hexdigest()
    else:
        current = matrix_hash(a)
    if f.provenance.matrix_hash != current:
        raise FactorMismatchError(f.provenance.matrix_hash, current)
