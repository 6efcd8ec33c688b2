"""Plain-text matrix and factorization files.

Matrix file grammar (blank lines and ``#`` comment lines are skipped
anywhere):

    matrix <rows> <cols> <field>      field: real | complex
    <rows lines of <cols> whitespace-separated entries>

Real entries are what ``float()`` accepts and finite; complex entries are
pairs ``re,im`` of such numbers with no spaces inside the pair. ``float()``
is the whole number grammar, so ``1_0`` reads as 10.0 and ``١٢`` (Arabic-Indic
digits) as 12.0. Entries are separated by ``str.split()``'s whitespace.
Rendering uses the shortest decimal that round-trips exactly, so
parse(render(M)) == M for every finite matrix. Files are UTF-8; ``load_*``
skip a leading byte-order mark.

Each data row is read first as one ``float()`` call per entry and one
finiteness test of the row's sum. A row that misses (wrong entry count, a
token ``float()`` refuses, a comma in a real file, a pair without exactly one
comma, a non-finite sum) is re-read token by token, which raises that row's
``ParseError`` or, when only the sum overflowed, returns the same entries.
Rows are read in file order, so the first bad row is the one reported.

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

Parse errors name their 1-based line. A malformed header or provenance line
is reported at its keyword's column, a missing one at the file's last line.

``pivot-threshold`` is the elimination's bound n * eps * max|A|; loading
checks the recorded pivots against it and requires the divisors (u_ii, or
g_ii, the pivots' principal roots) to be exactly those pivots' own. Files
written before it was recorded have their diagonal checked against
n * eps * max|factor| as then. Either way a divisor whose modulus overflows
is rejected.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import re
from pathlib import Path

import numpy as np

from .errors import FactorMismatchError, ParseError
from .factorizations import FACTOR_NAMES, Factorization, Provenance
from .matrices import HASH_SCHEME, DenseMatrix, _wrap, matrix_hash

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
    """Cursor over the content lines (neither blank nor a comment), numbered from 1."""

    def __init__(self, text: str):
        lines = text.splitlines()
        self.end_line = max(len(lines), 1)
        self.chars = len(text)
        self._content = ((i, raw) for i, raw in enumerate(lines, 1) if raw.lstrip()[:1] not in ("", "#"))

    def next_content(self) -> tuple[int, str] | None:
        return next(self._content, None)


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


def _expect_keyword(
    cur: _Lines, keyword: str, counts: tuple[int, ...] = (), miss: str = "", absent: str = ""
) -> tuple[int, list[tuple[str, int]]]:
    """The next content line, which must start with ``keyword`` and, given ``counts``, hold that many tokens.

    A wrong count reports ``miss``, formatted with the ``tokens`` found and the
    ``values`` after the keyword; both misses point at the keyword's column.
    """
    item = cur.next_content()
    if item is None:
        raise ParseError(cur.end_line, absent or f"keyword '{keyword}'")
    line, raw = item
    toks = _tokens(raw)
    head, col = toks[0]
    if head != keyword:
        raise ParseError(line, f"keyword '{keyword}', got {head!r}", col)
    if counts and len(toks) not in counts:
        raise ParseError(line, miss.format(tokens=len(toks), values=len(toks) - 1), col)
    return line, toks


def _real_row(raw: str) -> list[float]:
    return list(map(float, raw.split()))


def _complex_row(raw: str) -> list[complex]:
    return [complex(float(re_part), float(im_part)) for re_part, im_part in [tok.split(",") for tok in raw.split()]]


def _read_rows(cur: _Lines, rows: int, cols: int, field: str, what: str) -> np.ndarray:
    """The next ``rows`` content lines as a fresh array; each line that misses the fast path is re-read token by token.

    Each row's Python numbers go into the array as soon as they are read.
    Every entry is finite: a row is kept only when its sum is finite or
    each of its tokens was parsed as finite. Each entry takes at least one
    character, so a claim of more entries than the text has characters
    gets no array: it cannot be met, and the loop raises its ``ParseError``.
    """
    fits = rows * cols <= cur.chars
    body = np.empty((rows, cols), dtype=np.complex128 if field == "complex" else np.float64) if fits else None
    fast, parse = (_complex_row, _parse_complex) if field == "complex" else (_real_row, _parse_real)
    for r in range(rows):
        item = cur.next_content()
        if item is None:
            raise ParseError(cur.end_line, f"{rows} {what} rows, found {r}")
        line, raw = item
        try:
            row = fast(raw)
        except ValueError:
            row = None
        # any inf or nan entry makes the sum non-finite
        if row is None or len(row) != cols or not cmath.isfinite(sum(row)):
            toks = _tokens(raw)
            if len(toks) != cols:
                raise ParseError(line, f"{cols} entries, found {len(toks)}", toks[0][1])
            row = [parse(tok, line, col) for tok, col in toks]
        if fits:
            body[r] = row
    return body


def parse_matrix(text: str) -> DenseMatrix:
    """Parse matrix-file text; raises ``ParseError`` naming the bad line."""
    shape = "'matrix <rows> <cols> <field>'"
    cur = _Lines(text)
    line, toks = _expect_keyword(cur, "matrix", (4,), shape + ", got {tokens} tokens", f"header line {shape}")
    rows = _parse_int(toks[1][0], line, toks[1][1], "positive integer row count")
    cols = _parse_int(toks[2][0], line, toks[2][1], "positive integer column count")
    field = _parse_field(toks[3][0], line, toks[3][1])
    body = _read_rows(cur, rows, cols, field, "data")
    trailing = cur.next_content()
    if trailing is not None:
        raise ParseError(trailing[0], "end of file after the last data row")
    return _wrap(body)


def format_entry(value: float | complex) -> str:
    """Shortest exact decimal rendering; complex values as ``re,im``."""
    if isinstance(value, (complex, np.complexfloating)):
        v = complex(value)
        return f"{float(v.real)!r},{float(v.imag)!r}"
    return repr(float(value))


def _render_rows(m: DenseMatrix) -> list[str]:
    """Each row's entries as ``format_entry`` writes them, from one row of Python scalars at a time."""
    if m.is_complex:
        return [" ".join([f"{v.real!r},{v.imag!r}" for v in row.tolist()]) for row in m.data]
    return [" ".join(map(repr, row.tolist())) for row in m.data]


def render_matrix(m: DenseMatrix) -> str:
    """Canonical file text for a matrix (exact round-trip)."""
    return "\n".join([f"matrix {m.rows} {m.cols} {m.field}", *_render_rows(m)]) + "\n"


def load_matrix(path) -> DenseMatrix:
    return parse_matrix(Path(path).read_text(encoding="utf-8-sig"))


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


def parse_factorization(text: str) -> Factorization:
    """Parse factor-file text back into a ``Factorization``, bit for bit."""
    cur = _Lines(text)
    line, toks = _expect_keyword(cur, "factor", (4,), "'factor <kind> <n> <field>', got {tokens} tokens")
    kind = toks[1][0]
    if kind not in FACTOR_NAMES:
        raise ParseError(line, f"kind {' or '.join(map(repr, FACTOR_NAMES))}, got {kind!r}", toks[1][1])
    n = _parse_int(toks[2][0], line, toks[2][1], "positive integer order")
    field = _parse_field(toks[3][0], line, toks[3][1])

    factors = {}
    for name in FACTOR_NAMES[kind]:
        _expect_keyword(cur, name)
        factors[name] = _wrap(_read_rows(cur, n, n, field, f"factor {name}"))

    _expect_keyword(cur, "provenance")

    line, toks = _expect_keyword(cur, "matrix-hash", (2, 3), "a hash value and its scheme")
    source_hash = toks[1][0]
    scheme = _LEGACY_HASH_SCHEME
    if len(toks) == 3:
        scheme, col = toks[2]
        if scheme != HASH_SCHEME:
            raise ParseError(line, f"hash scheme {HASH_SCHEME!r}, got {scheme!r}", col)

    line, toks = _expect_keyword(cur, "pivots", (n + 1,), f"{n} pivots, found {{values}}")
    pivots = tuple(
        _parse_complex(tok, line, col) if "," in tok else _parse_real(tok, line, col)
        for tok, col in toks[1:]
    )

    line, toks = _expect_keyword(cur, "flops", (2,), "a flop count")
    flops = _parse_int(toks[1][0], line, toks[1][1], "non-negative integer flop count", minimum=0)

    line, toks = _expect_keyword(cur, "symmetry-tol", (2,), "a tolerance or 'none'")
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
    return parse_factorization(Path(path).read_text(encoding="utf-8-sig"))


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
