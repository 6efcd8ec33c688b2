"""Command-line front end: factor, solve, check, and bench subcommands.

Exit codes: 0 on success, 1 for usage problems and unreadable or malformed
input files, 2 for numerical failures (zero pivot, non-symmetric input to a
symmetric method, a right-hand side that overflows). Results go to stdout,
diagnostics to stderr; identical inputs give byte-identical output. A finite
non-negative FACTORKIT_TOL overrides the symmetry and residual tolerances.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings

import numpy as np

from .elimination import gauss_eliminate
from .errors import NotSymmetricError, ZeroPivotError
from .factorizations import KIND_GAUSS_CHOLESKY, KIND_LU, _require_order, _substitute_factors, from_record, verify
from .matio import load_factorization, load_matrix, save_factorization, stale_factor_check
from .matrices import DEFAULT_SYMMETRY_TOL, residual_norm
from .workflow import DEFAULT_RESIDUAL_TOL, METHOD_AUTO, cost_report, open_session, resolve_method
from .workflow import run_bench, session_solve

__all__ = ["cli_main", "main"]


def _display_real(x: float, digits: int | None) -> str:
    if digits is not None:
        return f"{x:.{digits}g}"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _display(value, digits: int | None = None) -> str:
    if isinstance(value, (complex, np.complexfloating)):
        return f"{_display_real(float(value.real), digits)},{_display_real(float(value.imag), digits)}"
    return _display_real(float(value), digits)


def _solution_line(column, digits: int | None) -> str:
    return " ".join(_display(v, digits) for v in column.data[:, 0])


def _tolerances() -> tuple[float, float]:
    raw = os.environ.get("FACTORKIT_TOL")
    if raw is None:
        return DEFAULT_SYMMETRY_TOL, DEFAULT_RESIDUAL_TOL
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"FACTORKIT_TOL must be a finite non-negative number, got {raw!r}")
    return value, value


def _cmd_factor(args) -> int:
    symmetry_tol, _ = _tolerances()
    a = load_matrix(args.input)
    method = resolve_method(a, args.method, symmetry_tol)
    f = from_record(gauss_eliminate(a, symmetric=method == KIND_GAUSS_CHOLESKY), method, symmetry_tol)
    error = verify(f, a)
    save_factorization(args.output, f)
    print(f"kind {f.kind}")
    print(f"n {f.n}")
    print("pivots " + " ".join(_display(p, args.digits) for p in f.provenance.pivots))
    print(f"reconstruction-error {_display(error, args.digits)}")
    print(f"wrote {args.output}")
    return 0


def _cmd_solve(args) -> int:
    symmetry_tol, residual_tol = _tolerances()
    b = load_matrix(args.rhs)

    if args.factor is not None:
        f = load_factorization(args.factor)
        a = load_matrix(args.matrix) if args.matrix else None
        if a is not None:  # --force skips the hash check, not the size check
            (_require_order if args.force else stale_factor_check)(f, a)
        solutions, _ = _substitute_factors(f, b)  # no product: residuals only against --matrix
        print(f"method {f.kind}")
        for j in range(b.cols):
            print(_solution_line(solutions.column(j), args.digits))
            if a is not None:
                r = residual_norm(a, solutions.column(j), b.column(j))
                print(f"residual {_display(r, args.digits)}")
        return 0

    if args.matrix is None:
        print("error: solve needs --factor or --matrix", file=sys.stderr)
        return 1
    a = load_matrix(args.matrix)
    session = open_session(a, args.method, symmetry_tol=symmetry_tol, residual_tol=residual_tol)
    print(f"method {session.method}")
    for j in range(b.cols):
        # The library's warnings become fixed-text diagnostics, whatever the warning filters or install path.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = session_solve(session, b.column(j))
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        print(_solution_line(report.solutions, args.digits))
        print(f"residual {_display(report.residuals[0], args.digits)}")
    costs = cost_report(session)
    print(f"flops first {costs.first_flops}")
    print(f"flops reuse-per-rhs {costs.reuse_flops_per_rhs}")
    print(f"flops total {costs.total_flops}")
    return 0


def _cmd_check(args) -> int:
    symmetry_tol, _ = _tolerances()
    a = load_matrix(args.input)
    print(f"rows {a.rows}")
    print(f"cols {a.cols}")
    print(f"square {'true' if a.is_square else 'false'}")
    if not a.is_square:
        return 2
    deviation, (i, j) = a.symmetry_deviation()
    symmetric = a.is_symmetric(symmetry_tol)
    print(f"symmetric {'true' if symmetric else 'false'} (max deviation {_display(deviation)} at ({i},{j}))")
    try:
        record = gauss_eliminate(a, symmetric=symmetric)
    except ZeroPivotError as exc:
        print(f"elimination fails in column {exc.index}: {exc}")
        return 2
    print("pivots " + " ".join(_display(p) for p in record.pivots))
    return 0


def _cmd_bench(args) -> int:
    result = run_bench(args.n, args.rhs_count)
    print(f"bench n={result.n} rhs={result.rhs_count} method={result.method}")
    table = [
        ("factor flops", result.factor_flops),
        ("solve flops per rhs", result.reuse_flops_per_rhs),
        ("factor+solve total", result.reuse_total),
        ("elimination flops per rhs", result.elimination_flops_per_rhs),
        ("elimination total", result.elimination_total),
    ]
    for label, value in table:
        print(f"{label:<28}{value:>14}")
    print(f"{'flop ratio':<28}{result.flop_ratio:>14.4f}")
    return 0


def _digits(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    try:
        f"{0.0:.{value}g}"  # the formatter's own limit, met here rather than mid-output
    except ValueError:
        raise argparse.ArgumentTypeError(f"floats cannot be formatted with {text} digits") from None
    return value


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1 (argparse defaults to 2, which we reserve for
    # numerical failures).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Built once: parse_args leaves the parser as it found it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="factorkit", description="Dense direct solvers with factorization reuse.")
    sub = parser.add_subparsers(dest="command", required=True)

    factor = sub.add_parser("factor", help="factor a matrix and persist the factors")
    factor.add_argument("--input", required=True, help="matrix file to factor")
    factor.add_argument("--method", choices=[KIND_LU, KIND_GAUSS_CHOLESKY, METHOD_AUTO], default=METHOD_AUTO)
    factor.add_argument("--output", required=True, help="factor file to write")
    factor.add_argument("--digits", type=_digits, default=None, help="significant digits for printed values")
    factor.set_defaults(func=_cmd_factor)

    slv = sub.add_parser("solve", help="solve one or many right-hand sides")
    slv.add_argument("--factor", default=None, help="use a persisted factor file")
    slv.add_argument("--matrix", default=None, help="matrix file (session mode, or residuals with --factor)")
    slv.add_argument("--rhs", required=True, help="right-hand side matrix file (columns are solved independently)")
    slv.add_argument("--method", choices=[KIND_LU, KIND_GAUSS_CHOLESKY, METHOD_AUTO], default=METHOD_AUTO)
    slv.add_argument("--force", action="store_true", help="skip the stale-factor hash check")
    slv.add_argument("--digits", type=_digits, default=None)
    slv.set_defaults(func=_cmd_solve)

    chk = sub.add_parser("check", help="report squareness, symmetry, and the pivot sequence")
    chk.add_argument("--input", required=True)
    chk.set_defaults(func=_cmd_check)

    bench = sub.add_parser("bench", help="compare reuse flops against repeated eliminations")
    bench.add_argument("--n", type=int, default=50)
    bench.add_argument("--rhs-count", type=int, default=10)
    bench.set_defaults(func=_cmd_bench)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except (ZeroPivotError, NotSymmetricError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # malformed input must never escape as a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
