"""factorkit: dense direct solvers built on no-pivot Gauss elimination.

The library factors a square matrix once — as A = L U, or for symmetric
matrices (real or complex, no conjugation) as A = G^T G with G derived by
row-scaling the eliminated upper triangle — and then answers any number of
right-hand sides with two triangular substitutions each. Row exchanges are
never performed; a negligible pivot is an error, not a detour.
"""

from .elimination import EliminationRecord, back_substitute, forward_substitute, gauss_eliminate
from .errors import (
    FactorMismatchError,
    NonSquareError,
    NoSolvesError,
    NotSymmetricError,
    ParseError,
    ShapeError,
    ZeroPivotError,
)
from .factorizations import (
    KIND_GAUSS_CHOLESKY,
    KIND_LU,
    Factorization,
    Provenance,
    SolveReport,
    gauss_cholesky,
    gauss_cholesky_from_record,
    lu_from_record,
    solve,
    verify,
)
from .matio import (
    load_factorization,
    load_matrix,
    parse_factorization,
    parse_matrix,
    render_factorization,
    render_matrix,
    save_factorization,
    save_matrix,
)
from .matrices import (
    DEFAULT_SYMMETRY_TOL,
    DenseMatrix,
    Scalar,
    matrix_hash,
    principal_sqrt,
    residual_norm,
    transpose,
    vector,
)
from .workflow import (
    BenchResult,
    CostReport,
    SolveSession,
    cost_report,
    open_session,
    run_bench,
    session_solve,
)

__version__ = "0.1.0"

__all__ = [
    "BenchResult",
    "CostReport",
    "DEFAULT_SYMMETRY_TOL",
    "DenseMatrix",
    "EliminationRecord",
    "Factorization",
    "FactorMismatchError",
    "KIND_GAUSS_CHOLESKY",
    "KIND_LU",
    "NonSquareError",
    "NoSolvesError",
    "NotSymmetricError",
    "ParseError",
    "Provenance",
    "Scalar",
    "ShapeError",
    "SolveReport",
    "SolveSession",
    "ZeroPivotError",
    "back_substitute",
    "cost_report",
    "forward_substitute",
    "gauss_cholesky",
    "gauss_cholesky_from_record",
    "gauss_eliminate",
    "load_factorization",
    "load_matrix",
    "lu_from_record",
    "matrix_hash",
    "open_session",
    "parse_factorization",
    "parse_matrix",
    "principal_sqrt",
    "render_factorization",
    "render_matrix",
    "residual_norm",
    "run_bench",
    "save_factorization",
    "save_matrix",
    "session_solve",
    "solve",
    "transpose",
    "vector",
    "verify",
    "__version__",
]
