"""factorkit: dense direct solvers built on no-pivot Gauss elimination.

The library factors a square matrix once — as A = L U, or for symmetric
matrices (real or complex, no conjugation) as A = G^T G with G derived by
row-scaling the eliminated upper triangle — and then answers any number of
right-hand sides with two triangular substitutions each. Row exchanges are
never performed; a negligible pivot is an error, not a detour.
"""

# Each module's __all__ is the one list of its public names; the package re-exports them.
from . import elimination, errors, factorizations, matio, matrices, workflow
from .elimination import *
from .errors import *
from .factorizations import *
from .matio import *
from .matrices import *
from .workflow import *

__version__ = "0.1.0"

__all__ = [
    *elimination.__all__,
    *errors.__all__,
    *factorizations.__all__,
    *matio.__all__,
    *matrices.__all__,
    *workflow.__all__,
    "__version__",
]
