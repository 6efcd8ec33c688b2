"""The package's public names: each declared once, in its own module's ``__all__``."""

import ast
import importlib
import itertools
import subprocess
import sys
from pathlib import Path

import pytest

import factorkit

MODULES = ["elimination", "errors", "factorizations", "matio", "matrices", "workflow"]

PUBLIC = [
    "BenchResult",
    "CostReport",
    "DEFAULT_SYMMETRY_TOL",
    "DenseMatrix",
    "EliminationRecord",
    "FactorMismatchError",
    "Factorization",
    "KIND_GAUSS_CHOLESKY",
    "KIND_LU",
    "NoSolvesError",
    "NonSquareError",
    "NotSymmetricError",
    "ParseError",
    "Provenance",
    "ShapeError",
    "SolveReport",
    "SolveSession",
    "ZeroPivotError",
    "__version__",
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
]

# Public in their modules, but not re-exported by the package.
MODULE_ONLY = {
    "factorizations": ["FACTOR_NAMES", "from_record"],
    "matio": ["format_entry", "stale_factor_check"],
    "matrices": ["EPS", "HASH_SCHEME"],
    "workflow": ["DEFAULT_RESIDUAL_TOL", "METHOD_AUTO", "resolve_method"],
}


def _module(name):
    return importlib.import_module(f"factorkit.{name}")


def test_package_all_is_the_public_list():
    assert sorted(factorkit.__all__) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from factorkit import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC


def test_fresh_package_attributes_are_the_public_names_and_modules():
    # A fresh interpreter: importing factorkit.cli elsewhere in the suite binds ``cli`` on the package.
    src = str(Path(factorkit.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import factorkit; print(*sorted(vars(factorkit)))"
    names = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
    public = {name for name in names if not name.startswith("_")}
    assert public == set(PUBLIC) - {"__version__"} | set(MODULES)


def test_solving_loads_no_scipy():
    # numpy is the one declared dependency: the solves take LAPACK from numpy.linalg.
    src = str(Path(factorkit.__file__).parents[1])
    code = f"""import sys; sys.path.insert(0, {src!r})
import numpy as np
from factorkit import DenseMatrix, back_substitute, open_session, session_solve
a = DenseMatrix(np.eye(70) * 4 + 1)
s = open_session(a)
for side in range(2):  # the first solve, then a reuse
    session_solve(s, DenseMatrix(np.ones((70, 1))))
back_substitute(DenseMatrix(np.triu(a.data)), DenseMatrix(np.ones((70, 2))))
print(*sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))"""
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
    assert loaded == []


def test_package_init_lists_no_public_name():
    tree = ast.parse(Path(factorkit.__file__).read_text(encoding="utf-8"))
    strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert strings & set(PUBLIC) == {"__version__"}


def test_module_lists_are_pairwise_disjoint():
    for first, second in itertools.combinations(MODULES, 2):
        assert not set(_module(first).__all__) & set(_module(second).__all__), (first, second)


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_is_defined_in_its_module(name):
    module = _module(name)
    for public in module.__all__:
        assert public in vars(module)
        defined_in = getattr(vars(module)[public], "__module__", module.__name__)
        assert defined_in == module.__name__, public


@pytest.mark.parametrize("name", sorted(MODULE_ONLY))
def test_module_only_names_import_from_their_modules(name):
    module = _module(name)
    for public in MODULE_ONLY[name]:
        assert public in vars(module) and public not in module.__all__
        assert not hasattr(factorkit, public)
