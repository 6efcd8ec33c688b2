"""Every factorkit error keeps its message and survives pickle and copy as itself."""

import copy
import pickle

import pytest

import factorkit.errors
from factorkit import (
    FactorMismatchError,
    NonSquareError,
    NoSolvesError,
    NotSymmetricError,
    ParseError,
    ShapeError,
    ZeroPivotError,
)

# Each error class with the message it has always printed; stderr carries these bytes.
MESSAGES = [
    (ShapeError("operands do not conform"), "operands do not conform"),
    (NonSquareError(2, 3), "expected a square matrix, got 2x3"),
    (
        NotSymmetricError(0.5, (1, 2), 1e-12),
        "matrix is not symmetric: |a[1,2] - a[2,1]| = 5.000000e-01 exceeds 1.000000e-12",
    ),
    (
        ZeroPivotError("column", 1, 0.0, 4.4e-16),
        "zero pivot in column 1: |pivot| = 0.000000e+00 <= threshold 4.400000e-16",
    ),
    (
        ZeroPivotError("row", 2, complex(3e-20, -4e-20), 1e-16),
        "zero pivot in row 2: |pivot| = 5.000000e-20 <= threshold 1.000000e-16",
    ),
    (ParseError(3, "a real number, got 'x'", 5), "line 3, column 5: expected a real number, got 'x'"),
    (ParseError(7, "end of file after provenance"), "line 7: expected end of file after provenance"),
    (
        FactorMismatchError("0123456789abcdef", "fedcba9876543210"),
        "factorization was computed from matrix 0123456789abcdef, "
        "but the supplied matrix hashes to fedcba9876543210",
    ),
    (NoSolvesError(), "no solves performed on this session yet"),
    (
        ZeroPivotError("column", 2, float("-inf"), 4.4e284),
        "non-finite pivot in column 2: the elimination overflowed",
    ),
    (
        ZeroPivotError("column", 3, complex(float("inf"), 1.0), 1e-16),
        "non-finite pivot in column 3: the elimination overflowed",
    ),
    (  # finite parts whose modulus overflows, which abs() refuses
        ZeroPivotError("column", 1, complex(1.7976931348623157e308, 1.7976931348623157e308), 1e-16),
        "non-finite pivot in column 1: the elimination overflowed",
    ),
    (  # a substitution's diagonal entry, where no elimination ran
        ZeroPivotError("row", 2, complex(1.5e308, 1.5e308), 8e292),
        "non-finite pivot in row 2: its modulus is not finite",
    ),
]
IDS = [f"{type(e).__name__}-{i}" for i, (e, _) in enumerate(MESSAGES)]


def _pickled(error):
    return pickle.loads(pickle.dumps(error))


def test_every_exported_error_class_is_covered():
    assert {type(e).__name__ for e, _ in MESSAGES} == set(factorkit.errors.__all__)


@pytest.mark.parametrize("error, message", MESSAGES, ids=IDS)
def test_message(error, message):
    assert str(error) == message


@pytest.mark.parametrize("clone", [copy.copy, _pickled], ids=["copy", "pickle"])
@pytest.mark.parametrize("error", [e for e, _ in MESSAGES], ids=IDS)
def test_round_trip_keeps_type_fields_and_message(error, clone):
    twin = clone(error)
    assert type(twin) is type(error)
    assert vars(twin) == vars(error)
    assert str(twin) == str(error)

