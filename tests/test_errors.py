"""Every PortfolioCutError takes its message first and keeps its details as
attributes, so it survives pickle and copy with its text and fields."""

import copy
import pickle

import pytest

import portcut.errors
from portcut.errors import (
    DegenerateAssetError,
    DegenerateDegreeError,
    DegenerateNormalizationError,
    DegenerateVolumeError,
    InsufficientDataError,
    InvalidInputError,
    InvalidPartitionError,
    NumericalFailureError,
    PortfolioCutError,
    SingularCovarianceError,
    SizeLimitError,
)

# Each error type with the details its raisers pass.
DETAILS = [
    (PortfolioCutError, {}),
    (InvalidInputError, {}),
    (InsufficientDataError, {}),
    (DegenerateAssetError, {"asset_ids": ["a", "b"]}),
    (InvalidPartitionError, {}),
    (DegenerateVolumeError, {}),
    (DegenerateDegreeError, {"vertices": [2]}),
    (NumericalFailureError, {"diagnostics": {"n": 8, "objective": "cutn"}}),
    (SizeLimitError, {"n_vertices": 30, "candidate_count": 2 ** 29 - 1, "limit": 24}),
    (SingularCovarianceError, {"condition_estimate": 1e17}),
    (DegenerateNormalizationError, {}),
]


def test_every_error_type_is_covered():
    kinds = {value for value in vars(portcut.errors).values()
             if isinstance(value, type) and issubclass(value, PortfolioCutError)}
    assert {kind for kind, _ in DETAILS} == kinds


@pytest.mark.parametrize("kind, details", [pytest.param(*case, id=case[0].__name__)
                                           for case in DETAILS])
@pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy],
                         ids=["pickle", "copy"])
def test_round_trip_keeps_type_message_and_details(kind, details, clone):
    error = kind("something failed: [0, 1]", **details)
    assert vars(error) == details
    copied = clone(error)
    assert type(copied) is kind
    assert str(copied) == "something failed: [0, 1]"
    assert vars(copied) == details


def test_details_are_attributes_and_rebuild_the_error():
    error = SizeLimitError("too many", n_vertices=30, candidate_count=7, limit=24)
    assert (error.n_vertices, error.candidate_count, error.limit) == (30, 7, 24)
    rebuilt = type(error)(f"context: {error}", **vars(error))
    assert str(rebuilt) == "context: too many"
    assert vars(rebuilt) == vars(error)
