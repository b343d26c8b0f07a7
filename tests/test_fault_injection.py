"""Fault injection: every external numeric call in `src/` fails as a named error.

Each cell puts NaN or inf into one result of a LAPACK or `numpy.linalg` call, or
makes the call raise `LinAlgError`, and checks the error type and the stage its
message names in three places: the library function that makes the call, the
`cut` command (exit 2 with one JSON line, or exit 0 where `cut` never makes the
call), and the strategies of a `backtest` report that depend on it.
"""

import json

import numpy as np
import pytest
import scipy.linalg

import portcut.allocation as allocation
from portcut import (
    CutObjective,
    NumericalFailureError,
    SingularCovarianceError,
    block_factor_market,
    fiedler_vector,
    market_graph_from_covariance,
    min_variance_weights,
    sample_covariance,
    simple_returns,
)
from portcut.backtest import STRATEGIES
from portcut.cli import main

from conftest import write_prices_csv

PRICES = block_factor_market((10, 8, 6), 400, seed=5)[0]
SIGMA = sample_covariance(simple_returns(PRICES))
TREE_STRATEGIES = [label for label in STRATEGIES if label not in ("ew", "mv")]


def _eigh(out, value):
    out[1][0, 1] = value  # an entry of the second eigenvector
    return out


def _cho_factor(out, value):
    out[0][0, 0] = value
    return out


def _cho_solve(out, value):
    out[0] = value
    return out


# name: (owner, attribute, how a value enters the result, library call, strategies using it)
TARGETS = {
    "eigh": (scipy.linalg, "eigh", _eigh,
             lambda: fiedler_vector(market_graph_from_covariance(SIGMA),
                                    CutObjective.NORMALIZED), TREE_STRATEGIES),
    "cho_factor": (allocation, "cho_factor", _cho_factor,
                   lambda: min_variance_weights(SIGMA), ["mv"]),
    "cho_solve": (allocation, "cho_solve", _cho_solve,
                  lambda: min_variance_weights(SIGMA), ["mv"]),
    "cond": (np.linalg, "cond", lambda out, value: value,
             lambda: min_variance_weights(SIGMA), ["mv"]),
}

# (target, fault): the error type, and the stage its message names.
LINALG = np.linalg.LinAlgError
EXPECTED = {
    ("eigh", np.nan): (NumericalFailureError, "eigenpair residual is NaN"),
    ("eigh", np.inf): (NumericalFailureError, "eigenpair residual"),
    ("eigh", LINALG): (NumericalFailureError, "eigensolver failed"),
    ("cho_factor", np.nan): (NumericalFailureError, "Cholesky solve backward error is NaN"),
    ("cho_factor", np.inf): (NumericalFailureError, "Cholesky solve backward error"),
    ("cho_factor", LINALG): (SingularCovarianceError, "Cholesky factorization failed"),
    ("cho_solve", np.nan): (NumericalFailureError, "Cholesky solve backward error is NaN"),
    ("cho_solve", np.inf): (NumericalFailureError, "Cholesky solve backward error"),
    ("cho_solve", LINALG): (NumericalFailureError, "Cholesky solve failed"),
    ("cond", np.nan): (SingularCovarianceError, "condition estimate is NaN"),
    ("cond", np.inf): (SingularCovarianceError, "condition estimate inf > 1e+12"),
    ("cond", LINALG): (NumericalFailureError, "condition estimate failed"),
}


@pytest.fixture
def injected(request, monkeypatch):
    """Install the cell's fault; return the library call, the strategies that depend on
    it, and the expected error type and stage."""
    name, fault = request.param
    owner, attribute, poison, call, strategies = TARGETS[name]
    real = getattr(owner, attribute)

    def faulty(*args, **kwargs):
        if fault is LINALG:
            raise LINALG("injected failure")
        return poison(real(*args, **kwargs), fault)

    monkeypatch.setattr(owner, attribute, faulty)
    return (call, strategies, *EXPECTED[name, fault])


CELLS = pytest.mark.parametrize(
    "injected", list(EXPECTED),
    ids=[f"{name}-{getattr(fault, '__name__', fault)}" for name, fault in EXPECTED],
    indirect=True)


@CELLS
def test_library_call_names_the_stage(injected):
    call, _, kind, stage = injected
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind
    assert stage in str(exc.value)
    if kind is NumericalFailureError:
        assert isinstance(exc.value.diagnostics, dict) and exc.value.diagnostics


@CELLS
def test_cut_exits_2_with_one_json_line(injected, tmp_path, monkeypatch, capsys):
    _, strategies, kind, stage = injected
    monkeypatch.chdir(tmp_path)
    write_prices_csv(tmp_path / "prices.csv", PRICES)
    code = main(["cut", "prices.csv", "-o", "tree.json"])
    err = capsys.readouterr().err
    if strategies == ["mv"]:  # `cut` builds no min-variance portfolio
        assert (code, err) == (0, "")
        return
    assert code == 2
    assert err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == kind.__name__
    assert stage in error["message"]
    assert not (tmp_path / "tree.json").exists()


@CELLS
def test_backtest_reports_the_kind_per_strategy(injected, tmp_path, monkeypatch):
    _, strategies, kind, stage = injected
    monkeypatch.chdir(tmp_path)
    write_prices_csv(tmp_path / "prices.csv", PRICES)
    assert main(["backtest", "prices.csv", "--split-index", "200", "-o", "report.json"]) == 0
    entries = json.loads((tmp_path / "report.json").read_text())["strategies"]
    assert set(entries) == set(STRATEGIES)
    for label, entry in entries.items():
        if label in strategies:
            assert entry["status"] == "error"
            assert entry["error_kind"] == kind.__name__
            assert stage in entry["error"]
        else:
            assert entry["status"] == "ok"
