"""In-sample / out-sample evaluation of allocation strategies.

Weights are estimated once on the in-sample return window and held fixed
while the out-sample window compounds them into a wealth curve. Strategy
failures (e.g. a singular covariance for the min-variance baseline) are
recorded per strategy and never abort the others.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .allocation import (
    AllocationScheme,
    WeightVector,
    allocate,
    asset_weights,
    equal_weights,
    min_variance_weights,
)
from .errors import (
    InsufficientDataError,
    InvalidInputError,
    NumericalFailureError,
    PortfolioCutError,
)
from .market_graph import (
    PriceMatrix,
    ReturnsMatrix,
    _real,
    market_graph_from_covariance,
    sample_covariance,
    simple_returns,
)
from .spectral import CutObjective
from .tree import CutPolicy, build_cut_tree, edge_budget_trace

__all__ = [
    "STRATEGIES",
    "BacktestConfig",
    "StrategyResult",
    "BacktestReport",
    "run_backtest",
]


# Every strategy label; the CLI runs and lists strategies in this order.
STRATEGIES = ("ew", "mv") + tuple(
    f"{o.value}-{s.value}" for o in CutObjective for s in AllocationScheme)


@dataclass(frozen=True)
class BacktestConfig:
    """Window split, strategy labels and cut policy for one backtest run.

    ``split_index`` counts return rows: in-sample returns are rows
    [0, split_index), out-sample rows [split_index, T). Both windows must
    hold at least 2 rows. ``strategies`` holds labels from ``STRATEGIES``;
    every cut strategy builds its tree under ``policy``.
    """

    split_index: int
    strategies: Tuple[str, ...]
    policy: CutPolicy = CutPolicy(max_cuts=1)
    annualization_factor: float = 252.0
    mv_ridge: float = 0.0

    def __post_init__(self):
        if not isinstance(self.split_index, numbers.Integral):
            raise InvalidInputError("split_index must be an integer")
        if not self.strategies:
            raise InvalidInputError("no strategies requested")
        unknown = [label for label in self.strategies if label not in STRATEGIES]
        if unknown:
            raise InvalidInputError(f"unknown strategies {unknown}; choose from {STRATEGIES}")
        if len(set(self.strategies)) != len(self.strategies):
            raise InvalidInputError(f"duplicate strategy labels: {list(self.strategies)}")
        if not isinstance(self.policy, CutPolicy):
            raise InvalidInputError("policy must be a CutPolicy")
        factor, ridge = _real(self.annualization_factor), _real(self.mv_ridge)
        if not 0.0 < factor < np.inf:
            raise InvalidInputError("annualization_factor must be positive and finite")
        if not 0.0 <= ridge < np.inf:
            raise InvalidInputError("mv_ridge must be nonnegative and finite")
        object.__setattr__(self, "annualization_factor", factor)
        object.__setattr__(self, "mv_ridge", ridge)


@dataclass
class StrategyResult:
    """Outcome for one strategy: weights and out-sample statistics, or an error."""

    label: str
    weights: Optional[WeightVector] = None
    wealth_curve: Optional[np.ndarray] = None
    mean_return: Optional[float] = None
    std_return: Optional[float] = None
    sharpe: Optional[float] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None
    metadata: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BacktestReport:
    """All strategy results plus the shared run context."""

    results: Tuple[StrategyResult, ...]
    split_index: int
    annualization_factor: float
    asset_ids: Tuple[str, ...]
    out_sample_dates: Tuple[str, ...]

    def result(self, label: str) -> StrategyResult:
        for res in self.results:
            if res.label == label:
                return res
        raise KeyError(label)


def _moments(series: np.ndarray, annualization: float):
    """``(mean, std, sharpe)`` of a return series; ``sharpe`` is None when ``std`` is 0."""
    mean, std = float(series.mean()), float(series.std(ddof=1))
    return mean, std, float(np.sqrt(annualization) * mean / std) if std != 0.0 else None


def _return_windows(prices: PriceMatrix, split_index: Optional[int]):
    """Return rows [0, split_index) and [split_index, T); each window needs at least 2.

    With no ``split_index`` every return row is in-sample, and the out-sample window is None.
    """
    returns = simple_returns(prices)
    if split_index is None:
        if returns.n_periods < 2:
            raise InsufficientDataError("need at least 2 return rows for a sample covariance")
        return returns, None
    if not 2 <= split_index <= returns.n_periods - 2:
        raise InvalidInputError(f"split_index {split_index} leaves too little data "
                                f"(need 2 <= t* <= {returns.n_periods - 2})")
    return (ReturnsMatrix(returns.returns[:split_index], returns.asset_ids),
            ReturnsMatrix(returns.returns[split_index:], returns.asset_ids))


def _in_sample_estimates(in_returns: ReturnsMatrix, policy: CutPolicy):
    """``(sigma, cut_tree)``: the covariance of ``in_returns`` and its cut tree per objective.

    Each estimate, and the market graph between them, is computed at most once, on first
    use. Failures are not cached: every caller that needs a failing estimate gets its error.
    """
    sigma = functools.cache(lambda: sample_covariance(in_returns))
    graph = functools.cache(
        lambda: market_graph_from_covariance(sigma(), asset_ids=in_returns.asset_ids))
    cut_tree = functools.cache(
        lambda objective: build_cut_tree(graph(), policy, CutObjective(objective)))
    return sigma, cut_tree


def run_backtest(prices: PriceMatrix, config: BacktestConfig) -> BacktestReport:
    """Estimate weights in-sample, hold them fixed, and compound out-sample.

    Per strategy, the wealth curve starts at 1 and multiplies by
    (1 + w . r(t)) for every out-sample return row; mean, standard deviation
    and Sharpe ratio describe the out-sample portfolio returns. Cut
    strategies with the same objective share one cut tree. A strategy
    whose estimation fails, or whose out-sample wealth or statistics are not
    finite, is reported with its error and the rest proceed.
    """
    in_returns, out_returns = _return_windows(prices, config.split_index)
    return _run_backtest(in_returns, out_returns, prices.timestamps[config.split_index:], config)


def _run_backtest(in_returns: ReturnsMatrix, out_returns: ReturnsMatrix,
                  out_sample_dates: Tuple[str, ...], config: BacktestConfig) -> BacktestReport:
    """`run_backtest` on return windows already taken; ``out_sample_dates`` label the wealth."""
    sigma, cut_tree = _in_sample_estimates(in_returns, config.policy)
    results = []
    for label in config.strategies:
        try:
            if label == "ew":
                wv, meta = equal_weights(in_returns.n_assets), {}
            elif label == "mv":
                wv = min_variance_weights(sigma(), ridge=config.mv_ridge)
                meta = {"condition_estimate": wv.condition_estimate, "ridge": config.mv_ridge}
            else:
                objective, scheme = label.split("-")
                tree = cut_tree(objective)
                wv = asset_weights(tree, allocate(tree, AllocationScheme(scheme)))
                trace = edge_budget_trace(tree)
                meta = {
                    "k_performed": tree.k_performed,
                    "lambda2_trace": [node.lambda2_at_split for node in tree.splits()],
                    "leaf_edge_budget": trace[-1],
                    "edge_budget_trace": trace,
                    "leaf_sizes": [leaf.size for leaf in tree.leaves()],
                }
            # Overflow is checked below, so it fails this strategy only.
            with np.errstate(over="ignore", invalid="ignore"):
                port = out_returns.returns @ wv.weights
                wealth = np.empty(port.size + 1)
                wealth[0] = 1.0
                np.cumprod(1.0 + port, out=wealth[1:])
                mean, std, sharpe = _moments(port, config.annualization_factor)
            if not (np.isfinite(wealth).all() and np.isfinite([mean, std, sharpe or 0.0]).all()):
                raise NumericalFailureError(
                    "out-sample wealth or return statistics are not finite", diagnostics={})
        except PortfolioCutError as exc:
            results.append(StrategyResult(label=label, error=str(exc),
                                          error_kind=type(exc).__name__))
            continue
        results.append(StrategyResult(
            label=label, weights=wv, wealth_curve=wealth, mean_return=mean, std_return=std,
            sharpe=sharpe, metadata=meta))
    return BacktestReport(results=tuple(results), split_index=config.split_index,
                          annualization_factor=config.annualization_factor,
                          asset_ids=in_returns.asset_ids, out_sample_dates=out_sample_dates)
