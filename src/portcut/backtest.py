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
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidInputError,
    NumericalFailureError,
    PortfolioCutError,
)
from .market_graph import (
    PriceMatrix,
    ReturnsMatrix,
    market_graph_from_covariance,
    sample_covariance,
    simple_returns,
)
from .spectral import CutObjective
from .tree import CutPolicy, build_cut_tree, edge_budget_trace, leaf_edge_budget

__all__ = [
    "STRATEGIES",
    "BacktestConfig",
    "StrategyResult",
    "BacktestReport",
    "run_backtest",
    "portfolio_returns",
    "sharpe_ratio",
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
        if not (isinstance(self.annualization_factor, numbers.Real)
                and 0.0 < self.annualization_factor < np.inf):
            raise InvalidInputError("annualization_factor must be positive and finite")
        if not (isinstance(self.mv_ridge, numbers.Real) and 0.0 <= self.mv_ridge < np.inf):
            raise InvalidInputError("mv_ridge must be nonnegative and finite")


@dataclass
class StrategyResult:
    """Outcome for one strategy: weights and out-sample statistics, or an error."""

    label: str
    weights: Optional[WeightVector] = None
    wealth_curve: Optional[np.ndarray] = None
    mean_return: Optional[float] = None
    std_return: Optional[float] = None
    sharpe: Optional[float] = None
    sharpe_degenerate: bool = False
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


def portfolio_returns(weights: WeightVector, returns: ReturnsMatrix) -> np.ndarray:
    """Per-period portfolio returns w . r(t)."""
    if weights.n_assets != returns.n_assets:
        raise InvalidInputError(
            f"{weights.n_assets} weights for {returns.n_assets} return columns"
        )
    return returns.returns @ weights.weights


def sharpe_ratio(series, annualization: float) -> float:
    """sqrt(annualization) * mean / sample std (divisor T-1) of a return series.

    Raises
    ------
    DegenerateSeriesError
        If the series has zero sample standard deviation.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InsufficientDataError("Sharpe ratio needs at least 2 observations")
    if not (isinstance(annualization, numbers.Real) and 0.0 < annualization < np.inf):
        raise InvalidInputError("annualization must be positive and finite")
    std = float(x.std(ddof=1))
    if std == 0.0:
        raise DegenerateSeriesError("return series has zero variance")
    return float(np.sqrt(annualization) * x.mean() / std)


def _return_windows(prices: PriceMatrix, split_index: int) -> Tuple[ReturnsMatrix, ReturnsMatrix]:
    """Return rows [0, split_index) and [split_index, T); each window needs at least 2."""
    returns = simple_returns(prices)
    if not 2 <= split_index <= returns.n_periods - 2:
        raise InvalidInputError(f"split_index {split_index} leaves too little data "
                                f"(need 2 <= t* <= {returns.n_periods - 2})")
    return (ReturnsMatrix(returns.returns[:split_index], returns.asset_ids),
            ReturnsMatrix(returns.returns[split_index:], returns.asset_ids))


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

    # Each in-sample estimate is computed at most once, on first use. Failures
    # are not cached: every strategy that needs a failing estimate reports the
    # same error.
    @functools.cache
    def sigma():
        return sample_covariance(in_returns)

    @functools.cache
    def graph():
        return market_graph_from_covariance(sigma(), asset_ids=in_returns.asset_ids)

    @functools.cache
    def cut_tree(objective):
        return build_cut_tree(graph(), config.policy, CutObjective(objective))

    results = []
    for label in config.strategies:
        try:
            if label == "ew":
                wv, meta = equal_weights(in_returns.n_assets), {}
            elif label == "mv":
                wv = min_variance_weights(sigma(), ridge=config.mv_ridge)
                meta = {"condition_estimate": wv.condition_estimate,
                        "ridge": config.mv_ridge}
            else:
                objective, scheme = label.split("-")
                tree = cut_tree(objective)
                wv = asset_weights(tree, allocate(tree, AllocationScheme(scheme)))
                meta = {
                    "k_performed": tree.k_performed,
                    "lambda2_trace": [node.lambda2_at_split for node in tree.splits()],
                    "leaf_edge_budget": leaf_edge_budget(tree),
                    "edge_budget_trace": edge_budget_trace(tree),
                    "leaf_sizes": [leaf.size for leaf in tree.leaves()],
                }
            # Overflow is checked below, so it fails this strategy only.
            with np.errstate(over="ignore", invalid="ignore"):
                port = portfolio_returns(wv, out_returns)
                wealth = np.empty(port.size + 1)
                wealth[0] = 1.0
                np.cumprod(1.0 + port, out=wealth[1:])
                mean, std = float(port.mean()), float(port.std(ddof=1))
                try:
                    sharpe, degenerate = sharpe_ratio(port, config.annualization_factor), False
                except DegenerateSeriesError:
                    sharpe, degenerate = None, True
            if not (np.isfinite(wealth).all() and np.isfinite([mean, std, sharpe or 0.0]).all()):
                raise NumericalFailureError(
                    "out-sample wealth or return statistics are not finite", diagnostics={})
        except PortfolioCutError as exc:
            results.append(StrategyResult(
                label=label,
                error=str(exc),
                error_kind=type(exc).__name__,
            ))
            continue
        results.append(StrategyResult(
            label=label,
            weights=wv,
            wealth_curve=wealth,
            mean_return=mean,
            std_return=std,
            sharpe=sharpe,
            sharpe_degenerate=degenerate,
            metadata=meta,
        ))

    return BacktestReport(
        results=tuple(results),
        split_index=config.split_index,
        annualization_factor=config.annualization_factor,
        asset_ids=in_returns.asset_ids,
        out_sample_dates=prices.timestamps[config.split_index:],
    )
