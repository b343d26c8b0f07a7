"""In-sample / out-sample evaluation of allocation strategies.

Weights are estimated once on the in-sample return window and held fixed
while the out-sample window compounds them into a wealth curve. Strategy
failures (e.g. a singular covariance for the min-variance baseline) are
recorded per strategy and never abort the others.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
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
    "StrategyKind",
    "StrategySpec",
    "BacktestConfig",
    "StrategyResult",
    "BacktestReport",
    "run_backtest",
    "portfolio_returns",
    "sharpe_ratio",
]


class StrategyKind(Enum):
    EW = "ew"
    MV = "mv"
    CUT = "cut"


@dataclass(frozen=True)
class StrategySpec:
    """One strategy to evaluate; CUT strategies carry objective, policy, scheme."""

    kind: StrategyKind
    objective: Optional[CutObjective] = None
    policy: Optional[CutPolicy] = None
    scheme: Optional[AllocationScheme] = None

    def __post_init__(self):
        if self.kind is StrategyKind.CUT:
            if self.objective is None or self.policy is None or self.scheme is None:
                raise InvalidInputError("CUT strategies need objective, policy and scheme")
        elif self.objective is not None or self.policy is not None or self.scheme is not None:
            raise InvalidInputError(f"{self.kind.value} takes no cut parameters")

    @property
    def label(self) -> str:
        if self.kind is StrategyKind.CUT:
            return f"{self.objective.value}-{self.scheme.value}"
        return self.kind.value


@dataclass(frozen=True)
class BacktestConfig:
    """Window split and strategy list for one backtest run.

    ``split_index`` counts return rows: in-sample returns are rows
    [0, split_index), out-sample rows [split_index, T). Both windows must
    hold at least 2 rows.
    """

    split_index: int
    strategies: Tuple[StrategySpec, ...]
    annualization_factor: float = 252.0
    mv_ridge: float = 0.0

    def __post_init__(self):
        if not self.strategies:
            raise InvalidInputError("no strategies requested")
        labels = [s.label for s in self.strategies]
        if len(set(labels)) != len(labels):
            raise InvalidInputError(f"duplicate strategy labels: {labels}")
        if not 0.0 < self.annualization_factor < np.inf:
            raise InvalidInputError("annualization_factor must be positive and finite")
        if not 0.0 <= self.mv_ridge < np.inf:
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
    if not 0.0 < annualization < np.inf:
        raise InvalidInputError("annualization must be positive and finite")
    std = float(x.std(ddof=1))
    if std == 0.0:
        raise DegenerateSeriesError("return series has zero variance")
    return float(np.sqrt(annualization) * x.mean() / std)


def run_backtest(prices: PriceMatrix, config: BacktestConfig) -> BacktestReport:
    """Estimate weights in-sample, hold them fixed, and compound out-sample.

    Per strategy, the wealth curve starts at 1 and multiplies by
    (1 + w . r(t)) for every out-sample return row; mean, standard deviation
    and Sharpe ratio describe the out-sample portfolio returns. Strategies
    with the same objective and cut policy share one cut tree. A strategy
    whose estimation fails, or whose out-sample wealth or statistics are not
    finite, is reported with its error and the rest proceed.
    """
    all_returns = simple_returns(prices)
    t_total = all_returns.n_periods
    t_star = config.split_index
    if not 2 <= t_star <= t_total - 2:
        raise InvalidInputError(
            f"split_index {t_star} leaves too little data (need 2 <= t* <= {t_total - 2})"
        )
    in_returns = ReturnsMatrix(all_returns.returns[:t_star], all_returns.asset_ids)
    out_returns = ReturnsMatrix(all_returns.returns[t_star:], all_returns.asset_ids)

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
    def cut_tree(objective, policy):
        return build_cut_tree(graph(), policy, objective)

    results = []
    for spec in config.strategies:
        try:
            if spec.kind is StrategyKind.EW:
                wv, meta = equal_weights(in_returns.n_assets), {}
            elif spec.kind is StrategyKind.MV:
                wv = min_variance_weights(sigma(), ridge=config.mv_ridge)
                meta = {"condition_estimate": wv.condition_estimate,
                        "ridge": config.mv_ridge}
            else:
                tree = cut_tree(spec.objective, spec.policy)
                wv = asset_weights(tree, allocate(tree, spec.scheme))
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
                    "out-sample wealth or return statistics are not finite")
        except PortfolioCutError as exc:
            results.append(StrategyResult(
                label=spec.label,
                error=str(exc),
                error_kind=type(exc).__name__,
            ))
            continue
        results.append(StrategyResult(
            label=spec.label,
            weights=wv,
            wealth_curve=wealth,
            mean_return=mean,
            std_return=std,
            sharpe=sharpe,
            sharpe_degenerate=degenerate,
            metadata=meta,
        ))

    out_dates = prices.timestamps[t_star:]
    return BacktestReport(
        results=tuple(results),
        split_index=t_star,
        annualization_factor=config.annualization_factor,
        asset_ids=all_returns.asset_ids,
        out_sample_dates=out_dates,
    )
