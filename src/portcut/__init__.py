"""portcut: correlation market graphs, spectral portfolio cuts, allocation, backtests.

Pipeline: prices -> returns -> covariance -> |correlation| market graph ->
repeated spectral bisection (cut tree) -> hierarchical capital weights ->
in/out-sample backtest against equal-weight and minimum-variance baselines.
"""

from .allocation import (
    AllocationScheme,
    WeightVector,
    allocate,
    asset_weights,
    equal_weights,
    min_variance_weights,
)
from .backtest import (
    BacktestConfig,
    BacktestReport,
    StrategyKind,
    StrategyResult,
    StrategySpec,
    run_backtest,
    sharpe_ratio,
)
from .errors import (
    DegenerateAssetError,
    DegenerateDegreeError,
    DegenerateNormalizationError,
    DegenerateSeriesError,
    DegenerateVolumeError,
    InsufficientDataError,
    InvalidInputError,
    InvalidPartitionError,
    NumericalFailureError,
    PortfolioCutError,
    SingularCovarianceError,
    SizeLimitError,
)
from .ingest import (
    IngestReport,
    MissingPolicy,
    PriceCsvSpec,
    ingest_prices_with_report,
)
from .market_graph import (
    CovarianceMatrix,
    MarketGraph,
    PriceMatrix,
    ReturnsMatrix,
    market_graph_from_covariance,
    market_graph_from_weights,
    sample_covariance,
    simple_returns,
)
from .spectral import (
    CutObjective,
    Partition,
    bipartition_count,
    brute_force_min_cut,
    cut_value,
    fiedler_vector,
    objective_value,
    partition_indicator,
    rayleigh_quotient,
    spectral_bisect,
)
from .synthetic import block_factor_market
from .tree import (
    CutPolicy,
    CutTree,
    LeafSelection,
    build_cut_tree,
    edge_budget_trace,
    leaf_edge_budget,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # market graph
    "PriceMatrix", "ReturnsMatrix", "CovarianceMatrix", "MarketGraph",
    "simple_returns", "sample_covariance",
    "market_graph_from_covariance", "market_graph_from_weights",
    # spectral cuts
    "CutObjective", "Partition", "cut_value", "objective_value",
    "rayleigh_quotient", "partition_indicator", "fiedler_vector",
    "spectral_bisect", "brute_force_min_cut", "bipartition_count",
    # trees
    "LeafSelection", "CutPolicy", "CutTree", "build_cut_tree",
    "leaf_edge_budget", "edge_budget_trace",
    # allocation
    "AllocationScheme", "WeightVector", "allocate", "asset_weights",
    "equal_weights", "min_variance_weights",
    # backtest
    "StrategyKind", "StrategySpec", "BacktestConfig", "StrategyResult",
    "BacktestReport", "run_backtest", "sharpe_ratio",
    # ingestion & synthetic data
    "MissingPolicy", "PriceCsvSpec", "IngestReport",
    "ingest_prices_with_report", "block_factor_market",
    # errors
    "PortfolioCutError", "InvalidInputError", "InsufficientDataError",
    "DegenerateAssetError", "InvalidPartitionError", "DegenerateVolumeError",
    "DegenerateDegreeError", "NumericalFailureError", "SizeLimitError",
    "SingularCovarianceError", "DegenerateNormalizationError",
    "DegenerateSeriesError",
]
