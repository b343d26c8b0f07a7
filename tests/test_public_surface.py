"""The package surface: exported names resolve, each is declared once in its
module's `__all__`, the README quickstart runs and the README's command lines parse."""

import inspect
import re
import shlex
from pathlib import Path

import pytest

import portcut
from portcut import allocation, backtest, errors, ingest, market_graph, spectral, synthetic, tree
from portcut.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    assert len(portcut.__all__) == len(set(portcut.__all__))
    missing = [name for name in portcut.__all__ if not hasattr(portcut, name)]
    assert missing == []


REPUBLISHED = (allocation, backtest, errors, ingest, market_graph, spectral, synthetic, tree)
# Helpers a module keeps public for the rest of the package but out of `portcut`.
MODULE_ONLY = [
    (tree, "CutTreeNode"), (tree, "select_leaf"), (tree, "induced_subgraph"),
    (allocation, "ClusterWeights"), (allocation, "MAX_CONDITION"),
    (spectral, "BRUTE_FORCE_MAX_VERTICES"), (market_graph, "timestamp_sort_key"),
    (backtest, "STRATEGIES"),
]


# The package surface, written out here only: a name renamed, dropped or added in
# a republished module's `__all__` changes it and fails this test.
SURFACE = [
    "AllocationScheme", "BacktestConfig", "BacktestReport", "CovarianceMatrix", "CutObjective",
    "CutPolicy", "CutTree", "DegenerateAssetError", "DegenerateDegreeError",
    "DegenerateNormalizationError", "DegenerateVolumeError", "IngestReport",
    "InsufficientDataError", "InvalidInputError", "InvalidPartitionError", "LeafSelection",
    "MarketGraph", "MissingPolicy", "NumericalFailureError", "Partition", "PortfolioCutError",
    "PriceCsvSpec", "PriceMatrix", "ReturnsMatrix", "SingularCovarianceError", "SizeLimitError",
    "StrategyResult", "WeightVector", "__version__", "allocate", "asset_weights",
    "bipartition_count", "block_factor_market", "brute_force_min_cut", "build_cut_tree",
    "cut_value", "edge_budget_trace", "equal_weights", "fiedler_vector",
    "ingest_prices_with_report", "market_graph_from_covariance", "min_variance_weights",
    "objective_value", "partition_indicator", "rayleigh_quotient", "run_backtest",
    "sample_covariance", "simple_returns", "spectral_bisect",
]


def test_surface_is_the_pinned_list():
    assert len(SURFACE) == 49
    assert sorted(portcut.__all__) == SURFACE


@pytest.mark.parametrize("module", REPUBLISHED, ids=lambda module: module.__name__)
def test_each_name_is_defined_in_the_module_that_lists_it(module):
    for name in module.__all__:
        value = getattr(module, name)
        assert getattr(portcut, name) is value
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name


@pytest.mark.parametrize("module, name", MODULE_ONLY,
                         ids=[name for _, name in MODULE_ONLY])
def test_module_only_helpers_are_not_republished(module, name):
    assert hasattr(module, name)
    assert name not in module.__all__
    assert name not in portcut.__all__


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, "<README.md python block>", "exec"), {})
    # The quickstart ends by printing the cut strategy's Sharpe ratio.
    float(capsys.readouterr().out.split()[-1])


def test_readme_commands_parse():
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv[1:] for argv in commands if argv[:1] == ["portcut"]]
    assert commands, "README has no portcut command"
    for argv in commands:
        build_parser().parse_args(argv)
