import json

import numpy as np
import pytest

from portcut import (
    BacktestConfig,
    CutPolicy,
    InvalidInputError,
    StrategyKind,
    StrategySpec,
    WeightVector,
    block_factor_market,
    build_cut_tree,
    run_backtest,
)
from portcut.serialization import (
    canonical_json,
    report_to_dict,
    tree_from_dict,
    tree_to_dict,
    wealth_to_csv,
    wealth_to_svg,
    weights_to_csv,
    weights_to_dict,
)

from conftest import single_leaf_tree_doc


@pytest.fixture
def built_tree(nested_block_graph):
    return build_cut_tree(nested_block_graph, CutPolicy(max_cuts=3, min_leaf_size=1))


@pytest.fixture
def small_report():
    prices, _ = block_factor_market([3, 4], 30, seed=8)
    config = BacktestConfig(
        split_index=15,
        strategies=(StrategySpec(kind=StrategyKind.EW),
                    StrategySpec(kind=StrategyKind.MV)),
        mv_ridge=1e-8,
    )
    return run_backtest(prices, config)


class TestTreeDocument:
    def test_round_trip_identical(self, built_tree):
        doc = tree_to_dict(built_tree)
        text = canonical_json(doc)
        parsed = tree_from_dict(json.loads(text))
        assert parsed.k_performed == built_tree.k_performed
        assert parsed.leaf_ids == built_tree.leaf_ids
        assert parsed.objective == built_tree.objective
        assert parsed.asset_ids == built_tree.asset_ids
        for node_id, node in built_tree.nodes.items():
            other = parsed.nodes[node_id]
            assert other.members == node.members
            assert other.depth == node.depth
            assert other.children == node.children
            assert other.lambda2_at_split == node.lambda2_at_split

    def test_canonical_json_stable(self, built_tree):
        doc = tree_to_dict(built_tree)
        assert canonical_json(doc) == canonical_json(tree_to_dict(built_tree))
        assert canonical_json(doc).endswith("\n")

    def test_rejects_wrong_kind(self):
        with pytest.raises(InvalidInputError):
            tree_from_dict({"kind": "weights", "schema_version": 1})

    def test_rejects_wrong_schema_version(self, built_tree):
        doc = tree_to_dict(built_tree)
        doc["schema_version"] = 99
        with pytest.raises(InvalidInputError):
            tree_from_dict(doc)

    def test_rejects_leaves_not_partitioning(self, built_tree):
        doc = tree_to_dict(built_tree)
        doc["nodes"][-1]["members"] = doc["nodes"][-1]["members"][:-1]
        with pytest.raises(InvalidInputError):
            tree_from_dict(doc)

    def test_rejects_bad_leaf_count(self, built_tree):
        doc = tree_to_dict(built_tree)
        doc["k_performed"] = doc["k_performed"] + 1
        with pytest.raises(InvalidInputError):
            tree_from_dict(doc)


    def test_rejects_out_of_range_members(self):
        with pytest.raises(InvalidInputError, match="root members"):
            tree_from_dict(single_leaf_tree_doc([0, 1, 7], ["a", "b", "c"]))


class TestWeightsDocuments:
    def test_json_payload(self):
        wv = WeightVector(weights=np.array([0.25, 0.75]), scheme_tag="AS2")
        doc = weights_to_dict(("x", "y"), wv)
        assert doc["scheme"] == "AS2"
        assert doc["weights"] == [
            {"asset_id": "x", "weight": 0.25},
            {"asset_id": "y", "weight": 0.75},
        ]

    def test_csv_floats_round_trip(self):
        w = np.array([1.0 / 3.0, 2.0 / 3.0])
        wv = WeightVector(weights=w, scheme_tag="AS1")
        text = weights_to_csv(("x", "y"), wv)
        lines = text.strip().splitlines()
        parsed = [float(line.split(",")[1]) for line in lines[1:]]
        assert parsed[0] == w[0]
        assert parsed[1] == w[1]

    def test_length_mismatch(self):
        wv = WeightVector(weights=np.array([1.0]), scheme_tag="EW")
        with pytest.raises(InvalidInputError):
            weights_to_dict(("x", "y"), wv)


class TestReportDocuments:
    def test_report_dict_shape(self, small_report):
        doc = report_to_dict(small_report, manifest={"command": "backtest"})
        assert doc["kind"] == "backtest_report"
        assert set(doc["strategies"]) == {"ew", "mv"}
        ew = doc["strategies"]["ew"]
        assert ew["status"] == "ok"
        assert len(ew["wealth_curve"]) == len(doc["out_sample_dates"])
        assert ew["wealth_curve"][0] == 1.0
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_wealth_csv_layout(self, small_report):
        text = wealth_to_csv(small_report)
        lines = text.strip().splitlines()
        assert lines[0] == "date,ew,mv"
        assert len(lines) == 1 + len(small_report.out_sample_dates)
        first = lines[1].split(",")
        assert first[0] == small_report.out_sample_dates[0]
        assert float(first[1]) == 1.0

    def test_svg_emitted(self, small_report):
        svg = wealth_to_svg(small_report)
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "ew" in svg and "mv" in svg
