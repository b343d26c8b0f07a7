import dataclasses
import json

import numpy as np
import pytest

from portcut import (
    BacktestConfig,
    CutPolicy,
    InvalidInputError,
    NumericalFailureError,
    StrategyResult,
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

from conftest import (
    TREE_DOC_DEFECTS,
    WRITTEN_FIELD_DEFECTS,
    break_tree_doc,
    random_cut_tree,
    single_leaf_tree_doc,
    six_asset_tree_doc,
)


@pytest.fixture
def built_tree(nested_block_graph):
    return build_cut_tree(nested_block_graph, CutPolicy(max_cuts=3, min_leaf_size=1))


@pytest.fixture
def two_depth_doc(nested_block_graph):
    """Tree document with leaves at depths 1 and 2."""
    tree = build_cut_tree(nested_block_graph, CutPolicy(max_cuts=2, min_leaf_size=1))
    return tree_to_dict(tree)


@pytest.fixture
def small_report():
    prices, _ = block_factor_market([3, 4], 30, seed=8)
    config = BacktestConfig(
        split_index=15,
        strategies=("ew", "mv"),
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_canonical_json_rejects_non_finite(self, value):
        with pytest.raises(NumericalFailureError) as exc:
            canonical_json({"x": value})
        assert str(exc.value) == ("cannot emit JSON: Out of range float values are not "
                                  f"JSON compliant: {value!r}")
        assert exc.value.diagnostics == {}

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

    def test_rejects_tree_without_assets(self):
        with pytest.raises(InvalidInputError, match="at least one asset"):
            tree_from_dict(single_leaf_tree_doc([], []))

    @pytest.mark.parametrize("defect", TREE_DOC_DEFECTS)
    def test_rejects_documents_its_splits_do_not_rebuild(self, two_depth_doc, defect):
        tree_from_dict(two_depth_doc)
        with pytest.raises(InvalidInputError):
            tree_from_dict(break_tree_doc(two_depth_doc, defect))

    @pytest.mark.parametrize("defect", WRITTEN_FIELD_DEFECTS)
    def test_rejects_a_wrong_field_the_replay_does_not_read(self, defect):
        tree_from_dict(six_asset_tree_doc())
        with pytest.raises(InvalidInputError, match="disagree with the replayed splits"):
            tree_from_dict(six_asset_tree_doc(defect))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_tree_round_trip_equal(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_cut_tree(rng, int(rng.integers(2, 30)), int(rng.integers(0, 12)))
        assert tree_from_dict(tree_to_dict(tree)) == tree


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

    @pytest.mark.parametrize("emit", [weights_to_dict, weights_to_csv])
    def test_length_mismatch_named(self, emit):
        wv = WeightVector(weights=np.array([0.5, 0.5]), scheme_tag="EW")
        with pytest.raises(InvalidInputError, match=r"^3 asset ids for 2 weights$"):
            emit(("x", "y", "z"), wv)

    def test_numpy_asset_ids_written_as_text(self):
        wv = WeightVector(weights=np.array([0.5, 0.5]), scheme_tag="EW")
        ids = np.array(["x", "y"])
        assert weights_to_dict(ids, wv)["weights"][0] == {"asset_id": "x", "weight": 0.5}
        assert weights_to_csv(ids, wv) == "asset_id,weight\nx,0.5\ny,0.5\n"


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

    @pytest.mark.parametrize("emit, message", [
        (wealth_to_csv, "no successful strategies to emit"),
        (wealth_to_svg, "no successful strategies to plot"),
    ])
    def test_no_successful_strategy_rejected(self, small_report, emit, message):
        failed = dataclasses.replace(small_report, results=tuple(
            StrategyResult(label=res.label, error="failed", error_kind="NumericalFailureError")
            for res in small_report.results))
        with pytest.raises(InvalidInputError) as exc:
            emit(failed)
        assert str(exc.value) == message

    def test_plain_outputs_unchanged(self, small_report):
        assert wealth_to_svg(small_report).startswith(
            '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="420" ')
        assert weights_to_csv(("x", "y"), WeightVector(
            weights=np.array([0.5, 0.5]), scheme_tag="EW")) == "asset_id,weight\nx,0.5\ny,0.5\n"
