import dataclasses
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portcut import (
    BacktestConfig,
    BacktestReport,
    CutPolicy,
    InvalidInputError,
    NumericalFailureError,
    PortfolioCutError,
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
    BOOL_FIELD_DEFECTS,
    TREE_DOC_DEFECTS,
    WRITTEN_FIELD_DEFECTS,
    bool_field_tree_doc,
    break_tree_doc,
    random_cut_tree,
    reference_canonical_json,
    reference_wealth_to_csv,
    reference_wealth_to_svg,
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

    @pytest.mark.parametrize("defect", BOOL_FIELD_DEFECTS)
    def test_rejects_a_bool_where_an_int_is_written(self, defect):
        for one_asset in (False, True):
            tree_from_dict(bool_field_tree_doc(one_asset=one_asset))
        with pytest.raises(InvalidInputError):
            tree_from_dict(bool_field_tree_doc(defect))

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


def _outcome(render, argument):
    """The text ``render`` returns, or the type and message of what it raises."""
    try:
        return render(argument)
    except Exception as exc:  # the exception itself is what gets compared
        return type(exc), str(exc)


_TEXT = st.text(st.one_of(
    st.characters(), st.characters(codec=None, categories=["Cs", "Cc"]),
    st.sampled_from(['"', "\\", "\u2028", "\x7f", "\u00e9", "\U0001f600"])), max_size=6)
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, 1.5, 1e16, 0.1]))
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-10 ** 40, 10 ** 40), _FLOATS, _TEXT)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.lists(_FLOATS, max_size=8), st.lists(_TEXT, max_size=4),
        st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)


class TestRendererParity:
    """The renderers match the per-element references in tests/conftest.py byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(_PAYLOADS)
    def test_canonical_json_matches_json_dumps(self, payload):
        assert canonical_json(payload) == reference_canonical_json(payload)

    @pytest.mark.parametrize("payload", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[], [[]], {}], "", 0, -0.0, None,
        {"k": [1.0, float("nan")]}, [float("inf")], {"x": [float("-inf"), 1.0]},
        [1e308, 1e308], [1.0, True], [1, 2.0], [np.float64(2.5)], {"a": np.float64(-0.0)},
        [np.float64(1.5), np.float64(2.0)], [np.float64("nan")], {"y": [1.0, np.float64("inf")]},
        [True, False, None],
        {"z": 1, "a": {"y": [1.5, -2.0], "b": "\ud800 \x00 \u2028 \u00e9"}},
    ])
    def test_edge_payloads_match(self, payload):
        assert _outcome(canonical_json, payload) == _outcome(reference_canonical_json, payload)

    @staticmethod
    def _report(curves, dates, labels=None):
        labels = labels or [f"s{k}" for k in range(len(curves))]
        return BacktestReport(
            results=tuple(StrategyResult(label=label, wealth_curve=np.asarray(curve, dtype=float))
                          for label, curve in zip(labels, curves)),
            split_index=2, annualization_factor=252.0, asset_ids=("a",),
            out_sample_dates=tuple(dates))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.lists(_FLOATS, min_size=n, max_size=n), min_size=1, max_size=3),
        st.lists(st.one_of(_TEXT, st.sampled_from(
            ["a,b", 'say "hi"', "line\nbreak", "cr\rhere", " lead", "trail ", " both ", ""])),
            min_size=n, max_size=n))))
    def test_wealth_csv_matches_csv_writer(self, drawn):
        report = self._report(*drawn)
        assert wealth_to_csv(report) == reference_wealth_to_csv(report)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([1, 2, 3, 501]).flatmap(lambda n: st.lists(st.one_of(
        st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n),
        st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n),
        st.floats(-1e6, 1e6).map(lambda v: [v] * n)), min_size=1, max_size=3)))
    def test_wealth_svg_matches_per_point_format(self, curves):
        n = len(curves[0])
        report = self._report(curves, [f"2020-{i:04d}" for i in range(n)],
                              labels=["ew", "mv", "cutn-as1"][:len(curves)])
        # The reference divides by zero on a flat range at 2**53 or more; see
        # test_flat_range_past_2_53_renders.
        expected = _outcome(reference_wealth_to_svg, report)
        if isinstance(expected, str):
            assert wealth_to_svg(report) == expected

    @pytest.mark.parametrize("value", [2.0 ** 53, -2.0 ** 54, 1e300])
    def test_flat_range_past_2_53_renders(self, value):
        report = self._report([[value] * 3, [value] * 3], ["d1", "d2", "d3"])
        assert _outcome(reference_wealth_to_svg, report)[0] is ZeroDivisionError
        svg = ET.fromstring(wealth_to_svg(report))
        ns = "{http://www.w3.org/2000/svg}"
        for line in svg.iter(ns + "polyline"):
            assert line.get("points") == "50.00,370.00 360.00,370.00 670.00,370.00"

    @pytest.mark.parametrize("value", [1.0, -5.0, 0.0, 2.0 ** 53 - 1.0, -2.0 ** 53])
    def test_flat_range_below_2_53_renders_as_before(self, value):
        report = self._report([[value] * 3], ["d1", "d2", "d3"])
        assert wealth_to_svg(report) == reference_wealth_to_svg(report)

    # A label is fixed-point up to 12 characters, else 6 significant digits; on a flat
    # range past 2**53 the two ends are one step apart, so their short labels read alike.
    @pytest.mark.parametrize("value, labels", [
        (1.0, ["2.000", "1.000"]),
        (2.0 ** 53, ["9.0072e+15", "9.0072e+15"]),
        (np.finfo(float).max, ["1.79769e+308", "1.79769e+308"]),
        (-np.finfo(float).max, ["-1.79769e+308", "-1.79769e+308"]),
        (99999999.999, ["1e+08", "99999999.999"]),
    ])
    def test_flat_range_coordinates_and_labels_are_finite(self, value, labels):
        report = self._report([[value] * 3, [value] * 3], ["d1", "d2", "d3"])
        svg = ET.fromstring(wealth_to_svg(report))
        ns = "{http://www.w3.org/2000/svg}"
        coords = [float(v) for element in svg.iter() for key, v in element.attrib.items()
                  if key in ("x", "y", "x1", "y1", "x2", "y2")]
        coords += [float(v) for line in svg.iter(ns + "polyline")
                   for point in line.get("points").split() for v in point.split(",")]
        texts = [text.text for text in list(svg.iter(ns + "text"))[:2]]
        top, bottom = map(float, texts)
        assert np.isfinite(coords).all()
        assert np.isfinite([top, bottom]).all() and top >= bottom
        assert texts == labels

    def test_labels_are_escaped(self):
        labels = ["a<b", "x&y", "p>q"]
        report = self._report([[1.0, 1.1], [1.0, 0.9], [1.0, 1.0]], ["d1", "d2"], labels)
        svg = ET.fromstring(wealth_to_svg(report))
        texts = [text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[-3:] == labels

    def test_backtest_outputs_match(self, small_report):
        doc = report_to_dict(small_report, manifest={"command": "backtest"})
        assert canonical_json(doc) == reference_canonical_json(doc)
        assert wealth_to_csv(small_report) == reference_wealth_to_csv(small_report)
        assert wealth_to_svg(small_report) == reference_wealth_to_svg(small_report)


def _circular():
    loop = [1.0]
    loop.append({"again": loop})
    return loop


def _nested(depth):
    payload = []
    for _ in range(depth):
        payload = [payload]
    return payload


# Payloads JSON cannot hold for a reason other than a non-finite float.
@pytest.mark.parametrize("payload", [
    {"a": np.int64(3)}, {1: "a"}, {2.5: "b"}, {1: "a", "b": 2}, {"a": 1, 2.5: "b"},
    [10 ** 5000], _circular(), _nested(100_000),
], ids=["np-int64", "int-key", "float-key", "mixed-keys", "mixed-keys-float",
        "int-past-digit-limit", "circular", "deep"])
def test_canonical_json_refuses_as_invalid_input(payload):
    with pytest.raises(InvalidInputError, match="^cannot emit JSON: ") as exc:
        canonical_json(payload)
    assert type(exc.value) is InvalidInputError


_ANY_LEAVES = st.one_of(_LEAVES, st.floats(), st.floats().map(np.float64),
                       st.integers(-10 ** 6, 10 ** 6).map(np.int64), st.binary(max_size=2),
                       st.complex_numbers(max_magnitude=1.0))
_ANY_PAYLOADS = st.recursive(_ANY_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.one_of(_TEXT, st.integers(), st.floats(allow_nan=False)), inner,
                    max_size=4)), max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(_ANY_PAYLOADS)
def test_canonical_json_renders_as_json_dumps_or_raises_a_portcut_error(payload):
    try:
        text = canonical_json(payload)
    except PortfolioCutError as exc:
        assert str(exc).startswith("cannot emit JSON: ")
        return
    assert text == reference_canonical_json(payload)


@pytest.mark.parametrize("ridge", [np.int64(0), np.float64(1e-8)])
def test_report_with_numpy_ridge_renders(ridge):
    prices, _ = block_factor_market([3, 4], 30, seed=8)
    report = run_backtest(prices, BacktestConfig(split_index=15, strategies=("mv",),
                                                 mv_ridge=ridge))
    doc = json.loads(canonical_json(report_to_dict(report)))
    assert doc["strategies"]["mv"]["metadata"]["ridge"] == float(ridge)
    assert type(report.results[0].metadata["ridge"]) is float
