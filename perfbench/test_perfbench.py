"""Self-test of the benchmark at a tiny size: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import json
import os

import pytest

import run

run.import_program()

import check  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _warm_outputs(name, tmp_path, seed=1):
    workload = WORKLOADS[name](seed, str(tmp_path), tiny=True)
    workload.generate()
    return workload, workload.outputs(workload.op())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(name, trace, section, tmp_path):
    line, details = run.run_workload(name, 1, 0.0, trace, str(tmp_path), tiny=True,
                                     trace_path=str(tmp_path / "trace.json"))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0, details["problems"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    json.dumps(line, allow_nan=False)
    if not trace:
        scaled = details["unscaled"]["op_p50_s"] * details["host_speed_factor"]
        assert line["metrics"]["op_p50_s"]["value"] == scaled


def test_traced_counts_and_span_nesting(tmp_path):
    line, details = run.run_workload("backtest-cli", 1, 0.0, True, str(tmp_path), tiny=True,
                                     trace_path=str(tmp_path / "trace.json"))
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    # Four cut strategies over two objectives: 4 trees of 2 cuts, half of them duplicates.
    assert metrics["backtest.trees_built"] == 4
    assert metrics["backtest.tree_reuse_ratio"] == 0.5
    assert metrics["spectral.fiedler_calls"] == 8
    assert metrics["tree.cut_useful_ratio"] == 1.0
    with open(tmp_path / "trace.json") as handle:
        dumped = json.load(handle)
    by_id = {s["id"]: s for s in dumped["spans"]}
    fiedler = [s for s in dumped["spans"] if s["name"] == "spectral.fiedler"]
    chain = []
    span = fiedler[0]
    while span["parent"] is not None:
        span = by_id[span["parent"]]
        chain.append(span["name"])
    assert chain == ["spectral.bisect", "tree.build", "backtest.run", "cli.main"]

    line, _ = run.run_workload("ingest-long", 1, 0.0, True, str(tmp_path), tiny=True)
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["spectral.fiedler_calls"] == 0 and metrics["ingest.dropped_rows"] > 0

    line, _ = run.run_workload("oracle", 1, 0.0, True, str(tmp_path), tiny=True)
    assert line["metrics"]["spectral.oracle_candidates"]["value"] == 2 * (2 ** 8 - 1)


def test_self_time_subtracts_children():
    parent = spans.Span(id=0, parent=None, op=0, name="tree.build", start=0.0, end=10.0,
                        attrs={"cuts": 1, "key": "k"})
    child = spans.Span(id=1, parent=0, op=0, name="spectral.bisect", start=1.0, end=5.0)
    grandchild = spans.Span(id=2, parent=1, op=0, name="spectral.fiedler", start=2.0,
                            end=4.0, attrs={"n": 3})
    metrics = spans.op_layer_metrics([parent, child, grandchild], spans.Counter())
    assert metrics["tree.self_s"] == 6.0
    assert metrics["spectral.bisect_self_s"] == 2.0
    assert metrics["spectral.fiedler_n3"] == 27
    assert metrics["tree.cut_useful_ratio"] == 1.0


def _edit_json(outputs, name, edit):
    doc = json.loads(outputs[name])
    edit(doc)
    changed = dict(outputs)
    changed[name] = json.dumps(doc).encode()
    return changed


def test_backtest_checker_flags_corrupted_outputs(tmp_path):
    workload, outputs = _warm_outputs("backtest-cli", tmp_path)
    assert workload.check(outputs) == []

    def weight(doc):
        w = doc["strategies"]["cutn-as1"]["weights"]
        w[0], w[-1] = w[0] + 1e-3, w[-1] - 1e-3

    def lambda2(doc):
        doc["strategies"]["cutv-as2"]["metadata"]["lambda2_trace"][0] *= 1.0 + 1e-6

    def wealth(doc):
        doc["strategies"]["mv"]["wealth_curve"][3] *= 1.0 + 1e-6

    for edit, needle in ((weight, "cutn-as1"), (lambda2, "lambda2"), (wealth, "mv: wealth")):
        problems = workload.check(_edit_json(outputs, "report.json", edit))
        assert any(needle in p for p in problems), problems

    broken = dict(outputs, **{"wealth.svg": b"<svg"})
    assert workload.check(broken)[0].startswith("output does not parse")


def test_tree_and_oracle_checkers_flag_corrupted_outputs(tmp_path):
    workload, outputs = _warm_outputs("cut-deep", tmp_path)
    assert workload.check(outputs) == []

    def lambda2(doc):
        node = next(n for n in doc["trees"][1]["nodes"] if n["children"])
        node["lambda2_at_split"] *= 1.0 + 1e-6

    def weight(doc):
        doc["trees"][0]["weights"]["as2"][0] += 1e-9

    assert any("lambda2" in p for p in workload.check(_edit_json(outputs, "trees.json", lambda2)))
    assert any("weights" in p for p in workload.check(_edit_json(outputs, "trees.json", weight)))

    workload, outputs = _warm_outputs("oracle", tmp_path)
    assert workload.check(outputs) == []

    def worse_oracle(doc):
        doc["cutn"]["oracle"] = copy.deepcopy(doc["cutn"]["spectral"])
        doc["cutn"]["oracle"]["side_of"] = [1] * (len(doc["cutn"]["oracle"]["side_of"]) - 1) + [2]
        doc["cutn"]["oracle"]["objective_value"] = check.objective_of(
            workload.graph.weights, doc["cutn"]["oracle"]["side_of"], "cutn")

    problems = workload.check(_edit_json(outputs, "cuts.json", worse_oracle))
    assert any("enumerated minimum" in p for p in problems), problems


def test_checker_flags_nondeterministic_bytes(tmp_path):
    workload, outputs = _warm_outputs("oracle", tmp_path)
    checker = run.OutputChecker()
    assert checker.problems(workload, outputs) == []
    assert checker.problems(workload, outputs) == []
    reformatted = dict(outputs, **{"cuts.json": json.dumps(json.loads(outputs["cuts.json"]),
                                                           indent=1).encode()})
    assert workload.check(reformatted) == []
    assert checker.problems(workload, reformatted) == ["output bytes differ from the run's first op"]


@pytest.mark.parametrize("name", ["backtest-cli", "ingest-long"])
def test_seed_determines_the_csv(name, tmp_path):
    def csv_bytes(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        workload = WORKLOADS[name](seed, str(workdir), tiny=True)
        workload.generate()
        return (workdir / "prices.csv").read_bytes()

    assert csv_bytes(1, "a") == csv_bytes(1, "b")
    assert csv_bytes(1, "c") != csv_bytes(2, "d")


@pytest.mark.parametrize("name", ["cut-deep", "oracle"])
def test_seed_determines_the_graph(name, tmp_path):
    def weights(seed):
        workload = WORKLOADS[name](seed, str(tmp_path), tiny=True)
        workload.generate()
        return workload.graph.weights

    assert (weights(3) == weights(3)).all()
    assert (weights(3) != weights(4)).any()


def test_tail_reports_percentile_with_ten_samples_beyond():
    info = run.tail([float(i) for i in range(1, 41)])
    assert info == {"op_tail_s": 30.0, "percentile": 75.0, "samples": 40, "samples_beyond": 10}
    info = run.tail([float(i) for i in range(1, 13)])
    assert info["op_tail_s"] == 12.0 and info["samples_beyond"] == 0
