import csv
import errno
import json
import os
import stat
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import portcut
import portcut.cli

from portcut import (
    AllocationScheme,
    BacktestConfig,
    CutObjective,
    CutPolicy,
    allocate,
    asset_weights,
    block_factor_market,
    build_cut_tree,
    ingest_prices_with_report,
    market_graph_from_covariance,
    run_backtest,
    sample_covariance,
    simple_returns,
    PriceCsvSpec,
)
from portcut.cli import _drop_degenerate, main
from portcut.serialization import report_to_dict

from conftest import (
    TREE_DOC_DEFECTS,
    WRITTEN_FIELD_DEFECTS,
    break_tree_doc,
    make_prices,
    overflowing_prices,
    single_leaf_tree_doc,
    six_asset_tree_doc,
    write_prices_csv,
)


def one_json_error(stderr: str) -> dict:
    """The single JSON line a failed command prints on stderr."""
    lines = stderr.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.fixture
def market_csv(tmp_path):
    prices, _ = block_factor_market([3, 5], 40, seed=3)
    path = tmp_path / "prices.csv"
    write_prices_csv(path, prices)
    return str(path)


@pytest.fixture
def zero_degree_csv(tmp_path):
    """Asset C has exactly zero sample covariance with A and B.

    All prices and returns are dyadic, so the cross-covariances cancel
    exactly in floating point and C is an isolated (zero-degree) vertex.
    """
    rows = [
        ("2020-01-01", 64.0, 64.0, 64.0),
        ("2020-01-02", 80.0, 48.0, 80.0),
        ("2020-01-03", 60.0, 60.0, 100.0),
        ("2020-01-04", 75.0, 45.0, 75.0),
        ("2020-01-05", 56.25, 56.25, 56.25),
    ]
    lines = ["date,A,B,C"]
    lines += [f"{d},{a!r},{b!r},{c!r}" for d, a, b, c in rows]
    path = tmp_path / "isolated.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


ZERO_DEGREE_LEAF_0 = ("failed to cut leaf 0 (members [0, 1, 2]): zero-degree vertices [2] "
                      "are incompatible with the volume-normalized objective")


class TestCutCommand:
    def test_zero_cuts_single_leaf_json(self, market_csv, capsys):
        assert main(["cut", market_csv, "--max-cuts", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_performed"] == 0
        assert payload["leaf_ids"] == [0]
        assert payload["nodes"][0]["members"] == list(range(8))
        assert payload["schema_version"] == 1
        assert payload["manifest"]["command"] == "cut"

    def test_two_block_csv_recovers_blocks(self, market_csv, capsys):
        assert main(["cut", market_csv, "--max-cuts", "1",
                     "--min-leaf-size", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        leaves = sorted(
            tuple(node["members"]) for node in payload["nodes"] if node["is_leaf"]
        )
        assert leaves == [(0, 1, 2), (3, 4, 5, 6, 7)]

    def test_volume_objective_zero_degree_exits_2(self, zero_degree_csv, capsys):
        code = main(["cut", zero_degree_csv, "--objective", "cutv",
                     "--max-cuts", "1", "--min-leaf-size", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert one_json_error(captured.err) == {
            "error": "DegenerateDegreeError", "message": ZERO_DEGREE_LEAF_0}

    def test_volume_objective_zero_degree_fails_its_backtest_strategy(
            self, zero_degree_csv, tmp_path, capsys):
        # Two more rows out of sample; C stays isolated on the four in-sample returns.
        path = tmp_path / "longer.csv"
        path.write_text(Path(zero_degree_csv).read_text()
                        + "2020-01-06,70.3125,42.1875,70.3125\n"
                        + "2020-01-07,52.734375,52.734375,87.890625\n")
        assert main(["backtest", str(path), "--split-index", "4", "--strategies",
                     "cutv-as1,cutn-as1", "--max-cuts", "1", "--min-leaf-size", "1"]) == 0
        strategies = json.loads(capsys.readouterr().out)["strategies"]
        assert strategies["cutv-as1"] == {"status": "error", "error": ZERO_DEGREE_LEAF_0,
                                          "error_kind": "DegenerateDegreeError"}
        assert strategies["cutn-as1"]["status"] == "ok"

    def test_normalized_objective_isolates_zero_degree(self, zero_degree_csv, capsys):
        assert main(["cut", zero_degree_csv, "--objective", "cutn",
                     "--max-cuts", "1", "--min-leaf-size", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        leaves = sorted(
            tuple(node["members"]) for node in payload["nodes"] if node["is_leaf"]
        )
        assert leaves == [(0, 1), (2,)]

    def test_edge_budget_trace_present(self, market_csv, capsys):
        assert main(["cut", market_csv, "--max-cuts", "2",
                     "--min-leaf-size", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        trace = payload["edge_budget_trace"]
        assert trace[0] == 36
        assert all(b < a for a, b in zip(trace, trace[1:]))
        internal = [n for n in payload["nodes"] if not n["is_leaf"]]
        assert all(n["lambda2_at_split"] is not None for n in internal)


class TestAllocateCommand:
    def test_round_trip_matches_in_process_pipeline(self, market_csv, tmp_path, capsys):
        tree_path = str(tmp_path / "tree.json")
        assert main(["cut", market_csv, "--max-cuts", "2", "--min-leaf-size", "1",
                     "-o", tree_path]) == 0
        assert main(["allocate", "--tree", tree_path, "--scheme", "as1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        cli_weights = {row["asset_id"]: row["weight"] for row in payload["weights"]}

        matrix = ingest_prices_with_report(PriceCsvSpec(path=market_csv))[0]
        graph = market_graph_from_covariance(
            sample_covariance(simple_returns(matrix)), asset_ids=matrix.asset_ids)
        tree = build_cut_tree(graph, CutPolicy(max_cuts=2, min_leaf_size=1),
                              CutObjective.NORMALIZED)
        wv = asset_weights(tree, allocate(tree, AllocationScheme.AS1))
        expected = dict(zip(tree.asset_ids, wv.weights))
        assert cli_weights.keys() == expected.keys()
        for asset, weight in expected.items():
            assert cli_weights[asset] == weight  # bit-identical through JSON

    def test_example_shaped_tree_cluster_weights(self, nested_block_graph,
                                                 tmp_path, capsys):
        from portcut.serialization import canonical_json, tree_to_dict

        tree = build_cut_tree(nested_block_graph,
                              CutPolicy(max_cuts=4, min_leaf_size=1))
        tree_path = tmp_path / "shaped.json"
        tree_path.write_text(canonical_json(tree_to_dict(tree)))

        assert main(["allocate", "--tree", str(tree_path), "--scheme", "as1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["cluster_weights"].values()) == [
            0.125, 0.125, 0.25, 0.25, 0.25]
        assert [row["weight"] for row in payload["weights"]] == [0.125] * 8

        assert main(["allocate", "--tree", str(tree_path), "--scheme", "as2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["cluster_weights"].values()) == [1.0 / 5.0] * 5

    def test_csv_format(self, market_csv, tmp_path, capsys):
        tree_path = str(tmp_path / "tree.json")
        main(["cut", market_csv, "--max-cuts", "1", "-o", tree_path])
        capsys.readouterr()
        assert main(["allocate", "--tree", tree_path, "--scheme", "as2",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "asset_id,weight"
        assert len(lines) == 9
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert abs(total - 1.0) <= 1e-10

    def test_missing_tree_file_exits_2(self, tmp_path, capsys):
        code = main(["allocate", "--tree", str(tmp_path / "nope.json"),
                     "--scheme", "as1"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidInputError"

    def test_corrupt_tree_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "cut_tree", "schema_version": 1}')
        assert main(["allocate", "--tree", str(bad), "--scheme", "as1"]) == 2

    @pytest.mark.parametrize("defect", TREE_DOC_DEFECTS + ("nested-200000-deep",))
    def test_tree_breaking_an_invariant_exits_2(self, nested_block_graph, tmp_path,
                                                defect, capsys):
        from portcut.serialization import tree_to_dict

        tree = build_cut_tree(nested_block_graph, CutPolicy(max_cuts=2, min_leaf_size=1))
        bad = tmp_path / "bad.json"
        # Python's json nests only as deep as the recursion limit allows.
        bad.write_text("[" * 200_000 + "]" * 200_000 if defect == "nested-200000-deep"
                       else json.dumps(break_tree_doc(tree_to_dict(tree), defect)))
        assert main(["allocate", "--tree", str(bad), "--scheme", "as1"]) == 2
        assert one_json_error(capsys.readouterr().err)["error"] == "InvalidInputError"

    def test_non_utf8_tree_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"kind": "cut_tree\xff"}')
        assert main(["allocate", "--tree", str(bad), "--scheme", "as1"]) == 2
        assert "bad.json" in one_json_error(capsys.readouterr().err)["message"]

    def test_out_of_range_members_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(single_leaf_tree_doc([0, 1, 7], ["a", "b", "c"])))
        assert main(["allocate", "--tree", str(bad), "--scheme", "as1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "InvalidInputError"

    @pytest.mark.parametrize("defect", WRITTEN_FIELD_DEFECTS)
    def test_tree_with_a_wrong_written_field_exits_2(self, tmp_path, defect, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(six_asset_tree_doc(defect)))
        assert main(["allocate", "--tree", str(bad), "--scheme", "as1"]) == 2
        assert one_json_error(capsys.readouterr().err)["error"] == "InvalidInputError"


def duplicated_assets_csv(tmp_path):
    """Three assets, two of them identical: MV without a ridge is singular."""
    col = [100.0, 102.0, 99.0, 101.0, 104.0, 103.0, 106.0]
    other = [50.0, 51.0, 49.5, 50.5, 52.0, 51.5, 53.0]
    csv_path = tmp_path / "dup.csv"
    write_prices_csv(csv_path, make_prices([col, col, other]))
    return csv_path


class TestBacktestCommand:
    def test_constant_prices_flat_wealth(self, tmp_path, capsys):
        prices = make_prices(
            [[100.0, 101.0, 99.0, 100.0, 100.0, 100.0, 100.0]], asset_ids=["only"])
        csv_path = tmp_path / "flat.csv"
        write_prices_csv(csv_path, prices)
        wealth_path = tmp_path / "wealth.csv"
        assert main(["backtest", str(csv_path), "--split-index", "3",
                     "--strategies", "ew", "--wealth-csv", str(wealth_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        strat = payload["strategies"]["ew"]
        assert strat["status"] == "ok"
        assert strat["wealth_curve"] == [1.0, 1.0, 1.0, 1.0]
        assert strat["sharpe"] is None
        assert strat["sharpe_degenerate"] is True
        rows = wealth_path.read_text().strip().splitlines()
        assert rows[0] == "date,ew"
        assert all(line.endswith(",1.0") for line in rows[1:])

    def test_duplicated_assets_mv_fails_ew_survives(self, tmp_path, capsys):
        csv_path = duplicated_assets_csv(tmp_path)
        assert main(["backtest", str(csv_path), "--split-index", "3",
                     "--strategies", "ew,mv", "--mv-ridge", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategies"]["ew"]["status"] == "ok"
        mv = payload["strategies"]["mv"]
        assert mv["status"] == "error"
        assert mv["error_kind"] == "SingularCovarianceError"

    def test_failed_render_writes_no_output(self, tmp_path, capsys):
        csv_path = duplicated_assets_csv(tmp_path)
        report_path, wealth_path = tmp_path / "r.json", tmp_path / "w.csv"
        assert main(["backtest", str(csv_path), "--split-index", "3",
                     "--strategies", "mv", "--mv-ridge", "0",
                     "-o", str(report_path), "--wealth-csv", str(wealth_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "InvalidInputError"
        assert not report_path.exists()
        assert not wealth_path.exists()

    @pytest.mark.parametrize("report", ["r.json", "-"])
    def test_failed_write_leaves_no_output(self, market_csv, tmp_path, report, capsys):
        report_path = report if report == "-" else str(tmp_path / report)
        assert main(["backtest", market_csv, "--split-index", "20", "-o", report_path,
                     "--wealth-csv", str(tmp_path / "nodir" / "w.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nodir" in one_json_error(captured.err)["message"]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["prices.csv"]

    @pytest.mark.parametrize("options", [[], ["--drop-degenerate"]])
    def test_overflowing_strategy_reported_as_error(self, tmp_path, options, capsys):
        def reject(token):
            raise ValueError(f"not JSON: {token}")

        csv_path = tmp_path / "wild.csv"
        write_prices_csv(csv_path, overflowing_prices())
        assert main(["backtest", str(csv_path), "--split-index", "5",
                     "--strategies", "ew", *options]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        ew = json.loads(captured.out, parse_constant=reject)["strategies"]["ew"]
        assert ew["status"] == "error"
        assert ew["error_kind"] == "NumericalFailureError"

    def test_six_strategy_two_block_run(self, tmp_path, capsys):
        prices, _ = block_factor_market([8, 12], 400, seed=9)
        csv_path = tmp_path / "blocks.csv"
        write_prices_csv(csv_path, prices)
        svg_path = tmp_path / "wealth.svg"
        assert main(["backtest", str(csv_path), "--split-index", "200",
                     "--min-leaf-size", "1", "--mv-ridge", "1e-8",
                     "--svg", str(svg_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        strategies = payload["strategies"]
        assert set(strategies) == {"ew", "mv", "cutn-as1", "cutn-as2",
                                   "cutv-as1", "cutv-as2"}
        ew_std = strategies["ew"]["std_return"]
        for label in ("cutn-as1", "cutn-as2", "cutv-as1", "cutv-as2"):
            assert strategies[label]["status"] == "ok"
            assert strategies[label]["std_return"] < ew_std
            assert strategies[label]["metadata"]["k_performed"] == 1
        assert svg_path.read_text().startswith("<svg")
        assert payload["manifest"]["strategies"] == [
            "ew", "mv", "cutn-as1", "cutn-as2", "cutv-as1", "cutv-as2"]

    def test_strategies_match_the_library_run(self, tmp_path, capsys):
        prices, _ = block_factor_market([4, 5, 3], 120, seed=17)
        csv_path = tmp_path / "blocks.csv"
        write_prices_csv(csv_path, prices)
        assert main(["backtest", str(csv_path), "--split-index", "60",
                     "--strategies", "cutv-as2,ew,mv,cutn-as1",
                     "--max-cuts", "3", "--min-leaf-size", "1"]) == 0
        cli_strategies = json.loads(capsys.readouterr().out)["strategies"]
        config = BacktestConfig(60, ("ew", "mv", "cutn-as1", "cutv-as2"),
                                policy=CutPolicy(max_cuts=3, min_leaf_size=1))
        library = report_to_dict(run_backtest(prices, config))["strategies"]
        assert cli_strategies == library
        assert all(entry["status"] == "ok" for entry in library.values())
        assert library["cutn-as1"]["metadata"]["k_performed"] == 3

    def test_split_date_equivalent_to_index(self, market_csv, tmp_path):
        by_index = tmp_path / "a.json"
        by_date = tmp_path / "b.json"
        assert main(["backtest", market_csv, "--split-index", "20",
                     "--strategies", "ew", "-o", str(by_index)]) == 0
        assert main(["backtest", market_csv, "--split-date", "t00020",
                     "--strategies", "ew", "-o", str(by_date)]) == 0
        a = json.loads(by_index.read_text())
        b = json.loads(by_date.read_text())
        assert a["split_index"] == b["split_index"] == 20
        assert a["strategies"] == b["strategies"]

    def test_wealth_csv_columns(self, market_csv, tmp_path):
        wealth_path = tmp_path / "w.csv"
        assert main(["backtest", market_csv, "--split-index", "20",
                     "--strategies", "ew,cutn-as2", "--min-leaf-size", "1",
                     "-o", str(tmp_path / "r.json"),
                     "--wealth-csv", str(wealth_path)]) == 0
        rows = wealth_path.read_text().strip().splitlines()
        assert rows[0] == "date,ew,cutn-as2"
        assert len(rows) == 1 + 21  # wealth has T - t* + 1 = 21 points


class TestOutputQuoting:
    """Ids and dates that CSV must quote and SVG must escape survive the CLI."""

    IDS = ["A,1", 'B"2', "c", "d"]

    @pytest.fixture
    def awkward_csv(self, tmp_path):
        prices, _ = block_factor_market([2, 2], 40, seed=5)
        dates = [f'd&<{t:03d}>,"x' for t in range(len(prices.timestamps))]
        path = tmp_path / "awkward.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["date"] + self.IDS)
            writer.writerows([stamp] + [repr(float(v)) for v in row]
                             for stamp, row in zip(dates, prices.prices))
        return str(path), dates

    def test_csv_outputs_read_back(self, awkward_csv, tmp_path):
        path, dates = awkward_csv
        tree, weights, wealth = (tmp_path / name for name in ("t.json", "w.csv", "r.csv"))
        assert main(["cut", path, "--max-cuts", "1", "--min-leaf-size", "1",
                     "-o", str(tree)]) == 0
        assert main(["allocate", "--tree", str(tree), "--scheme", "as1",
                     "--format", "csv", "-o", str(weights)]) == 0
        assert main(["backtest", path, "--split-index", "20", "--strategies", "ew,cutn-as1",
                     "--min-leaf-size", "1", "-o", str(tmp_path / "r.json"),
                     "--wealth-csv", str(wealth)]) == 0
        rows = list(csv.reader(weights.read_text().splitlines()))
        assert [row[0] for row in rows] == ["asset_id"] + self.IDS
        assert {len(row) for row in rows} == {2}
        rows = list(csv.reader(wealth.read_text().splitlines()))
        assert [row[0] for row in rows] == ["date"] + dates[20:]
        assert {len(row) for row in rows} == {3}

    def test_svg_parses_and_shows_dates(self, awkward_csv, tmp_path):
        path, dates = awkward_csv
        svg = tmp_path / "w.svg"
        assert main(["backtest", path, "--split-index", "20", "--strategies", "ew",
                     "-o", str(tmp_path / "r.json"), "--svg", str(svg)]) == 0
        texts = [el.text for el in ET.parse(svg).getroot().iter() if el.tag.endswith("text")]
        assert dates[20] in texts and dates[-1] in texts


class TestOutputDestinations:
    def test_symlink_written_through(self, market_csv, tmp_path):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("old\n")
        link.symlink_to(real)
        assert main(["cut", market_csv, "-o", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(real.read_text())["kind"] == "cut_tree"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "link.json", "prices.csv", "real.json"]

    def test_pipe_written_in_place(self, market_csv, tmp_path):
        pipe, report = tmp_path / "pipe", tmp_path / "r.json"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["backtest", market_csv, "--split-index", "20",
                         "-o", str(report), "--svg", str(pipe)]) == 0
            assert os.read(reader, 1 << 20).startswith(b"<svg")
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert "strategies" in json.loads(report.read_text())

    def test_unwritable_special_target_leaves_no_output(self, market_csv, tmp_path,
                                                        capsys):
        report, folder = tmp_path / "r.json", tmp_path / "folder"
        folder.mkdir()
        assert main(["backtest", market_csv, "--split-index", "20",
                     "-o", str(report), "--svg", str(folder)]) == 2
        assert one_json_error(capsys.readouterr().err) == {
            "error": "InvalidInputError",
            "message": f"cannot write output file {folder}: Is a directory"}
        assert sorted(path.name for path in tmp_path.iterdir()) == ["folder", "prices.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_failed_device_write_names_its_destination(self, market_csv, tmp_path, capsys):
        assert main(["backtest", market_csv, "--split-index", "20", "--strategies", "ew",
                     "-o", str(tmp_path / "r.json"), "--wealth-csv", "/dev/full",
                     "--svg", os.devnull]) == 2
        assert one_json_error(capsys.readouterr().err)["message"] == (
            "cannot write output file /dev/full: No space left on device")

    @pytest.mark.skipif(not (os.path.exists("/dev/full")
                             and stat.S_ISCHR(os.stat("/dev/full").st_mode)),
                        reason="/dev/full is not a character device")
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_device_write_replaces_no_file(self, market_csv, tmp_path, existing):
        report = tmp_path / "r.json"
        if existing:
            report.write_text("old\n")
        assert main(["backtest", market_csv, "--split-index", "20", "--strategies", "ew",
                     "-o", str(report), "--wealth-csv", "/dev/full",
                     "--svg", os.devnull]) == 2
        assert sorted(path.name for path in tmp_path.iterdir()) == (
            ["prices.csv", "r.json"] if existing else ["prices.csv"])
        if existing:
            assert report.read_text() == "old\n"

    def test_interrupted_write_leaves_no_temp_file(self, market_csv, tmp_path,
                                                   monkeypatch):
        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(portcut.cli.os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["cut", market_csv, "-o", str(tmp_path / "t.json")])
        assert sorted(path.name for path in tmp_path.iterdir()) == ["prices.csv"]

    def test_existing_file_keeps_its_mode(self, market_csv, tmp_path):
        out = tmp_path / "t.json"
        out.write_text("old\n")
        out.chmod(0o640)
        assert main(["cut", market_csv, "-o", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_new_file_mode_follows_umask(self, market_csv, tmp_path):
        out = tmp_path / "t.json"
        umask = os.umask(0o027)
        try:
            assert main(["cut", market_csv, "-o", str(out)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_new_file_mode_refuses_an_unwritable_target(self, tmp_path, monkeypatch):
        # os.access, not the mode bits, decides, so the check also runs as root.
        target = str(tmp_path / "t.json")
        Path(target).write_text("old\n")
        access = os.access
        monkeypatch.setattr(portcut.cli.os, "access",
                            lambda path, mode: path != target and access(path, mode))
        with pytest.raises(PermissionError) as exc:
            portcut.cli._new_file_mode(target)
        assert (exc.value.errno, exc.value.filename) == (errno.EACCES, target)

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write read-only files")
    def test_read_only_target_kept(self, market_csv, tmp_path, capsys):
        out = tmp_path / "t.json"
        out.write_text("old\n")
        out.chmod(0o444)
        assert main(["cut", market_csv, "-o", str(out)]) == 2
        assert one_json_error(capsys.readouterr().err)["error"] == "InvalidInputError"
        assert out.read_text() == "old\n"

    @pytest.mark.parametrize("first, second", [
        (("-o", "r.json"), ("--wealth-csv", "./r.json")),
        (("-o", "r.json"), ("--svg", "./r.json")),
        (("--wealth-csv", "r.json"), ("--svg", "{tmp}/r.json")),
        (("-o", "r.json"), ("--svg", "link.json")),
    ], ids=["output-csv", "output-svg", "csv-svg", "symlink"])
    def test_two_outputs_in_one_file_exit_2(self, market_csv, tmp_path, first, second,
                                            capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.json").write_text("old\n")
        (tmp_path / "link.json").symlink_to(tmp_path / "r.json")
        second = (second[0], second[1].format(tmp=tmp_path))
        assert main(["backtest", market_csv, "--split-index", "20", "--strategies", "ew",
                     *first, *second]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert one_json_error(captured.err) == {
            "error": "InvalidInputError",
            "message": f"output files {first[1]} and {second[1]} are the same file"}
        assert (tmp_path / "r.json").read_text() == "old\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "link.json", "prices.csv", "r.json"]

    def test_two_outputs_to_one_device_allowed(self, market_csv, capsys):
        assert main(["backtest", market_csv, "--split-index", "20", "--strategies", "ew",
                     "-o", os.devnull, "--svg", os.devnull]) == 0


class TestDeterminism:
    def test_cut_byte_identical(self, market_csv, tmp_path):
        out1, out2 = str(tmp_path / "t1.json"), str(tmp_path / "t2.json")
        args = ["cut", market_csv, "--max-cuts", "3", "--min-leaf-size", "1"]
        assert main(args + ["-o", out1]) == 0
        assert main(args + ["-o", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_backtest_byte_identical(self, market_csv, tmp_path):
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        args = ["backtest", market_csv, "--split-index", "20",
                "--min-leaf-size", "1", "--mv-ridge", "1e-8"]
        assert main(args + ["-o", out1]) == 0
        assert main(args + ["-o", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()


class TestBlasThreads:
    """The CLI runs on one BLAS thread and hands the caller's settings back."""

    @pytest.fixture
    def controls(self):
        controls = portcut.cli._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS library is loaded")
        before = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(2)  # a count the CLI has to change and put back
        yield controls
        for (_, set_), count in zip(controls, before):
            set_(count)

    @staticmethod
    def counts(controls):
        return [get() for get, _ in controls]

    @pytest.mark.parametrize("split_index, code", [("20", 0), ("1", 2)])
    def test_main_restores_thread_counts(self, controls, market_csv, tmp_path, split_index,
                                         code, monkeypatch, capsys):
        during = []

        def spy(*args):
            during.append(self.counts(controls))
            return run_backtest(*args)

        monkeypatch.setattr(portcut.cli, "run_backtest", spy)
        assert main(["backtest", market_csv, "--split-index", split_index,
                     "-o", str(tmp_path / "r.json")]) == code
        assert during == [[1] * len(controls)]
        assert self.counts(controls) == [2] * len(controls)

    def test_unreadable_maps_give_no_controls(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), args[0])

        monkeypatch.setattr(portcut.cli, "open", refuse, raising=False)
        assert portcut.cli._openblas_thread_controls() == []
        ran = []
        with portcut.cli._one_blas_thread():
            ran.append(True)
        assert ran == [True]

    def test_library_call_keeps_thread_counts(self, controls):
        prices, _ = block_factor_market([3, 5], 40, seed=3)
        run_backtest(prices, BacktestConfig(20, ("ew", "mv", "cutn-as1")))
        assert self.counts(controls) == [2] * len(controls)

    def test_outputs_do_not_depend_on_thread_count(self, tmp_path):
        prices, _ = block_factor_market((40, 30, 20, 10), 1000)
        csv_path = tmp_path / "prices.csv"
        write_prices_csv(csv_path, prices)
        src = str(Path(portcut.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            for argv in (
                ["backtest", str(csv_path), "--split-index", "500", "--max-cuts", "4",
                 "--min-leaf-size", "1", "-o", "r.json", "--wealth-csv", "w.csv",
                 "--svg", "w.svg"],
                ["cut", str(csv_path), "--max-cuts", "6", "--min-leaf-size", "1",
                 "-o", "t.json"],
            ):
                subprocess.run([sys.executable, "-m", "portcut.cli", *argv], cwd=out,
                               env=env, check=True)
            outputs[threads] = {name: (out / name).read_bytes()
                                for name in ("r.json", "w.csv", "w.svg", "t.json")}
        assert outputs["1"] == outputs["2"]


class TestExitCodes:
    def test_usage_error_unknown_flag(self, market_csv, capsys):
        assert main(["cut", market_csv, "--not-a-flag"]) == 1

    def test_usage_error_unknown_strategy(self, market_csv, capsys):
        assert main(["backtest", market_csv, "--split-index", "5",
                     "--strategies", "warp"]) == 1
        assert "warp" in capsys.readouterr().err

    @pytest.mark.parametrize("tokens, message", [
        ("ew,ew", "duplicate strategy 'ew'"), (",", "empty strategy list")])
    def test_usage_error_strategy_list(self, market_csv, tokens, message, capsys):
        assert main(["backtest", market_csv, "--split-index", "20",
                     "--strategies", tokens]) == 1
        assert capsys.readouterr().err == message + "\n"

    def test_usage_error_missing_split(self, market_csv):
        assert main(["backtest", market_csv]) == 1

    def test_data_error_missing_file(self, tmp_path, capsys):
        assert main(["cut", str(tmp_path / "ghost.csv")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInputError"

    def test_data_error_bad_split(self, market_csv, capsys):
        assert main(["backtest", market_csv, "--split-index", "1",
                     "--strategies", "ew"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert one_json_error(captured.err) == {
            "error": "InvalidInputError",
            "message": "split_index 1 leaves too little data (need 2 <= t* <= 38)"}

    def test_success_zero(self, market_csv, capsys):
        assert main(["cut", market_csv, "--max-cuts", "0"]) == 0

    @pytest.mark.parametrize("options, code", [
        (["cut", "--max-cuts", "0"], 0),
        (["backtest", "--split-index", "20", "--strategies", "warp"], 1),
        (["backtest", "--split-index", "1", "--strategies", "ew"], 2),
    ])
    def test_console_main_exits_with_the_code(self, market_csv, options, code, capsys,
                                              monkeypatch):
        monkeypatch.setattr(sys, "argv", ["portcut", options[0], market_csv, *options[1:]])
        with pytest.raises(SystemExit) as exit_info:
            portcut.cli.console_main()
        assert exit_info.value.code == code

    @pytest.mark.parametrize("flag, relative", [
        (flag, relative) for relative in (False, True) for flag in ("-o", "--wealth-csv", "--svg")
    ], ids=["-o", "--wealth-csv", "--svg", "-o-relative", "--wealth-csv-relative",
            "--svg-relative"])
    def test_unwritable_output_exits_2(self, market_csv, tmp_path, flag, relative, capsys,
                                       monkeypatch):
        target = os.path.join("no-such-dir", "out")
        if relative:
            monkeypatch.chdir(tmp_path)
        else:
            target = str(tmp_path / target)
        if flag == "-o":
            argv = ["cut", market_csv, "--max-cuts", "1", "-o", target]
        else:
            argv = ["backtest", market_csv, "--split-index", "20",
                    "--strategies", "ew", "-o", str(tmp_path / "r.json"), flag, target]
        errors = []
        for _ in range(2):
            assert main(argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert one_json_error(errors[0]) == {
            "error": "InvalidInputError",
            "message": f"cannot write output file {target}: No such file or directory"}

    @pytest.mark.parametrize("command, options", [
        ("backtest", ["--split-index", "20", "--strategies", "ew", "--annualization", "nan"]),
        ("backtest", ["--split-index", "20", "--strategies", "ew", "--annualization", "inf"]),
        ("backtest", ["--split-index", "20", "--strategies", "mv", "--mv-ridge", "nan"]),
        ("cut", ["--lambda2-threshold", "inf"]),
        ("cut", ["--delimiter", ""]),
        ("cut", ["--delimiter", ";;"]),
    ])
    def test_invalid_option_value_exits_2(self, market_csv, command, options, capsys):
        assert main([command, market_csv, *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert one_json_error(captured.err)["error"] == "InvalidInputError"

    # Prices spanning the float range: the first return of 'a' overflows.
    SPAN_CSV = ("date,a,b,c\n2020-01-01,1e-300,1,2\n2020-01-02,1e300,1.1,2.1\n"
                "2020-01-03,2,1.2,2.2\n2020-01-04,3,1.3,2.0\n2020-01-05,2.5,1.25,2.3\n")
    SPAN_RETURN = "return of asset 'a' at return row 0 (2020-01-02) is not finite"

    @pytest.mark.parametrize("prices, options, message", [
        ("span", ["cut"], SPAN_RETURN),
        ("span", ["cut", "--drop-degenerate"], SPAN_RETURN),
        ("span", ["backtest", "--split-index", "2"], SPAN_RETURN),
        ("wild", ["cut"], "covariance of asset 'a0' is not finite"),
        ("wild", ["cut", "--drop-degenerate"], "covariance of asset 'a0' is not finite"),
    ], ids=["returns", "returns-drop-degenerate", "returns-backtest", "covariance",
            "covariance-drop-degenerate"])
    def test_overflow_named_in_one_json_line(self, tmp_path, prices, options, message,
                                             capsys):
        csv_path = tmp_path / "prices.csv"
        if prices == "span":
            csv_path.write_text(self.SPAN_CSV)
        else:
            write_prices_csv(csv_path, overflowing_prices())
        assert main([options[0], str(csv_path), *options[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert one_json_error(captured.err) == {"error": "InvalidInputError",
                                                "message": message}


class TestDropDegenerate:
    def test_flag_drops_flat_asset(self, tmp_path, capsys):
        moving = [100.0, 102.0, 99.0, 101.0, 104.0, 103.0, 106.0]
        other = [50.0, 51.0, 49.5, 50.5, 52.0, 51.5, 53.0]
        flat = [10.0] * 7
        csv_path = tmp_path / "flat.csv"
        write_prices_csv(csv_path, make_prices([moving, flat, other],
                                               asset_ids=["m", "flat", "o"]))
        assert main(["cut", str(csv_path), "--max-cuts", "1"]) == 2
        capsys.readouterr()
        assert main(["cut", str(csv_path), "--max-cuts", "1",
                     "--drop-degenerate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["asset_ids"] == ["m", "o"]
        assert "flat" in payload["manifest"]["dropped_assets"]

    def test_notice_printed_only_on_success(self, tmp_path, capsys):
        moving = [100.0, 102.0, 99.0, 101.0, 104.0, 103.0, 106.0]
        csv_path = tmp_path / "flat.csv"
        write_prices_csv(csv_path, make_prices([moving, [10.0] * 7, moving[::-1]],
                                               asset_ids=["m", "flat", "o"]))
        assert main(["cut", str(csv_path), "--drop-degenerate"]) == 0
        assert capsys.readouterr().err == "dropped zero-variance asset(s): flat\n"
        # One asset is left, too few for a cut tree: stderr holds only the error.
        write_prices_csv(csv_path, make_prices([moving, [10.0] * 7], asset_ids=["m", "flat"]))
        assert main(["cut", str(csv_path), "--drop-degenerate"]) == 2
        assert one_json_error(capsys.readouterr().err)["error"] == "InvalidInputError"

    def test_two_rows_are_too_few(self, tmp_path, capsys):
        csv_path = tmp_path / "short.csv"
        write_prices_csv(csv_path, make_prices([[100.0, 102.0], [10.0, 10.0]]))
        assert main(["cut", str(csv_path), "--drop-degenerate"]) == 2
        error = one_json_error(capsys.readouterr().err)
        assert error["error"] == "InsufficientDataError"
        assert "at least 2 return rows" in error["message"]

    def test_dropped_column_leaves_the_clean_result(self, tmp_path):
        prices, _ = block_factor_market((12, 10, 8), 300, seed=4)
        with_flat = make_prices(
            [*prices.prices[:, :5].T, np.full(prices.n_rows, 5.0), *prices.prices[:, 5:].T],
            asset_ids=prices.asset_ids[:5] + ("flat",) + prices.asset_ids[5:],
            timestamps=prices.timestamps)
        strategies = []
        for name, matrix in (("clean", prices), ("flat", with_flat)):
            csv_path, report = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            write_prices_csv(csv_path, matrix)
            assert main(["backtest", str(csv_path), "--split-index", "150", "--max-cuts", "3",
                         "--drop-degenerate", "-o", str(report)]) == 0
            strategies.append(json.loads(report.read_text())["strategies"])
        assert strategies[0] == strategies[1]

    def test_asset_flat_in_sample_is_dropped(self, tmp_path, capsys):
        prices, _ = block_factor_market((6, 6), 100, seed=3)
        columns = prices.prices.copy()
        columns[:60, prices.asset_ids.index("B0_000")] = 50.0
        csv_path = tmp_path / "flat_in_sample.csv"
        write_prices_csv(csv_path, make_prices(columns.T, prices.asset_ids, prices.timestamps))
        assert main(["backtest", str(csv_path), "--split-index", "50", "--drop-degenerate",
                     "--max-cuts", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["dropped_assets"] == ["B0_000"]
        assert "B0_000" not in payload["asset_ids"]
        assert {label: res["status"] for label, res in payload["strategies"].items()} == (
            dict.fromkeys(portcut.backtest.STRATEGIES, "ok"))

    def test_cut_judges_every_row(self, tmp_path, capsys):
        moving = [100.0, 102.0, 99.0, 101.0, 104.0, 103.0, 106.0]
        csv_path = tmp_path / "late_move.csv"
        write_prices_csv(csv_path, make_prices([moving, [10.0] * 6 + [11.0], moving[::-1]]))
        assert main(["cut", str(csv_path), "--drop-degenerate"]) == 0
        assert json.loads(capsys.readouterr().out)["manifest"]["dropped_assets"] == []

    @pytest.mark.parametrize("split", ["1", "39", "-5", "500"])
    def test_out_of_range_split_named_by_the_backtest(self, market_csv, split, capsys):
        assert main(["backtest", market_csv, "--split-index", split,
                     "--drop-degenerate"]) == 2
        error = one_json_error(capsys.readouterr().err)
        assert error["error"] == "InvalidInputError"
        assert error["message"] == (
            f"split_index {split} leaves too little data (need 2 <= t* <= 38)")

    @pytest.mark.parametrize("command", [["cut"], ["backtest", "--split-index", "3"]])
    def test_every_asset_flat_exits_2(self, tmp_path, command, capsys):
        csv_path = tmp_path / "all_flat.csv"
        write_prices_csv(csv_path, make_prices([[10.0] * 7, [20.0] * 7]))
        assert main([command[0], str(csv_path), *command[1:], "--drop-degenerate"]) == 2
        error = one_json_error(capsys.readouterr().err)
        assert error == {"error": "DegenerateAssetError",
                         "message": "every asset has zero variance"}

    @pytest.mark.parametrize("seed", range(5))
    def test_keeps_exactly_the_nonzero_covariance_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        prices = rng.uniform(90.0, 110.0, (8, 7))
        prices[:, rng.choice(7, size=3, replace=False)] = 50.0
        matrix = make_prices(prices.T)
        kept, dropped = _drop_degenerate(matrix)
        alive = np.diag(sample_covariance(simple_returns(matrix)).sigma) > 0.0
        assert kept.asset_ids == tuple(np.array(matrix.asset_ids)[alive])
        assert dropped == list(np.array(matrix.asset_ids)[~alive])


class TestManifest:
    BASE_KEYS = ["command", "input_path", "date_column", "missing_policy",
                 "drop_degenerate", "n_rows", "n_assets", "first_date", "last_date",
                 "dropped_rows", "dropped_assets"]
    OPTION_KEYS = ["objective", "max_cuts", "lambda2_threshold", "leaf_selection",
                   "min_leaf_size", "scheme", "split_index", "split_date", "strategies",
                   "mv_ridge", "annualization_factor", "version"]

    def test_cut_manifest_keys_and_nulls(self, market_csv, capsys):
        assert main(["cut", market_csv, "--max-cuts", "1"]) == 0
        manifest = json.loads(capsys.readouterr().out)["manifest"]
        assert sorted(manifest) == sorted(self.BASE_KEYS + self.OPTION_KEYS)
        assert manifest["objective"] == "cutn"
        assert manifest["max_cuts"] == 1
        for key in ("scheme", "split_index", "split_date", "strategies",
                    "mv_ridge", "annualization_factor", "lambda2_threshold"):
            assert manifest[key] is None
        assert manifest["version"] == portcut.__version__

    def test_backtest_manifest_keys_and_nulls(self, market_csv, capsys):
        assert main(["backtest", market_csv, "--split-index", "20",
                     "--strategies", "ew,mv"]) == 0
        manifest = json.loads(capsys.readouterr().out)["manifest"]
        assert sorted(manifest) == sorted(self.BASE_KEYS + self.OPTION_KEYS)
        assert manifest["objective"] is None
        assert manifest["scheme"] is None
        assert manifest["strategies"] == ["ew", "mv"]
        assert manifest["split_index"] == 20
        assert manifest["annualization_factor"] == 252.0

    def test_cli_exports(self):
        assert portcut.cli.__all__ == [
            "main", "console_main", "cmd_cut", "cmd_allocate", "cmd_backtest"]
