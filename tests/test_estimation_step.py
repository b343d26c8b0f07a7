"""The in-sample estimation step that `cut` and `backtest` share.

Each run takes returns, the covariance and the market graph once; both
commands check their inputs in one order (strategy usage, ingest, split,
options, windows, drops); the split resolves by a binary search over the
timestamps' keys; and estimation never reads an out-sample cell.
"""

import argparse
import json
import sys
from collections import Counter
from datetime import date

import numpy as np
import pytest

import portcut
import portcut.cli
from portcut import PriceMatrix, block_factor_market
from portcut.backtest import STRATEGIES
from portcut.cli import main
from portcut.errors import InvalidInputError
from portcut.market_graph import timestamp_sort_key

from conftest import make_prices, write_prices_csv


def one_json_error(stderr: str) -> dict:
    lines = stderr.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.fixture
def stage_counts(monkeypatch):
    """Count calls of each estimation stage, wherever in portcut it is looked up."""
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("portcut")]
    for name in ("simple_returns", "sample_covariance", "market_graph_from_covariance",
                 "build_cut_tree"):
        original = getattr(portcut, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    post_init = PriceMatrix.__post_init__

    def counted_post_init(self):
        counts["PriceMatrix"] += 1
        post_init(self)
    monkeypatch.setattr(PriceMatrix, "__post_init__", counted_post_init)
    return counts


@pytest.fixture
def market_csvs(tmp_path):
    """Blocks of 4 and 3 assets, as is and with one more asset flat on every row."""
    prices, _ = block_factor_market((4, 3), 60, seed=8)
    paths = {"clean": tmp_path / "clean.csv", "flat": tmp_path / "flat.csv"}
    write_prices_csv(paths["clean"], prices)
    write_prices_csv(paths["flat"], make_prices([*prices.prices.T, np.full(61, 7.5)],
                                                prices.asset_ids + ("flat",),
                                                prices.timestamps))
    return {name: str(path) for name, path in paths.items()}


class TestStagesRunOnce:
    @pytest.mark.parametrize("csv, drop", [("clean", []), ("flat", ["--drop-degenerate"])])
    @pytest.mark.parametrize("command, trees", [
        (["cut", "--objective", "cutv"], 1),
        (["backtest", "--split-index", "30"], 2),
        (["backtest", "--split-date", "t00030", "--strategies", "mv,cutn-as2"], 1),
    ])
    def test_each_stage_runs_once(self, market_csvs, stage_counts, command, trees, csv, drop,
                                  capsys):
        argv = [command[0], market_csvs[csv], *command[1:], "--min-leaf-size", "1", *drop]
        assert main(argv) == 0, capsys.readouterr().err
        assert stage_counts == {"PriceMatrix": 1, "simple_returns": 1, "sample_covariance": 1,
                                "market_graph_from_covariance": 1, "build_cut_tree": trees}

    def test_manifest_counts_the_assets_held(self, market_csvs, capsys):
        for command in (["cut"], ["backtest", "--split-index", "30"]):
            assert main([command[0], market_csvs["flat"], *command[1:],
                         "--drop-degenerate"]) == 0
            manifest = json.loads(capsys.readouterr().out)["manifest"]
            assert (manifest["n_assets"], manifest["dropped_assets"]) == (7, ["flat"])


class TestOrderOfChecks:
    """Of two faults in one input, the one whose check comes first is reported."""

    @pytest.fixture
    def files(self, tmp_path):
        prices, _ = block_factor_market((3, 3), 40, seed=3)
        paths = {"missing": str(tmp_path / "missing.csv")}
        for name, matrix in (
                ("ok", prices),
                ("flat", make_prices([[5.0] * 8, [6.0] * 8])),
                ("short_flat", make_prices([[5.0] * 2, [6.0] * 2])),
                ("overflow", make_prices([[1e-300, 1e300, 1.0, 2.0, 1.0, 2.0],
                                          [1.0, 2.0, 1.0, 3.0, 2.0, 1.0]]))):
            paths[name] = str(tmp_path / f"{name}.csv")
            write_prices_csv(tmp_path / f"{name}.csv", matrix)
        return paths

    USAGE = (1, None)
    MISSING = (2, "InvalidInputError", "price file not found")
    SPLIT = (2, "InvalidInputError", "--split-date zzz leaves")
    RIDGE = (2, "InvalidInputError", "mv_ridge must be nonnegative and finite")
    LEAF = (2, "InvalidInputError", "min_leaf_size must be an integer >= 1")
    WINDOW = (2, "InvalidInputError", "split_index 1 leaves too little data")
    OVERFLOW = (2, "InvalidInputError", "return of asset 'a0' at return row 0")
    SHORT = (2, "InsufficientDataError", "need at least 2 return rows")

    @pytest.mark.parametrize("drop", [[], ["--drop-degenerate"]])
    @pytest.mark.parametrize("file, args, expected", [
        ("missing", ["backtest", "--split-index", "3", "--strategies", "warp"], USAGE),
        ("missing", ["backtest", "--split-date", "zzz"], MISSING),
        ("ok", ["backtest", "--split-date", "zzz", "--mv-ridge", "-1"], SPLIT),
        ("ok", ["backtest", "--split-index", "1", "--mv-ridge", "-1"], RIDGE),
        ("flat", ["backtest", "--split-index", "1"], WINDOW),
        ("missing", ["cut", "--min-leaf-size", "0"], MISSING),
        ("overflow", ["cut", "--min-leaf-size", "0"], LEAF),
        ("overflow", ["backtest", "--split-index", "2", "--min-leaf-size", "0"], LEAF),
        ("short_flat", ["cut"], SHORT),
    ])
    def test_first_check_wins(self, files, file, args, expected, drop, capsys):
        assert main([args[0], files[file], *args[1:], *drop]) == expected[0]
        err = capsys.readouterr().err
        if expected[1] is None:
            assert err.startswith("unknown strategy 'warp'")
        else:
            error = one_json_error(err)
            assert error["error"] == expected[1]
            assert error["message"].startswith(expected[2])

    @pytest.mark.parametrize("file, args, expected", [
        ("overflow", ["cut"], OVERFLOW),
        ("flat", ["backtest", "--split-index", "3", "--mv-ridge", "1"],
         (2, "DegenerateAssetError", "every asset has zero variance")),
    ])
    def test_later_stages_alone(self, files, file, args, expected, capsys):
        assert main([args[0], files[file], *args[1:], "--drop-degenerate"]) == expected[0]
        error = one_json_error(capsys.readouterr().err)
        assert (error["error"], error["message"][:len(expected[2])]) == expected[1:]


def old_timestamp_sort_key(label):
    try:
        return (0, date.fromisoformat(label))
    except ValueError:
        return (1, label)


def old_split_index(split_date, timestamps):
    key = old_timestamp_sort_key(split_date)
    return sum(1 for stamp in timestamps[1:] if old_timestamp_sort_key(stamp) <= key)


LABEL_FAMILIES = {
    "iso": ["1999-12-31", "2020-01-01", "2020-01-02", "2020-02-29", "2021-06-30",
            "2022-01-03"],
    "basic": ["19991231", "20200101", "20200102", "20200229", "20210630", "20220103"],
    "week": ["2019-W52-7", "2020-W01-1", "2020-W01-2", "2020-W09-6", "2021-W26-3",
             "2022-W01-1"],
    "counter": [f"t{i:05d}" for i in (0, 1, 2, 17, 300, 99999)],
    "non_ascii": ["١٩٩٩-١٢-٣١", "٢٠٢٠-٠١-٠١", "２０２０-０１-０２", "２０２１-０６-３０",
                  "²⁰²⁰-⁰¹-⁰¹", "߂߀߂߀-߀߁-߀߁"],
    "mixed": ["", "0000", "2020", "2020-01-01", "2020-13-01", "2020-W54-1", "t1"],
}


class TestSplitByBinarySearch:
    @pytest.mark.parametrize("family", sorted(LABEL_FAMILIES))
    def test_keys_equal_the_try_every_label_key(self, family):
        for label in LABEL_FAMILIES[family]:
            assert timestamp_sort_key(label) == old_timestamp_sort_key(label), label

    @pytest.mark.parametrize("family", sorted(LABEL_FAMILIES))
    def test_split_index_equals_the_counting_one(self, family):
        stamps = tuple(sorted(LABEL_FAMILIES[family], key=timestamp_sort_key))
        matrix = make_prices([np.linspace(1.0, 2.0, len(stamps))], timestamps=stamps)
        probes = {label for labels in LABEL_FAMILIES.values() for label in labels}
        probes |= {"", "zzz", "0", "9999-12-31", "0001-01-01", "t00001", "t"}
        for probe in sorted(probes):
            args = argparse.Namespace(split_date=probe, split_index=None)
            expected = old_split_index(probe, stamps)
            if 2 <= expected <= len(stamps) - 3:
                assert portcut.cli._resolve_split(args, matrix) == expected, probe
            else:
                with pytest.raises(InvalidInputError, match=f"leaves {expected} in-sample"):
                    portcut.cli._resolve_split(args, matrix)


class TestNoLookAhead:
    """A blank out-sample cell must not move any strategy's in-sample weights."""

    @pytest.fixture
    def runs(self, tmp_path):
        prices, _ = block_factor_market((10, 8, 6), 400, seed=5)
        clean = tmp_path / "clean.csv"
        write_prices_csv(clean, prices)
        lines = clean.read_text().splitlines(keepends=True)
        cells = lines[1 + 350].split(",")
        cells[1 + 3] = ""  # the fourth asset at data row 350, out of sample
        lines[1 + 350] = ",".join(cells)
        gap = tmp_path / "gap.csv"
        gap.write_text("".join(lines))

        def run(path, policy):
            out = tmp_path / f"{path.stem}-{policy}.json"
            code = main(["backtest", str(path), "--split-index", "200", "--max-cuts", "3",
                         "--missing-policy", policy, "-o", str(out)])
            if code:
                return code
            strategies = json.loads(out.read_text())["strategies"]
            return {label: strategies[label]["weights"] for label in STRATEGIES}
        return clean, gap, run

    def test_error_policy_names_the_cell(self, runs, capsys):
        clean, gap, run = runs
        assert run(gap, "error") == 2
        error = one_json_error(capsys.readouterr().err)
        assert error["error"] == "InvalidInputError"
        assert error["message"] == f"{gap}:352: missing price in column 'B0_003'"

    def test_drop_rows_keeps_every_weight(self, runs):
        clean, gap, run = runs
        assert run(gap, "drop-rows") == run(clean, "drop-rows")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
    def test_drop_assets_keeps_every_weight(self, runs):
        clean, gap, run = runs
        assert run(gap, "drop-assets") == run(clean, "drop-assets")
