"""Metamorphic relations of the whole `cut` and `backtest` pipeline.

Each relation transforms a price file in a way the pipeline must respect,
runs both files through in-process `main`, and compares the outputs: byte
for byte where the relation is exact, and to a stated tolerance for `mv`.
Every run uses the same relative file names from its own directory, so even
the manifest's ``input_path`` matches.
"""

import json

import numpy as np
import pytest

from portcut import CutObjective, MarketGraph, block_factor_market, spectral_bisect
from portcut.backtest import STRATEGIES
from portcut.cli import main

from conftest import make_prices, write_prices_csv

MARKETS = [((6, 5, 4), 160, 1), ((5, 4, 3), 120, 2), ((10, 8, 6), 300, 3)]
POLICY = ["--max-cuts", "3", "--min-leaf-size", "1"]


def market(blocks, n_periods, seed):
    return block_factor_market(blocks, n_periods, seed=seed)[0]


def run_pipeline(folder, monkeypatch, text, *flags):
    """Output bytes of `cut` and `backtest`, which must both succeed, on the file ``text``."""
    folder.mkdir()
    monkeypatch.chdir(folder)
    (folder / "prices.csv").write_bytes(text.encode())
    split = str(len(text.splitlines()) // 2)
    codes = (main(["cut", "prices.csv", *POLICY, *flags, "-o", "tree.json"]),
             main(["backtest", "prices.csv", "--split-index", split, *POLICY, *flags,
                   "-o", "report.json", "--wealth-csv", "wealth.csv", "--svg", "wealth.svg"]))
    assert codes == (0, 0)
    return {path.name: path.read_bytes() for path in sorted(folder.iterdir())
            if path.name != "prices.csv"}


def report_weights(folder, monkeypatch, text, *flags):
    """Each strategy's weights, by asset, from a `backtest` of ``text`` under ``flags``."""
    folder.mkdir()
    monkeypatch.chdir(folder)
    (folder / "prices.csv").write_bytes(text.encode())
    assert main(["backtest", "prices.csv", *flags, "-o", "report.json"]) == 0
    report = json.loads((folder / "report.json").read_text())
    return {label: dict(zip(report["asset_ids"], entry["weights"]))
            for label, entry in report["strategies"].items()}


def csv_text(prices, tmp_path):
    write_prices_csv(tmp_path / "source.csv", prices)
    return (tmp_path / "source.csv").read_text()


@pytest.mark.parametrize("blocks, n_periods, seed", MARKETS)
class TestRelations:
    def test_scaling_a_column_by_four_changes_nothing(self, blocks, n_periods, seed,
                                                      tmp_path, monkeypatch):
        prices = market(blocks, n_periods, seed)
        columns = prices.prices.copy()
        columns[:, seed] *= 4.0  # exact in binary floating point
        scaled = make_prices(columns.T, prices.asset_ids, prices.timestamps)
        assert (run_pipeline(tmp_path / "a", monkeypatch, csv_text(prices, tmp_path))
                == run_pipeline(tmp_path / "b", monkeypatch, csv_text(scaled, tmp_path)))

    def test_crlf_changes_nothing(self, blocks, n_periods, seed, tmp_path, monkeypatch):
        text = csv_text(market(blocks, n_periods, seed), tmp_path)
        assert (run_pipeline(tmp_path / "a", monkeypatch, text)
                == run_pipeline(tmp_path / "b", monkeypatch, text.replace("\n", "\r\n")))

    def test_nan_reads_as_a_blank_cell(self, blocks, n_periods, seed, tmp_path,
                                       monkeypatch):
        lines = csv_text(market(blocks, n_periods, seed), tmp_path).splitlines(keepends=True)
        rng = np.random.default_rng(seed)
        variants = {"": list(lines), "nan": list(lines)}
        for row in rng.choice(np.arange(1, len(lines)), size=6, replace=False):
            cells = lines[row].rstrip("\n").split(",")
            column = int(rng.integers(1, len(cells)))
            for marker, variant in variants.items():
                variant[row] = ",".join(cells[:column] + [marker] + cells[column + 1:]) + "\n"
        outputs = [run_pipeline(tmp_path / (marker or "blank"), monkeypatch, "".join(variant),
                                "--missing-policy", "drop-rows")
                   for marker, variant in variants.items()]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("policy", ["error", "drop-rows"])
    def test_rows_after_the_out_sample_change_no_weight(self, blocks, n_periods, seed, policy,
                                                        tmp_path, monkeypatch):
        lines = csv_text(market(blocks, n_periods, seed), tmp_path).splitlines(keepends=True)
        base, split = lines[:len(lines) - 40], (len(lines) - 40) // 2
        appended = lines[len(lines) - 40:]
        if policy == "drop-rows":  # a blank cell in an appended row drops only that row
            appended[3] = ",".join(appended[3].split(",")[:-1] + ["\n"])
        flags = [*POLICY, "--missing-policy", policy, "--split-index", str(split)]
        weights = [report_weights(tmp_path / name, monkeypatch, "".join(text), *flags)
                   for name, text in (("base", base), ("longer", base + appended))]
        assert set(weights[0]) == set(STRATEGIES)
        assert weights[0] == weights[1]

    @pytest.mark.parametrize("split_by", ["index", "date"])
    @pytest.mark.parametrize("policy", ["error", "drop-rows"])
    def test_changed_out_sample_rows_change_no_weight(self, blocks, n_periods, seed, policy,
                                                      split_by, tmp_path, monkeypatch):
        prices = market(blocks, n_periods, seed)
        split = prices.n_rows // 2  # return rows [0, split) read price rows 0..split
        base = prices.prices.copy()
        flags = [*POLICY, "--missing-policy", policy]
        if split_by == "index":
            flags += ["--split-index", str(split)]
        else:  # the first asset is flat in-sample, so --drop-degenerate drops it
            base[:split + 1, 0] = base[0, 0]
            flags += ["--split-date", prices.timestamps[split], "--drop-degenerate"]
        changed = base.copy()
        rng = np.random.default_rng(seed)
        changed[split + 1:] *= rng.uniform(0.5, 2.0, base[split + 1:].shape)
        texts = [csv_text(make_prices(columns.T, prices.asset_ids, prices.timestamps), tmp_path)
                 for columns in (base, changed)]
        if policy == "drop-rows":  # a blank cell in a changed row drops only that row
            lines = texts[1].splitlines(keepends=True)
            lines[split + 5] = ",".join(lines[split + 5].split(",")[:-1] + ["\n"])
            texts[1] = "".join(lines)
        assert texts[0].splitlines()[:split + 2] == texts[1].splitlines()[:split + 2]
        weights = [report_weights(tmp_path / name, monkeypatch, text, *flags)
                   for name, text in zip(("base", "changed"), texts)]
        assert set(weights[0]) == set(STRATEGIES)
        assert weights[0] == weights[1]

    def test_date_column_last_and_semicolons_change_nothing(self, blocks, n_periods, seed,
                                                            tmp_path, monkeypatch):
        text = csv_text(market(blocks, n_periods, seed), tmp_path)
        moved = "".join(";".join(cells[1:] + cells[:1]) + "\n"
                        for cells in (line.split(",") for line in text.splitlines()))
        assert (run_pipeline(tmp_path / "a", monkeypatch, text)
                == run_pipeline(tmp_path / "b", monkeypatch, moved, "--delimiter", ";"))

    def test_permuting_columns_permutes_weights(self, blocks, n_periods, seed, tmp_path,
                                                monkeypatch):
        prices = market(blocks, n_periods, seed)
        order = np.random.default_rng(seed).permutation(prices.n_assets)
        permuted = make_prices(prices.prices[:, order].T,
                               [prices.asset_ids[i] for i in order], prices.timestamps)
        runs = [run_pipeline(tmp_path / name, monkeypatch, csv_text(matrix, tmp_path))
                for name, matrix in (("a", prices), ("b", permuted))]
        leaves, weights = [], []
        for outputs in runs:
            tree = json.loads(outputs["tree.json"])
            leaves.append({frozenset(tree["asset_ids"][m] for m in node["members"])
                           for node in tree["nodes"] if node["is_leaf"]})
            report = json.loads(outputs["report.json"])
            weights.append({label: dict(zip(report["asset_ids"],
                                            report["strategies"][label]["weights"]))
                            for label in STRATEGIES})
        assert leaves[0] == leaves[1]
        assert len(leaves[0]) == 4
        for label in STRATEGIES:
            if label != "mv":
                assert weights[0][label] == weights[1][label], label
        mv = [np.array([run["mv"][a] for a in prices.asset_ids]) for run in weights]
        np.testing.assert_allclose(mv[1], mv[0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_cut_then_allocate_gives_the_backtest_weights(seed, tmp_path, monkeypatch):
    # `cut` on the in-sample price rows, then `allocate`, is each cut strategy's estimation.
    prices = market((40, 30, 20, 10), 400, seed)
    lines = csv_text(prices, tmp_path).splitlines(keepends=True)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "all.csv").write_text("".join(lines))
    (tmp_path / "in.csv").write_text("".join(lines[:1 + 201]))  # the header, then rows 0..200
    policy = ["--max-cuts", "4"]
    assert main(["backtest", "all.csv", "--split-index", "200", *policy,
                 "-o", "report.json"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    for objective in ("cutn", "cutv"):
        assert main(["cut", "in.csv", *policy, "--objective", objective,
                     "-o", f"{objective}.json"]) == 0
        for scheme in ("as1", "as2"):
            assert main(["allocate", "--tree", f"{objective}.json", "--scheme", scheme,
                         "-o", "weights.json"]) == 0
            allocated = json.loads((tmp_path / "weights.json").read_text())["weights"]
            assert [entry["asset_id"] for entry in allocated] == report["asset_ids"]
            assert ([entry["weight"] for entry in allocated]
                    == report["strategies"][f"{objective}-{scheme}"]["weights"])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_permuting_a_repeated_lambda2_graph_keeps_its_split():
    # Three equal blocks of 6, 0.9 within and 0.1 across, repeat λ2: the eigensolver's
    # choice of u2 in that eigenspace, not the graph, decides which block is cut off.
    block = np.arange(18) // 6
    weights = np.where(block[:, None] == block[None, :], 0.9, 0.1)
    ids = [f"a{i}" for i in range(18)]

    def split(order, objective):
        graph = MarketGraph(weights[np.ix_(order, order)], tuple(ids[i] for i in order))
        side = spectral_bisect(graph, objective).side_of
        return {frozenset(a for a, s in zip(graph.asset_ids, side) if s == k) for k in (1, 2)}

    changed = {objective.value: [
        seed for seed in range(20)
        if split(np.random.default_rng(seed).permutation(18), objective)
        != split(np.arange(18), objective)] for objective in CutObjective}
    assert changed == {"cutn": [], "cutv": []}
