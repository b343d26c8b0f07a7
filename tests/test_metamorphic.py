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

from portcut import block_factor_market
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
