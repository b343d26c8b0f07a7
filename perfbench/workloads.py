"""The benchmark's workloads: input generation, the timed op and its check.

Every input comes from ``portcut.synthetic.block_factor_market`` and the
workload seed, so the same seed gives the same inputs. The program receives
only the generated CSV (CLI workloads) or the generated graph (library
workloads). Ops call portcut through module attributes (``portcut.tree.
build_cut_tree``, not a name bound at import) so the traced run can wrap them.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

import numpy as np

import portcut.allocation
import portcut.cli
import portcut.spectral
import portcut.tree
from portcut.allocation import AllocationScheme
from portcut.market_graph import market_graph_from_covariance, sample_covariance, simple_returns
from portcut.spectral import CutObjective
from portcut.synthetic import block_factor_market
from portcut.tree import CutPolicy, LeafSelection

import check

ALL_STRATEGIES = ("ew", "mv", "cutn-as1", "cutn-as2", "cutv-as1", "cutv-as2")


def write_price_csv(path: str, prices, blank=None) -> None:
    """Write a PriceMatrix as CSV; cells where ``blank`` is true are left empty."""
    with open(path, "w") as handle:
        handle.write(",".join(("date",) + prices.asset_ids) + "\n")
        for t, row in enumerate(prices.prices.tolist()):
            cells = [repr(v) for v in row]
            if blank is not None:
                for j in np.flatnonzero(blank[t]):
                    cells[j] = ""
            handle.write(prices.timestamps[t] + "," + ",".join(cells) + "\n")


class Workload:
    """One workload at a fixed size; ``tiny`` shrinks it for the self-test.

    A run builds ``variants`` instances from consecutive seeds and cycles its
    ops through them.
    """

    name = ""
    why = ""
    variants = 1

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self._reference = None

    def generate(self) -> None:
        """Build the inputs (set-up)."""
        raise NotImplementedError

    def op(self):
        """The timed operation; returns what ``outputs`` needs."""
        raise NotImplementedError

    def outputs(self, result) -> Dict[str, bytes]:
        """The op's output bytes, compared across ops for determinism."""
        raise NotImplementedError

    def check(self, outputs: Dict[str, bytes]) -> List[str]:
        """Problems with the outputs; empty when they are correct."""
        raise NotImplementedError


class CliWorkload(Workload):
    """One in-process ``portcut backtest`` writing report, wealth CSV and SVG."""

    def _paths(self):
        return {name: os.path.join(self.workdir, name)
                for name in ("report.json", "wealth.csv", "wealth.svg")}

    def argv(self) -> List[str]:
        paths = self._paths()
        return ["-o", paths["report.json"], "--wealth-csv", paths["wealth.csv"],
                "--svg", paths["wealth.svg"]]

    def op(self):
        return portcut.cli.main(self.argv())

    def outputs(self, result) -> Dict[str, bytes]:
        out = {"exit": str(result).encode()}
        for name, path in self._paths().items():
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    out[name] = handle.read()
                os.remove(path)
        return out

    def check(self, outputs):
        if self._reference is None:
            self._reference = self.reference()
        return check.check_backtest(outputs, self._reference)


class BacktestCli(CliWorkload):
    name = "backtest-cli"
    why = ("the user-facing six-strategy backtest CLI; touches every layer and is "
           "dominated by 16 Fiedler solves, 2 of 4 trees duplicated")
    # Jacobi work differs by up to 30% between markets of one shape, so a
    # run's median covers four markets rather than hinging on one seed.
    variants = 4

    def generate(self):
        self.blocks = (5, 4, 3) if self.tiny else (40, 30, 20, 10)
        n_periods = 60 if self.tiny else 1000
        self.max_cuts = 2 if self.tiny else 4
        self.split_index = n_periods // 2
        self.prices, _ = block_factor_market(self.blocks, n_periods=n_periods, seed=self.seed)
        self.csv_path = os.path.join(self.workdir, "prices.csv")
        write_price_csv(self.csv_path, self.prices)

    def argv(self):
        return ["backtest", self.csv_path, "--split-index", str(self.split_index),
                "--strategies", ",".join(ALL_STRATEGIES), "--max-cuts", str(self.max_cuts),
                "--min-leaf-size", "1"] + super().argv()

    def reference(self):
        return check.BacktestReference(
            prices=self.prices.prices, split_index=self.split_index,
            labels=ALL_STRATEGIES, dropped_rows=0, max_cuts=self.max_cuts, min_leaf_size=1,
        )


class IngestLong(CliWorkload):
    name = "ingest-long"
    why = ("a long 18.6 MB CSV with blank cells through drop-rows, MV at N=200 and "
           "long wealth curves; bypasses spectral and tree code")

    BLANK_SHARE = 0.0005

    def generate(self):
        blocks = (4, 4) if self.tiny else (50, 50, 50, 50)
        n_periods = 80 if self.tiny else 5000
        share = 0.02 if self.tiny else self.BLANK_SHARE
        self.prices, _ = block_factor_market(blocks, n_periods=n_periods, seed=self.seed)
        rng = np.random.default_rng([self.seed, 1])
        self.blank = rng.random(self.prices.prices.shape) < share
        self.kept = ~self.blank.any(axis=1)
        kept_dates = [d for d, k in zip(self.prices.timestamps, self.kept) if k]
        # Returns dated by period end: the split date keeps half the kept rows in-sample.
        self.split_index = len(kept_dates) // 2
        self.split_date = kept_dates[self.split_index]
        self.csv_path = os.path.join(self.workdir, "prices.csv")
        write_price_csv(self.csv_path, self.prices, self.blank)

    def argv(self):
        return ["backtest", self.csv_path, "--split-date", self.split_date,
                "--strategies", "ew,mv", "--missing-policy", "drop-rows"] + super().argv()

    def reference(self):
        return check.BacktestReference(
            prices=self.prices.prices[self.kept], split_index=self.split_index,
            labels=("ew", "mv"), dropped_rows=int((~self.kept).sum()),
            max_cuts=0, min_leaf_size=1,
        )


def _graph(blocks, n_periods, seed, across_corr=0.1):
    prices, _ = block_factor_market(blocks, n_periods=n_periods, seed=seed,
                                    across_corr=across_corr)
    returns = simple_returns(prices)
    return market_graph_from_covariance(sample_covariance(returns), asset_ids=prices.asset_ids)


class CutDeep(Workload):
    name = "cut-deep"
    why = ("library tree builds at N=64 in 8 blocks: many small solves, rejected cuts "
           "and per-leaf induced subgraphs; no ingest or serialization")

    WITHIN = 0.9

    def generate(self):
        block, n_blocks = (3, 4) if self.tiny else (8, 8)
        self.graph = _graph([block] * n_blocks, 100 if self.tiny else 500, self.seed,
                            across_corr=0.05)
        k = block * n_blocks // 2 - 1
        # Thresholds sit between the lambda2 of a mixed leaf and of a pure
        # block, so the volume policy rejects every pure block it tries.
        thresholds = {CutObjective.NORMALIZED: 0.6 * block * self.WITHIN,
                      CutObjective.VOLUME_NORMALIZED: 0.8}
        self.plan = []
        for objective in CutObjective:
            self.plan.append((objective, "vertices", CutPolicy(max_cuts=k, min_leaf_size=2)))
            self.plan.append((objective, "volume", CutPolicy(
                max_cuts=k, lambda2_threshold=thresholds[objective],
                leaf_selection=LeafSelection.LARGEST_VOLUME, min_leaf_size=2)))

    def op(self):
        built = []
        for objective, label, policy in self.plan:
            tree = portcut.tree.build_cut_tree(self.graph, policy, objective)
            weights = {scheme.value: portcut.allocation.asset_weights(
                tree, portcut.allocation.allocate(tree, scheme)) for scheme in AllocationScheme}
            built.append((objective, label, policy, tree, weights))
        return built

    def outputs(self, result):
        trees = []
        for objective, label, policy, tree, weights in result:
            trees.append({
                "objective": objective.value,
                "policy": label,
                "lambda2_threshold": policy.lambda2_threshold,
                "min_leaf_size": policy.min_leaf_size,
                "k_performed": tree.k_performed,
                "leaf_ids": list(tree.leaf_ids),
                "nodes": [{"id": node.id, "members": list(node.members), "depth": node.depth,
                           "children": list(node.children),
                           "lambda2_at_split": node.lambda2_at_split}
                          for node in tree.nodes.values()],
                "weights": {scheme: wv.weights.tolist() for scheme, wv in weights.items()},
            })
        return {"trees.json": json.dumps({"trees": trees}, sort_keys=True).encode()}

    def check(self, outputs):
        return check.check_trees(json.loads(outputs["trees.json"]), self.graph.weights)


class Oracle(Workload):
    name = "oracle"
    why = ("brute-force enumeration of 2 x 32,767 bipartitions at N=16 plus the spectral "
           "cut; the only workload on the scalar objective path")

    def generate(self):
        blocks = (5, 4) if self.tiny else (9, 7)
        self.graph = _graph(blocks, 250, self.seed)

    def op(self):
        return {objective.value: (portcut.spectral.brute_force_min_cut(self.graph, objective),
                                  portcut.spectral.spectral_bisect(self.graph, objective))
                for objective in CutObjective}

    def outputs(self, result):
        doc = {}
        for objective, (oracle, spectral) in result.items():
            doc[objective] = {
                "oracle": {"side_of": oracle.side_of.tolist(),
                           "objective_value": oracle.objective_value},
                "spectral": {"side_of": spectral.side_of.tolist(),
                             "objective_value": spectral.objective_value,
                             "lambda2": spectral.lambda2},
            }
        return {"cuts.json": json.dumps(doc, sort_keys=True).encode()}

    def check(self, outputs):
        if self._reference is None:
            self._reference = {objective.value: check.enumerate_min_cut(
                self.graph.weights, objective.value) for objective in CutObjective}
        return check.check_oracle(json.loads(outputs["cuts.json"]), self.graph.weights,
                                  self._reference)


WORKLOADS = {cls.name: cls for cls in (BacktestCli, CutDeep, IngestLong, Oracle)}
