"""Shared graph fixtures and small helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from portcut import (
    CutObjective,
    CutTree,
    CutTreeNode,
    MarketGraph,
    PriceMatrix,
    market_graph_from_weights,
)


def graph_from_edges(n: int, edges) -> MarketGraph:
    w = np.zeros((n, n))
    for i, j, v in edges:
        w[i, j] = w[j, i] = v
    return market_graph_from_weights(w)


def partition_sets(side_of) -> frozenset:
    """Side-label-free view of a bipartition, for comparing cuts."""
    side = np.asarray(side_of)
    return frozenset((
        frozenset(np.flatnonzero(side == 1).tolist()),
        frozenset(np.flatnonzero(side == 2).tolist()),
    ))


def complete_random_graph(rng: np.random.Generator, n: int,
                          low: float = 0.05, high: float = 1.0) -> MarketGraph:
    w = rng.uniform(low, high, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return market_graph_from_weights(w)


def planted_two_block_graph(rng: np.random.Generator, n: int):
    """Complete graph with intra-block weights at least 5x the inter-block ones."""
    n1 = int(rng.integers(2, n - 1))
    w = rng.uniform(0.02, 0.1, size=(n, n))
    w[:n1, :n1] = rng.uniform(0.5, 1.0, size=(n1, n1))
    w[n1:, n1:] = rng.uniform(0.5, 1.0, size=(n - n1, n - n1))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    truth = np.ones(n, dtype=int)
    truth[n1:] = 2
    return market_graph_from_weights(w), truth


def random_cut_tree(rng: np.random.Generator, n_assets: int, k: int) -> CutTree:
    """A syntactically valid cut tree from random splits (no spectral work)."""
    nodes = {0: CutTreeNode(id=0, members=tuple(range(n_assets)), depth=0)}
    leaf_ids = [0]
    next_id = 1
    performed = 0
    for _ in range(k):
        splittable = [i for i in leaf_ids if nodes[i].size >= 2]
        if not splittable:
            break
        leaf_id = int(rng.choice(splittable))
        leaf = nodes[leaf_id]
        cut_at = int(rng.integers(1, leaf.size))
        members = list(leaf.members)
        rng.shuffle(members)
        left = CutTreeNode(id=next_id, members=tuple(sorted(members[:cut_at])),
                           depth=leaf.depth + 1)
        right = CutTreeNode(id=next_id + 1, members=tuple(sorted(members[cut_at:])),
                            depth=leaf.depth + 1)
        next_id += 2
        nodes[left.id] = left
        nodes[right.id] = right
        leaf.children = (left.id, right.id)
        leaf.lambda2_at_split = float(rng.uniform(0.0, 1.0))
        pos = leaf_ids.index(leaf_id)
        leaf_ids[pos:pos + 1] = [left.id, right.id]
        performed += 1
    return CutTree(
        nodes=nodes,
        root_id=0,
        k_performed=performed,
        objective=CutObjective.NORMALIZED,
        leaf_ids=leaf_ids,
        asset_ids=tuple(f"a{i}" for i in range(n_assets)),
    )


@pytest.fixture
def figure_cut_graph() -> MarketGraph:
    """Two 4-cliques joined by exactly three edges weighing .32, .24 and .23."""
    return graph_from_edges(8, [
        (0, 1, 0.60), (0, 2, 0.55), (0, 3, 0.50),
        (1, 2, 0.65), (1, 3, 0.45), (2, 3, 0.70),
        (4, 5, 0.62), (4, 6, 0.58), (4, 7, 0.49),
        (5, 6, 0.66), (5, 7, 0.52), (6, 7, 0.71),
        (3, 4, 0.32), (2, 5, 0.24), (1, 6, 0.23),
    ])


@pytest.fixture
def nested_block_graph() -> MarketGraph:
    """8 assets: tight pairs, medium quads, weak across quads."""
    w = np.full((8, 8), 0.1)
    for base in (0, 4):
        for i in range(base, base + 4):
            for j in range(i + 1, base + 4):
                w[i, j] = w[j, i] = 0.6
    for i, j in ((0, 1), (2, 3), (4, 5), (6, 7)):
        w[i, j] = w[j, i] = 0.9
    np.fill_diagonal(w, 0.0)
    return market_graph_from_weights(w)


@pytest.fixture
def path4_graph() -> MarketGraph:
    return graph_from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


@pytest.fixture
def two_triangles_graph() -> MarketGraph:
    return graph_from_edges(6, [
        (0, 1, 0.8), (1, 2, 0.7), (0, 2, 0.9),
        (3, 4, 0.8), (4, 5, 0.7), (3, 5, 0.9),
    ])


@pytest.fixture
def three_components_graph() -> MarketGraph:
    return graph_from_edges(8, [
        (0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.85),
        (3, 4, 0.9), (4, 5, 0.8), (3, 5, 0.85),
        (6, 7, 0.95),
    ])


def make_prices(columns, asset_ids=None, timestamps=None) -> PriceMatrix:
    """PriceMatrix from a dict/sequence of price columns."""
    arr = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    ids = tuple(asset_ids) if asset_ids else tuple(f"a{i}" for i in range(arr.shape[1]))
    stamps = tuple(timestamps) if timestamps else tuple(
        f"t{r:04d}" for r in range(arr.shape[0])
    )
    return PriceMatrix(prices=arr, asset_ids=ids, timestamps=stamps)


def write_prices_csv(path, prices: PriceMatrix, date_column: str = "date") -> None:
    lines = [date_column + "," + ",".join(prices.asset_ids)]
    for stamp, row in zip(prices.timestamps, prices.prices):
        lines.append(stamp + "," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def single_leaf_tree_doc(members, asset_ids) -> dict:
    """A cut_tree document whose root is its only leaf."""
    return {
        "schema_version": 1,
        "kind": "cut_tree",
        "objective": "cutn",
        "root_id": 0,
        "k_performed": 0,
        "leaf_ids": [0],
        "asset_ids": list(asset_ids),
        "nodes": [{"id": 0, "depth": 0, "members": list(members), "children": [],
                   "lambda2_at_split": None, "is_leaf": True}],
    }
