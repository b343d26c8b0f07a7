"""Hierarchical cut trees built by repeated spectral bisection.

Each cut selects one eligible leaf (most vertices or largest volume within
its induced subgraph), bisects it, and replaces it by two children. K cuts
always yield K+1 leaves that partition the asset universe.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from enum import Enum
from types import MappingProxyType
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, PortfolioCutError
from .market_graph import MarketGraph, _real
from .spectral import CutObjective, spectral_bisect

__all__ = [
    "LeafSelection",
    "CutPolicy",
    "CutTreeNode",
    "CutTree",
    "build_cut_tree",
    "select_leaf",
    "induced_subgraph",
    "edge_budget_trace",
]


class LeafSelection(Enum):
    MOST_VERTICES = "vertices"
    LARGEST_VOLUME = "volume"


@dataclass(frozen=True)
class CutPolicy:
    """Controls how many cuts run and which leaf is cut next.

    ``max_cuts`` bounds the number of executed cuts. When
    ``lambda2_threshold`` is set, a candidate leaf whose lambda2 exceeds the
    threshold is marked ineligible instead of cut (well-connected clusters
    stay whole). ``min_leaf_size`` keeps every produced leaf at or above the
    given size; the default of 2 forbids singleton leaves.
    """

    max_cuts: int
    lambda2_threshold: Optional[float] = None
    leaf_selection: LeafSelection = LeafSelection.MOST_VERTICES
    min_leaf_size: int = 2

    def __post_init__(self):
        if not isinstance(self.max_cuts, numbers.Integral) or self.max_cuts < 0:
            raise InvalidInputError("max_cuts must be an integer >= 0")
        if self.lambda2_threshold is not None and not 0 < _real(self.lambda2_threshold) < np.inf:
            raise InvalidInputError("lambda2_threshold must be positive and finite when set")
        if not isinstance(self.leaf_selection, LeafSelection):
            raise InvalidInputError("leaf_selection must be a LeafSelection")
        if not isinstance(self.min_leaf_size, numbers.Integral) or self.min_leaf_size < 1:
            raise InvalidInputError("min_leaf_size must be an integer >= 1")


@dataclass(frozen=True)
class CutTreeNode:
    """One node of a cut tree; members index into the root graph."""

    id: int
    members: Tuple[int, ...]
    depth: int
    lambda2_at_split: Optional[float] = None
    children: Tuple[int, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CutTree:
    """Binary tree of repeated portfolio cuts.

    Trees are immutable: `CutTree.root` makes the uncut tree and
    `CutTree.split` returns a new tree with one more cut. ``leaf_ids`` keeps
    dendrogram order: a split leaf is replaced in place by its two children.
    """

    nodes: Mapping[int, CutTreeNode]
    root_id: int
    objective: CutObjective
    leaf_ids: Tuple[int, ...]
    asset_ids: Tuple[str, ...]

    @classmethod
    def root(cls, asset_ids: Sequence[str], objective: CutObjective) -> CutTree:
        """The uncut tree: one leaf holding every asset."""
        asset_ids = tuple(asset_ids)
        if not asset_ids:
            raise InvalidInputError("a cut tree needs at least one asset")
        if not isinstance(objective, CutObjective):
            raise InvalidInputError("objective must be a CutObjective")
        root = CutTreeNode(id=0, members=tuple(range(len(asset_ids))), depth=0)
        return cls(nodes=MappingProxyType({0: root}), root_id=0, objective=objective,
                   leaf_ids=(0,), asset_ids=asset_ids)

    def split(self, leaf_id: int, left: Sequence[int], right: Sequence[int],
              lambda2: float) -> CutTree:
        """A new tree in which leaf ``leaf_id`` is cut into ``left`` and ``right``.

        The children get the next two ids, ``len(nodes)`` and ``len(nodes) + 1``,
        so `splits` can replay the build order; members are stored as `int` and
        ``lambda2`` as `float`. Raises `InvalidInputError` unless ``leaf_id`` is a
        leaf, ``lambda2`` is finite and the sides are integers partitioning its members.
        """
        if leaf_id not in self.leaf_ids:
            raise InvalidInputError(f"node {leaf_id!r} is not a leaf of the tree")
        leaf = self.nodes[leaf_id]
        left, right, lambda2 = tuple(left), tuple(right), _real(lambda2)
        if not (all(isinstance(m, numbers.Integral) for m in left + right)
                and -np.inf < lambda2 < np.inf):
            raise InvalidInputError("split members must be integers and lambda2 a finite number")
        left, right = tuple(map(int, left)), tuple(map(int, right))
        if not left or not right or sorted(left + right) != sorted(leaf.members):
            raise InvalidInputError(
                f"split sides must be nonempty and partition the members of leaf {leaf_id}"
            )
        left_id, right_id = len(self.nodes), len(self.nodes) + 1
        nodes = dict(self.nodes)
        nodes[leaf_id] = replace(leaf, children=(left_id, right_id),
                                 lambda2_at_split=lambda2)
        nodes[left_id] = CutTreeNode(id=left_id, members=left, depth=leaf.depth + 1)
        nodes[right_id] = CutTreeNode(id=right_id, members=right, depth=leaf.depth + 1)
        leaf_ids = tuple(child for i in self.leaf_ids
                         for child in ((left_id, right_id) if i == leaf_id else (i,)))
        return replace(self, nodes=MappingProxyType(nodes), leaf_ids=leaf_ids)

    @property
    def k_performed(self) -> int:
        return len(self.leaf_ids) - 1

    def leaves(self) -> List[CutTreeNode]:
        return [self.nodes[i] for i in self.leaf_ids]

    def splits(self) -> List[CutTreeNode]:
        """Internal nodes in the order they were split.

        `split` gives children consecutive ids, so ordering internal nodes by
        their first child id reconstructs the build sequence.
        """
        return sorted((node for node in self.nodes.values() if not node.is_leaf),
                      key=lambda node: node.children[0])


def induced_subgraph(graph: MarketGraph, members) -> MarketGraph:
    """Restriction of the graph to ``members``.

    Its degrees and Laplacian derive from the weight submatrix, not the
    parent graph, so edges severed by earlier cuts do not count.
    """
    idx = np.asarray(members, dtype=int)
    if idx.size == 0:
        raise InvalidInputError("members must be nonempty")
    if len(np.unique(idx)) != idx.size:
        raise InvalidInputError("members must be unique")
    if idx.min() < 0 or idx.max() >= graph.n_vertices:
        raise InvalidInputError(
            f"members out of range for a graph with {graph.n_vertices} vertices"
        )
    return MarketGraph(graph.weights[np.ix_(idx, idx)],
                       tuple(graph.asset_ids[i] for i in idx.tolist()))


def select_leaf(tree: CutTree, graph: MarketGraph, policy: CutPolicy,
                exclude=frozenset()) -> Optional[int]:
    """Next leaf to cut under the policy, or None if no leaf is eligible.

    A leaf is eligible when it holds at least ``2 * min_leaf_size`` members
    and is not in ``exclude`` (the builder passes leaves already rejected by
    the lambda2 threshold). Ties break toward the leaf containing the
    smallest asset index.
    """
    def key(node: CutTreeNode):
        if policy.leaf_selection is LeafSelection.MOST_VERTICES:
            return -float(node.size), min(node.members)
        # The volume of the induced subgraph (the sum of its degrees), without building it.
        m = node.members
        return -float(graph.weights[np.ix_(m, m)].sum(axis=1).sum()), min(m)

    eligible = [tree.nodes[i] for i in tree.leaf_ids
                if i not in exclude and tree.nodes[i].size >= 2 * policy.min_leaf_size]
    return min(eligible, key=key).id if eligible else None


def build_cut_tree(graph: MarketGraph, policy: CutPolicy,
                   objective: CutObjective = CutObjective.NORMALIZED) -> CutTree:
    """Grow a cut tree by repeated spectral bisection.

    Stops when ``policy.max_cuts`` cuts have run, when every remaining leaf
    is too small, or when the lambda2 threshold has marked every candidate
    ineligible. A candidate whose split would produce a child below
    ``min_leaf_size`` is likewise marked ineligible rather than split.

    Raises
    ------
    InvalidInputError
        For graphs with fewer than 2 vertices.
    PortfolioCutError subclasses
        Propagated from the spectral machinery with their type and details,
        the message prefixed with the leaf whose cut failed; vertex indices,
        such as ``DegenerateDegreeError.vertices``, index that leaf's members.
    """
    if graph.n_vertices < 2:
        raise InvalidInputError("cut tree needs a graph with at least 2 vertices")

    tree = CutTree.root(graph.asset_ids, objective)
    ineligible: set = set()

    while tree.k_performed < policy.max_cuts:
        leaf_id = select_leaf(tree, graph, policy, exclude=ineligible)
        if leaf_id is None:
            break
        leaf = tree.nodes[leaf_id]
        sub = induced_subgraph(graph, leaf.members)
        try:
            part = spectral_bisect(sub, objective)
        except PortfolioCutError as exc:
            message = f"failed to cut leaf {leaf_id} ({leaf.size} members): {exc}"
            raise type(exc)(message, **vars(exc)) from exc
        members = np.asarray(leaf.members)
        left, right = members[part.side_of == 1].tolist(), members[part.side_of == 2].tolist()
        if (policy.lambda2_threshold is not None and part.lambda2 > policy.lambda2_threshold
                or min(len(left), len(right)) < policy.min_leaf_size):
            ineligible.add(leaf_id)
            continue
        tree = tree.split(leaf_id, left, right, part.lambda2)

    return tree


def edge_budget_trace(tree: CutTree) -> List[int]:
    """Edge budget, the sum over leaves of N_i (N_i + 1) / 2, after 0, 1, ..., k_performed
    cuts, replaying `CutTree.splits`; the last entry is the finished tree's."""
    budget = {node.id: node.size * (node.size + 1) // 2 for node in tree.nodes.values()}
    trace = [budget[tree.root_id]]
    for node in tree.splits():
        trace.append(trace[-1] - budget[node.id] + sum(budget[c] for c in node.children))
    return trace
