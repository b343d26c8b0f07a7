"""Repeated cuts, the resulting tree, and the two capital-allocation schemes.

A graph with nested structure (tight pairs inside medium quads) is cut four
times. The depth scheme halves a cluster's capital per cut on its path; the
flat scheme spreads capital evenly over the K+1 leaves. Within a leaf every
asset receives the same share.
"""

import numpy as np

from portcut import (
    AllocationScheme,
    CutPolicy,
    MarketGraph,
    allocate,
    asset_weights,
    build_cut_tree,
    edge_budget_trace,
)

np.set_printoptions(precision=4, suppress=True)

# pairs (0,1) (2,3) (4,5) (6,7) at 0.9; quads at 0.6; across quads 0.1
w = np.full((8, 8), 0.1)
for base in (0, 4):
    for i in range(base, base + 4):
        for j in range(i + 1, base + 4):
            w[i, j] = w[j, i] = 0.6
for i, j in ((0, 1), (2, 3), (4, 5), (6, 7)):
    w[i, j] = w[j, i] = 0.9
np.fill_diagonal(w, 0.0)
graph = MarketGraph(w)

tree = build_cut_tree(graph, CutPolicy(max_cuts=4, min_leaf_size=1))
print("cuts performed:", tree.k_performed, "-> leaves:", len(tree.leaf_ids))
for leaf in tree.leaves():
    print(f"  leaf {leaf.id}: members {leaf.members}, depth {leaf.depth}")

print("\nsplit lambda2 by node:")
for node in tree.nodes.values():
    if not node.is_leaf:
        print(f"  node {node.id} {node.members} -> lambda2 {node.lambda2_at_split:.4f}")

# Edge budget: leaves model only within-cluster edges, so each cut shrinks
# the dense-model edge count sum(N_i (N_i + 1) / 2).
trace = edge_budget_trace(tree)
print("\nedge budget after each cut:", trace)
print("final budget:", trace[-1], "vs 36 for the uncut graph")

as1 = allocate(tree, AllocationScheme.AS1)
as2 = allocate(tree, AllocationScheme.AS2)
print("\ndepth scheme per leaf:", {k: round(v, 4) for k, v in as1.per_leaf.items()})
print("flat scheme per leaf :", {k: round(v, 4) for k, v in as2.per_leaf.items()})
print("each sums to", sum(as1.per_leaf.values()), "and", sum(as2.per_leaf.values()))

w1 = asset_weights(tree, as1)
w2 = asset_weights(tree, as2)
print("\nper-asset weights, depth scheme:", w1.weights)
print("per-asset weights, flat scheme :", w2.weights)
print("sums:", w1.weights.sum(), w2.weights.sum())
