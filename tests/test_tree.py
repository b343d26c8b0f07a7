import dataclasses
import operator

import numpy as np
import pytest

from portcut import (
    CutObjective,
    CutPolicy,
    CutTree,
    InvalidInputError,
    LeafSelection,
    build_cut_tree,
    edge_budget_trace,
    fiedler_vector,
    leaf_edge_budget,
    market_graph_from_weights,
)
from portcut.tree import induced_subgraph, select_leaf

from conftest import complete_random_graph, graph_from_edges


def leaves_as_sets(tree):
    return sorted(tuple(sorted(leaf.members)) for leaf in tree.leaves())


def chain_tree(leaf_members):
    """Handcrafted tree: a chain of splits peeling off the given leaves."""
    leaf_members = [tuple(m) for m in leaf_members]
    root_members = sorted(m for leaf in leaf_members for m in leaf)
    tree = CutTree.root([f"a{i}" for i in root_members], CutObjective.NORMALIZED)
    parent = tree.root_id
    for i in range(len(leaf_members) - 1):
        rest = tuple(sorted(m for leaf in leaf_members[i + 1:] for m in leaf))
        tree = tree.split(parent, leaf_members[i], rest, 0.1)
        parent = tree.nodes[parent].children[1]
    return tree


class TestInducedSubgraph:
    def test_full_membership_identity(self, figure_cut_graph):
        sub = induced_subgraph(figure_cut_graph, range(8))
        assert np.array_equal(sub.weights, figure_cut_graph.weights)
        assert np.array_equal(sub.degrees, figure_cut_graph.degrees)
        assert sub.asset_ids == figure_cut_graph.asset_ids

    def test_single_member_zero_graph(self, figure_cut_graph):
        sub = induced_subgraph(figure_cut_graph, [3])
        assert sub.weights.tolist() == [[0.0]]
        assert sub.degrees.tolist() == [0.0]
        assert sub.laplacian.tolist() == [[0.0]]

    def test_two_members_single_edge(self, figure_cut_graph):
        sub = induced_subgraph(figure_cut_graph, [2, 5])
        assert sub.weights[0, 1] == figure_cut_graph.weights[2, 5] == 0.24

    def test_degrees_recomputed_not_inherited(self, figure_cut_graph):
        sub = induced_subgraph(figure_cut_graph, [0, 1, 2, 3])
        # vertex 1 loses its crossing edge to 6
        full_degree = figure_cut_graph.degrees[1]
        assert sub.degrees[1] < full_degree
        np.testing.assert_allclose(sub.degrees, sub.weights.sum(axis=1), atol=0)

    def test_invalid_members(self, figure_cut_graph):
        with pytest.raises(InvalidInputError):
            induced_subgraph(figure_cut_graph, [])
        with pytest.raises(InvalidInputError):
            induced_subgraph(figure_cut_graph, [1, 1])
        with pytest.raises(InvalidInputError):
            induced_subgraph(figure_cut_graph, [7, 8])


class TestSelectLeaf:
    def test_most_vertices_picks_biggest(self, figure_cut_graph):
        tree = chain_tree([(0, 1, 2, 3, 4, 5), (6,), (7,)])
        policy = CutPolicy(max_cuts=1, min_leaf_size=1)
        got = select_leaf(tree, figure_cut_graph, policy)
        assert tree.nodes[got].members == (0, 1, 2, 3, 4, 5)

    def test_none_when_all_below_threshold(self, figure_cut_graph):
        tree = chain_tree([(0, 1, 2), (3, 4, 5), (6, 7)])
        policy = CutPolicy(max_cuts=1, min_leaf_size=2)
        assert select_leaf(tree, figure_cut_graph, policy) is None

    def test_size_tie_breaks_on_smallest_member(self, figure_cut_graph):
        tree = chain_tree([(4, 5, 6, 7), (0, 1, 2, 3)])
        policy = CutPolicy(max_cuts=1, min_leaf_size=1)
        got = select_leaf(tree, figure_cut_graph, policy)
        assert tree.nodes[got].members == (0, 1, 2, 3)

    def test_largest_volume_uses_induced_degrees(self):
        # pair (0,1) is heavy, pair (2,3) light; volume selection must see the
        # induced-subgraph degrees only.
        g = graph_from_edges(4, [(0, 1, 0.9), (2, 3, 0.2), (0, 2, 0.8), (1, 3, 0.8)])
        tree = chain_tree([(0, 1), (2, 3)])
        policy = CutPolicy(max_cuts=1, min_leaf_size=1,
                           leaf_selection=LeafSelection.LARGEST_VOLUME)
        got = select_leaf(tree, g, policy)
        assert tree.nodes[got].members == (0, 1)

    def test_exclusion_set_respected(self, figure_cut_graph):
        tree = chain_tree([(0, 1, 2, 3), (4, 5, 6, 7)])
        policy = CutPolicy(max_cuts=1, min_leaf_size=1)
        first = select_leaf(tree, figure_cut_graph, policy)
        second = select_leaf(tree, figure_cut_graph, policy, exclude={first})
        assert second is not None and second != first
        assert select_leaf(tree, figure_cut_graph, policy,
                           exclude={first, second}) is None


class TestBuildCutTree:
    def test_zero_cuts_single_root_leaf(self, figure_cut_graph):
        tree = build_cut_tree(figure_cut_graph, CutPolicy(max_cuts=0))
        assert tree.k_performed == 0
        assert tree.leaf_ids == (0,)
        assert tree.leaves()[0].members == tuple(range(8))
        assert tree.asset_ids == figure_cut_graph.asset_ids

    def test_example_shape_five_leaves(self, nested_block_graph):
        tree = build_cut_tree(nested_block_graph,
                              CutPolicy(max_cuts=4, min_leaf_size=1))
        assert tree.k_performed == 4
        assert len(tree.leaf_ids) == 5
        depths = sorted(leaf.depth for leaf in tree.leaves())
        assert depths == [2, 2, 2, 3, 3]

    def test_three_components_separated_first(self, three_components_graph):
        tree = build_cut_tree(three_components_graph,
                              CutPolicy(max_cuts=2, min_leaf_size=1))
        assert leaves_as_sets(tree) == [(0, 1, 2), (3, 4, 5), (6, 7)]
        lams = [n.lambda2_at_split for n in tree.nodes.values() if not n.is_leaf]
        assert all(lam <= 1e-10 for lam in lams)

    def test_leaf_count_tracks_cuts(self):
        rng = np.random.default_rng(1)
        g = complete_random_graph(rng, 24)
        for k in (0, 1, 3, 7):
            tree = build_cut_tree(g, CutPolicy(max_cuts=k, min_leaf_size=1))
            assert len(tree.leaf_ids) == tree.k_performed + 1 == k + 1
            members = sorted(m for leaf in tree.leaves() for m in leaf.members)
            assert members == list(range(24))

    def test_children_partition_parent(self, nested_block_graph):
        tree = build_cut_tree(nested_block_graph,
                              CutPolicy(max_cuts=4, min_leaf_size=1))
        for node in tree.nodes.values():
            if node.is_leaf:
                assert node.lambda2_at_split is None
                continue
            left, right = (tree.nodes[c] for c in node.children)
            assert left.depth == right.depth == node.depth + 1
            assert set(left.members) | set(right.members) == set(node.members)
            assert not set(left.members) & set(right.members)
            assert node.lambda2_at_split is not None

    def test_min_leaf_size_blocks_singleton_split(self):
        # strong 4-clique plus one weakly attached outlier: the natural cut
        # isolates the outlier, which min_leaf_size=2 forbids
        g = graph_from_edges(5, [
            (0, 1, 0.9), (0, 2, 0.85), (1, 2, 0.9), (0, 3, 0.8),
            (1, 3, 0.85), (2, 3, 0.9), (0, 4, 0.05),
        ])
        tree = build_cut_tree(g, CutPolicy(max_cuts=3, min_leaf_size=2))
        assert tree.k_performed == 0
        loose = build_cut_tree(g, CutPolicy(max_cuts=1, min_leaf_size=1))
        assert loose.k_performed == 1
        assert (4,) in [leaf.members for leaf in loose.leaves()]

    def test_lambda2_threshold_stops_connected_leaves(self, nested_block_graph):
        # The quad split has small lambda2; within-quad cuts have larger one.
        root_lam, _ = fiedler_vector(nested_block_graph, CutObjective.NORMALIZED)
        quad = induced_subgraph(nested_block_graph, [0, 1, 2, 3])
        quad_lam, _ = fiedler_vector(quad, CutObjective.NORMALIZED)
        assert root_lam < quad_lam
        tau = (root_lam + quad_lam) / 2.0
        tree = build_cut_tree(
            nested_block_graph,
            CutPolicy(max_cuts=10, lambda2_threshold=tau, min_leaf_size=1),
        )
        assert tree.k_performed == 1
        assert leaves_as_sets(tree) == [(0, 1, 2, 3), (4, 5, 6, 7)]
        splits = [n.lambda2_at_split for n in tree.nodes.values() if not n.is_leaf]
        assert all(lam <= tau for lam in splits)
        for leaf in tree.leaves():
            lam, _ = fiedler_vector(
                induced_subgraph(nested_block_graph, leaf.members),
                CutObjective.NORMALIZED)
            assert lam > tau

    def test_volume_objective_recorded(self, nested_block_graph):
        tree = build_cut_tree(nested_block_graph, CutPolicy(max_cuts=1),
                              CutObjective.VOLUME_NORMALIZED)
        assert tree.objective is CutObjective.VOLUME_NORMALIZED

    def test_deterministic(self, nested_block_graph):
        policy = CutPolicy(max_cuts=4, min_leaf_size=1)
        t1 = build_cut_tree(nested_block_graph, policy)
        t2 = build_cut_tree(nested_block_graph, policy)
        assert t1.leaf_ids == t2.leaf_ids
        for node_id in t1.nodes:
            a, b = t1.nodes[node_id], t2.nodes[node_id]
            assert a.members == b.members
            assert a.depth == b.depth
            assert a.children == b.children
            assert a.lambda2_at_split == b.lambda2_at_split

    def test_too_small_graph(self):
        g = market_graph_from_weights(np.zeros((1, 1)))
        with pytest.raises(InvalidInputError):
            build_cut_tree(g, CutPolicy(max_cuts=1))


class TestSplit:
    def test_children_take_next_ids_and_the_leaf_place(self):
        tree = chain_tree([(0, 1), (2, 3, 4)])
        grown = tree.split(1, (1,), (0,), 0.25)
        assert grown.leaf_ids == (3, 4, 2)
        assert grown.k_performed == 2
        assert grown.nodes[1].children == (3, 4)
        assert grown.nodes[1].lambda2_at_split == 0.25
        assert [grown.nodes[i].depth for i in (3, 4)] == [2, 2]
        assert [grown.nodes[i].members for i in (3, 4)] == [(1,), (0,)]
        assert tree.leaf_ids == (1, 2) and tree.nodes[1].is_leaf

    @pytest.mark.parametrize("left, right", [
        ((0, 1), (1, 2, 3)),
        ((0, 1), (2,)),
        ((0, 1), (2, 3, 4)),
        ((), (0, 1, 2, 3)),
        ((0, 1, 2, 3), ()),
    ])
    def test_rejects_sides_that_do_not_partition_the_leaf(self, left, right):
        tree = CutTree.root(["a", "b", "c", "d"], CutObjective.NORMALIZED)
        with pytest.raises(InvalidInputError):
            tree.split(0, left, right, 0.1)

    @pytest.mark.parametrize("node_id", [0, 5])
    def test_rejects_a_node_that_is_not_a_leaf(self, node_id):
        tree = chain_tree([(0,), (1, 2)])
        with pytest.raises(InvalidInputError, match="not a leaf"):
            tree.split(node_id, (0,), (1, 2), 0.1)

    @pytest.mark.parametrize("field", ["nodes", "root_id", "leaf_ids", "asset_ids"])
    def test_tree_fields_are_frozen(self, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(chain_tree([(0,), (1,), (2,)]), field, None)

    @pytest.mark.parametrize("field", ["members", "depth", "lambda2_at_split", "children"])
    def test_node_fields_are_frozen(self, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(chain_tree([(0,), (1,), (2,)]).nodes[0], field, None)

    def test_nodes_mapping_is_read_only(self):
        tree = chain_tree([(0,), (1,), (2,)])
        with pytest.raises(TypeError):
            operator.setitem(tree.nodes, 9, tree.nodes[0])


class TestPolicyValidation:
    def test_negative_max_cuts(self):
        with pytest.raises(InvalidInputError):
            CutPolicy(max_cuts=-1)

    def test_nonpositive_threshold(self):
        with pytest.raises(InvalidInputError):
            CutPolicy(max_cuts=1, lambda2_threshold=0.0)

    def test_min_leaf_size_below_one(self):
        with pytest.raises(InvalidInputError):
            CutPolicy(max_cuts=1, min_leaf_size=0)


class TestEdgeBudget:
    def test_single_leaf_hundred(self):
        assert leaf_edge_budget(chain_tree([tuple(range(100))])) == 5050

    def test_two_halves(self):
        tree = chain_tree([tuple(range(50)), tuple(range(50, 100))])
        assert leaf_edge_budget(tree) == 2550

    def test_all_singletons(self):
        tree = chain_tree([(i,) for i in range(6)])
        assert leaf_edge_budget(tree) == 6

    def test_trace_strictly_decreasing(self, nested_block_graph):
        tree = build_cut_tree(nested_block_graph,
                              CutPolicy(max_cuts=4, min_leaf_size=1))
        trace = edge_budget_trace(tree)
        assert len(trace) == tree.k_performed + 1
        assert trace[0] == 36
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert trace[-1] == leaf_edge_budget(tree)

    def test_splits_replay_build_order(self, nested_block_graph):
        tree = build_cut_tree(nested_block_graph,
                              CutPolicy(max_cuts=4, min_leaf_size=1))
        splits = tree.splits()
        assert len(splits) == tree.k_performed
        assert splits[0].id == tree.root_id
        assert [node.children[0] for node in splits] == [1, 3, 5, 7]

    def test_splits_ignore_node_insertion_order(self):
        tree = chain_tree([(0,), (1,), (2,), (3,)])
        tree = dataclasses.replace(tree, nodes=dict(reversed(list(tree.nodes.items()))))
        assert [node.id for node in tree.splits()] == [0, 2, 4]
        assert edge_budget_trace(tree) == [10, 7, 5, 4]
