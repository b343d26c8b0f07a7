import dataclasses
import operator

import numpy as np
import pytest
import scipy.linalg

import portcut.tree
from portcut import (
    CutObjective,
    CutPolicy,
    CutTree,
    DegenerateDegreeError,
    InvalidInputError,
    LeafSelection,
    MarketGraph,
    NumericalFailureError,
    block_factor_market,
    build_cut_tree,
    edge_budget_trace,
    fiedler_vector,
    market_graph_from_covariance,
    sample_covariance,
    simple_returns,
)
from portcut.serialization import tree_from_dict, tree_to_dict
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

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_the_weight_submatrix(self, seed):
        # The constructor averages the submatrix with its transpose, which changes no bit
        # of a symmetric one.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        graph = complete_random_graph(rng, n)
        members = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        sub = induced_subgraph(graph, members)
        block = graph.weights[np.ix_(members, members)]
        assert sub.weights.shape == block.shape
        assert sub.weights.tobytes() == block.tobytes()
        assert sub.degrees.tobytes() == block.sum(axis=1).tobytes()
        assert sub.asset_ids == tuple(graph.asset_ids[m] for m in members)
        assert all(type(label) is str for label in sub.asset_ids)
        assert not sub.weights.flags.writeable

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

    def test_largest_volume_builds_no_subgraph(self, figure_cut_graph, monkeypatch):
        tree = chain_tree([(0, 1, 2), (3, 4, 5, 6), (7,)])
        volumes = {i: induced_subgraph(figure_cut_graph, tree.nodes[i].members).degrees.sum()
                   for i in tree.leaf_ids}
        monkeypatch.setattr(portcut.tree, "induced_subgraph", None)
        policy = CutPolicy(max_cuts=1, min_leaf_size=1,
                           leaf_selection=LeafSelection.LARGEST_VOLUME)
        assert select_leaf(tree, figure_cut_graph, policy) == max(volumes, key=volumes.get)

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
        g = MarketGraph(np.zeros((1, 1)))
        with pytest.raises(InvalidInputError):
            build_cut_tree(g, CutPolicy(max_cuts=1))

    def test_failed_cut_keeps_type_and_details(self):
        g = graph_from_edges(3, [(0, 1, 0.9)])
        with pytest.raises(DegenerateDegreeError) as exc:
            build_cut_tree(g, CutPolicy(max_cuts=1, min_leaf_size=1),
                           CutObjective.VOLUME_NORMALIZED)
        assert str(exc.value) == (
            "failed to cut leaf 0 (3 members): zero-degree vertices [2] are "
            "incompatible with the volume-normalized objective")
        assert exc.value.vertices == [2]
        assert type(exc.value.__cause__) is DegenerateDegreeError

    def test_failed_eigensolver_keeps_diagnostics(self, nested_block_graph, monkeypatch):
        eigh = scipy.linalg.eigh

        def fail_below_eight(matrix, **kwargs):
            if len(matrix) < 8:
                raise scipy.linalg.LinAlgError("simulated LAPACK failure")
            return eigh(matrix, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", fail_below_eight)
        with pytest.raises(NumericalFailureError) as exc:
            build_cut_tree(nested_block_graph, CutPolicy(max_cuts=2, min_leaf_size=1))
        assert str(exc.value).startswith("failed to cut leaf 1 (4 members): "
                                         "eigensolver failed on 4 vertices (cutn)")
        assert exc.value.diagnostics == {"n": 4, "objective": "cutn"}


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

    @pytest.mark.parametrize("left, right, lambda2", [
        ([0.0, 1.0], [2.0], 0.5),
        ([0, "1"], [2], 0.5),
        ([0, 1], [2], "x"),
        ([0, 1], [2], None),
        ([0, 1], [2], float("nan")),
        ([0, 1], [2], float("inf")),
        ([0, 1], [2], -float("inf")),
        pytest.param([0, 1], [2], 10 ** 400, id="huge-int-lambda2"),
        pytest.param([0, 1], [2], -10 ** 400, id="huge-negative-int-lambda2"),
        pytest.param([False, True], [2], 0.5, id="bool-members"),
        pytest.param([0, 1], [2], True, id="bool-lambda2"),
    ])
    def test_rejects_non_integer_members_and_non_real_lambda2(self, left, right, lambda2):
        tree = CutTree.root(["a", "b", "c"], CutObjective.NORMALIZED)
        with pytest.raises(InvalidInputError, match="integers"):
            tree.split(0, left, right, lambda2)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        tree = CutTree.root(["a", "b", "c"], CutObjective.NORMALIZED)
        grown = tree.split(0, np.array([0, 2], dtype=np.int64), np.array([1]),
                           np.float32(0.5))
        members = grown.nodes[1].members + grown.nodes[2].members
        assert [type(m) for m in members] == [int, int, int]
        assert type(grown.nodes[0].lambda2_at_split) is float
        assert tree_from_dict(tree_to_dict(grown)) == grown

    @pytest.mark.parametrize("node_id", [0, 5, pytest.param(True, id="bool-leaf-id")])
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

    # An int past the double range compares below inf exactly, so it must be
    # range-tested as the infinite float it converts to.
    @pytest.mark.parametrize("threshold", [10 ** 400, float("inf"), float("nan")],
                             ids=["huge-int", "inf", "nan"])
    def test_non_finite_threshold(self, threshold):
        with pytest.raises(InvalidInputError,
                           match="lambda2_threshold must be positive and finite when set"):
            CutPolicy(max_cuts=1, lambda2_threshold=threshold)

    def test_min_leaf_size_below_one(self):
        with pytest.raises(InvalidInputError):
            CutPolicy(max_cuts=1, min_leaf_size=0)

    @pytest.mark.parametrize("max_cuts", [0, 2])
    @pytest.mark.parametrize("objective", ["cutn", "cutv", None])
    def test_objective_must_be_a_cut_objective(self, objective, max_cuts):
        # A string "cutn" once built a tree of CutV cuts labelled "cutn".
        graph = complete_random_graph(np.random.default_rng(0), 6)
        with pytest.raises(InvalidInputError, match="objective must be a CutObjective"):
            build_cut_tree(graph, CutPolicy(max_cuts=max_cuts, min_leaf_size=1), objective)
        with pytest.raises(InvalidInputError, match="objective must be a CutObjective"):
            CutTree.root(graph.asset_ids, objective)

    @pytest.mark.parametrize("selection", ["vertices", "volume", None])
    def test_leaf_selection_must_be_a_leaf_selection(self, selection):
        with pytest.raises(InvalidInputError, match="leaf_selection"):
            CutPolicy(max_cuts=6, leaf_selection=selection, min_leaf_size=1)

    def test_selection_rules_give_different_trees(self):
        # On this market a string "vertices", once accepted, built the volume tree.
        prices, _ = block_factor_market((40, 30, 20, 10), 300, seed=6)
        graph = market_graph_from_covariance(
            sample_covariance(simple_returns(prices)), asset_ids=prices.asset_ids)
        vertices, volume = (
            build_cut_tree(graph, CutPolicy(max_cuts=6, leaf_selection=selection,
                                            min_leaf_size=1), CutObjective.NORMALIZED)
            for selection in (LeafSelection.MOST_VERTICES, LeafSelection.LARGEST_VOLUME))
        assert leaves_as_sets(vertices) != leaves_as_sets(volume)


class TestEdgeBudget:
    def test_single_leaf_hundred(self):
        assert edge_budget_trace(chain_tree([tuple(range(100))]))[-1] == 5050

    def test_two_halves(self):
        tree = chain_tree([tuple(range(50)), tuple(range(50, 100))])
        assert edge_budget_trace(tree)[-1] == 2550

    def test_all_singletons(self):
        tree = chain_tree([(i,) for i in range(6)])
        assert edge_budget_trace(tree)[-1] == 6

    def test_trace_strictly_decreasing(self, nested_block_graph):
        tree = build_cut_tree(nested_block_graph,
                              CutPolicy(max_cuts=4, min_leaf_size=1))
        trace = edge_budget_trace(tree)
        assert len(trace) == tree.k_performed + 1
        assert trace[0] == 36
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert trace[-1] == sum(leaf.size * (leaf.size + 1) // 2 for leaf in tree.leaves())

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
