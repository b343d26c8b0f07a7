import numpy as np
import pytest

from portcut import (
    AllocationScheme,
    CovarianceMatrix,
    CutPolicy,
    DegenerateNormalizationError,
    InvalidInputError,
    SingularCovarianceError,
    WeightVector,
    allocate,
    asset_weights,
    build_cut_tree,
    equal_weights,
    min_variance_weights,
)
from portcut.allocation import ClusterWeights

from conftest import complete_random_graph, random_cut_tree


@pytest.fixture
def example_tree(nested_block_graph):
    """K=4 tree with leaf depths {2, 2, 2, 3, 3}."""
    return build_cut_tree(nested_block_graph, CutPolicy(max_cuts=4, min_leaf_size=1))


class TestClusterSchemes:
    def test_depth_scheme_on_example_tree(self, example_tree):
        shares = allocate(example_tree, AllocationScheme.AS1).per_leaf
        assert sorted(shares.values()) == [0.125, 0.125, 0.25, 0.25, 0.25]
        for leaf_id, share in shares.items():
            assert share == 2.0 ** (-example_tree.nodes[leaf_id].depth)

    def test_flat_scheme_on_example_tree(self, example_tree):
        shares = allocate(example_tree, AllocationScheme.AS2).per_leaf
        assert list(shares.values()) == [1.0 / 5.0] * 5

    def test_zero_cut_tree_single_share(self, nested_block_graph):
        tree = build_cut_tree(nested_block_graph, CutPolicy(max_cuts=0))
        assert allocate(tree, AllocationScheme.AS1).per_leaf == {0: 1.0}
        assert allocate(tree, AllocationScheme.AS2).per_leaf == {0: 1.0}

    def test_one_cut_halves(self, nested_block_graph):
        tree = build_cut_tree(nested_block_graph, CutPolicy(max_cuts=1))
        assert sorted(allocate(tree, AllocationScheme.AS1).per_leaf.values()) == [0.5, 0.5]
        assert sorted(allocate(tree, AllocationScheme.AS2).per_leaf.values()) == [0.5, 0.5]

    def test_balanced_depth_two_tree_quarters(self, nested_block_graph):
        tree = build_cut_tree(nested_block_graph, CutPolicy(max_cuts=3, min_leaf_size=1))
        assert sorted(leaf.depth for leaf in tree.leaves()) == [2, 2, 2, 2]
        assert list(allocate(tree, AllocationScheme.AS1).per_leaf.values()) == [0.25] * 4

    def test_dispatcher(self, example_tree):
        assert allocate(example_tree, AllocationScheme.AS1).scheme_tag == "AS1"
        assert allocate(example_tree, AllocationScheme.AS2).scheme_tag == "AS2"

    @pytest.mark.parametrize("scheme", ["as1", "AS2", 1, None])
    def test_scheme_must_be_an_allocation_scheme(self, example_tree, scheme):
        with pytest.raises(InvalidInputError, match="scheme must be an AllocationScheme"):
            allocate(example_tree, scheme)

    def test_dyadic_identity_on_built_trees(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            g = complete_random_graph(rng, int(rng.integers(4, 16)))
            tree = build_cut_tree(
                g, CutPolicy(max_cuts=int(rng.integers(0, 6)), min_leaf_size=1))
            total = sum(2.0 ** (-leaf.depth) for leaf in tree.leaves())
            assert total == 1.0

    def test_dyadic_identity_on_random_trees(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            tree = random_cut_tree(rng, int(rng.integers(2, 30)),
                                   int(rng.integers(0, 12)))
            assert sum(2.0 ** (-leaf.depth) for leaf in tree.leaves()) == 1.0


class TestAssetWeights:
    def test_share_divided_equally(self, example_tree):
        weights = asset_weights(example_tree, allocate(example_tree, AllocationScheme.AS1))
        # depth-2 leaves hold 2 assets (1/4 -> 1/8 each); depth-3 leaves are
        # singletons holding 1/8: every asset ends at exactly 1/8
        assert weights.weights.tolist() == [0.125] * 8
        assert weights.scheme_tag == "AS1"

    def test_single_leaf_reduces_to_equal_weight(self, nested_block_graph):
        tree = build_cut_tree(nested_block_graph, CutPolicy(max_cuts=0))
        weights = asset_weights(tree, allocate(tree, AllocationScheme.AS1))
        np.testing.assert_array_equal(weights.weights, equal_weights(8).weights)

    def test_sum_to_one_over_random_trees(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            tree = random_cut_tree(rng, int(rng.integers(2, 25)),
                                   int(rng.integers(0, 10)))
            for scheme in AllocationScheme:
                w = asset_weights(tree, allocate(tree, scheme)).weights
                assert abs(w.sum() - 1.0) <= 1e-10
                assert np.all(w > 0.0)
                assert np.all(w <= 1.0)

    def test_within_leaf_weights_equal(self, example_tree):
        weights = asset_weights(example_tree, allocate(example_tree, AllocationScheme.AS2))
        for leaf in example_tree.leaves():
            vals = weights.weights[list(leaf.members)]
            assert np.all(vals == vals[0])

    def test_leaf_mismatch_rejected(self, example_tree):
        bad = ClusterWeights(per_leaf={0: 1.0}, scheme_tag="AS1")
        with pytest.raises(InvalidInputError):
            asset_weights(example_tree, bad)

    def test_flat_scheme_equal_leaves_reproduces_equal_weight(self, nested_block_graph):
        tree = build_cut_tree(nested_block_graph, CutPolicy(max_cuts=3, min_leaf_size=1))
        sizes = {leaf.size for leaf in tree.leaves()}
        assert sizes == {2}
        weights = asset_weights(tree, allocate(tree, AllocationScheme.AS2))
        np.testing.assert_array_equal(weights.weights, equal_weights(8).weights)


class TestEqualWeights:
    def test_quarter_weights(self):
        assert equal_weights(4).weights.tolist() == [0.25] * 4

    def test_single_asset(self):
        assert equal_weights(1).weights.tolist() == [1.0]

    def test_zero_assets_rejected(self):
        with pytest.raises(InvalidInputError):
            equal_weights(0)

    @pytest.mark.parametrize("n", [1, 3, 7, 100, 252])
    def test_sums_to_one(self, n):
        assert abs(equal_weights(n).weights.sum() - 1.0) <= 1e-12


class TestMinVariance:
    def test_empty_covariance_rejected(self):
        with pytest.raises(InvalidInputError):
            min_variance_weights(CovarianceMatrix(np.zeros((0, 0))))

    def test_identity_covariance_equal_weights(self):
        wv = min_variance_weights(CovarianceMatrix(np.eye(4)))
        assert wv.weights.tolist() == [0.25] * 4
        assert wv.scheme_tag == "MV"

    def test_diagonal_inverse_variance(self):
        wv = min_variance_weights(CovarianceMatrix(np.diag([1.0, 2.0])))
        np.testing.assert_allclose(wv.weights, [2.0 / 3.0, 1.0 / 3.0],
                                   rtol=0, atol=1e-15)

    def test_symmetric_pair_equal_weights(self):
        sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
        wv = min_variance_weights(CovarianceMatrix(sigma))
        inv = np.array([[1.0, -0.9], [-0.9, 1.0]]) / (1.0 - 0.81)
        oracle = inv @ np.ones(2)
        oracle /= oracle.sum()
        np.testing.assert_allclose(wv.weights, oracle, rtol=0, atol=1e-14)
        np.testing.assert_allclose(wv.weights, [0.5, 0.5], rtol=0, atol=1e-14)

    def test_duplicated_asset_singular_without_ridge(self):
        sigma = CovarianceMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularCovarianceError) as exc:
            min_variance_weights(sigma, ridge=0.0)
        assert exc.value.condition_estimate is None or \
            exc.value.condition_estimate > 1e12
        assert "ridge" in str(exc.value)

    def test_duplicated_asset_recovers_with_ridge(self):
        sigma = CovarianceMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        wv = min_variance_weights(sigma, ridge=1e-6)
        assert np.all(np.isfinite(wv.weights))
        a = sigma.sigma + 1e-6 * np.eye(2)
        y = a @ wv.weights
        scale = 2.0 / y.sum()
        assert np.max(np.abs(scale * y - 1.0)) <= 1e-8
        assert wv.condition_estimate is not None

    def test_solve_residual_on_random_spd(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            b = rng.normal(size=(n + 3, n))
            sigma = CovarianceMatrix(b.T @ b / (n + 2))
            wv = min_variance_weights(sigma)
            y = sigma.sigma @ wv.weights
            scale = n / y.sum()
            assert np.max(np.abs(scale * y - 1.0)) <= 1e-8

    def test_negative_ridge_rejected(self):
        with pytest.raises(InvalidInputError):
            min_variance_weights(CovarianceMatrix(np.eye(2)), ridge=-0.1)

    def test_condition_estimate_reported(self):
        wv = min_variance_weights(CovarianceMatrix(np.diag([1.0, 4.0])))
        assert wv.condition_estimate == pytest.approx(4.0)

    @pytest.mark.parametrize("sigma, ridge", [
        (np.diag([1e308, 1.0]), 1e308),  # the ridge overflows a diagonal entry, silently
        (np.full((2, 2), 1e308), 0.0),  # the largest eigenvalue overflows to inf
        (np.zeros((2, 2)), 0.0),  # every eigenvalue is zero
    ], ids=["ridge-overflow", "eigenvalue-overflow", "zero"])
    def test_infinite_condition_estimate_refused(self, sigma, ridge):
        with pytest.raises(SingularCovarianceError,
                           match=r"condition estimate inf > 1e\+12") as exc:
            min_variance_weights(CovarianceMatrix(sigma), ridge=ridge)
        assert exc.value.condition_estimate == np.inf

    def test_indefinite_system_fails_cholesky(self):
        # Eigenvalues 3 and -1: well conditioned, but not positive definite.
        with pytest.raises(SingularCovarianceError) as exc:
            min_variance_weights(CovarianceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
        assert str(exc.value).startswith("Cholesky factorization failed (")
        assert str(exc.value).endswith("); retry with a positive ridge")
        assert exc.value.condition_estimate == pytest.approx(3.0)

    def test_weights_summing_to_zero_rejected(self):
        # Sigma^-1 1 = (1e-13, 1e-13) sums below the 1e-12 floor.
        with pytest.raises(DegenerateNormalizationError, match="cannot enforce full investment"):
            min_variance_weights(CovarianceMatrix(1e13 * np.eye(2)))


class TestWeightVectorValidation:
    def test_sum_enforced(self):
        with pytest.raises(InvalidInputError):
            WeightVector(weights=np.array([0.5, 0.6]), scheme_tag="EW")

    def test_positivity_enforced_for_tree_schemes(self):
        with pytest.raises(InvalidInputError):
            WeightVector(weights=np.array([1.5, -0.5]), scheme_tag="AS1")

    @pytest.mark.parametrize("weights, message", [
        ([], "weights must form a nonempty vector"),
        ([[0.5, 0.5]], "weights must form a nonempty vector"),
        ([np.nan, 1.0], "weights contain non-finite entries"),
        ([np.inf, -np.inf], "weights contain non-finite entries"),
    ])
    def test_malformed_weights_named(self, weights, message):
        with pytest.raises(InvalidInputError) as exc:
            WeightVector(weights=np.array(weights), scheme_tag="MV")
        assert str(exc.value) == message

    def test_mv_may_be_negative(self):
        wv = WeightVector(weights=np.array([1.5, -0.5]), scheme_tag="MV")
        assert wv.weights.tolist() == [1.5, -0.5]

    def test_cluster_weights_validation(self):
        with pytest.raises(InvalidInputError):
            ClusterWeights(per_leaf={0: 0.7, 1: 0.7}, scheme_tag="AS1")
        with pytest.raises(InvalidInputError):
            ClusterWeights(per_leaf={0: 1.5, 1: -0.5}, scheme_tag="AS1")
