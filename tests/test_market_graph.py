import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portcut import (
    CovarianceMatrix,
    DegenerateAssetError,
    InsufficientDataError,
    InvalidInputError,
    MarketGraph,
    PriceMatrix,
    ReturnsMatrix,
    block_factor_market,
    market_graph_from_covariance,
    sample_covariance,
    simple_returns,
)

from conftest import complete_random_graph, make_prices


class TestSimpleReturns:
    def test_single_asset_ten_percent(self):
        rets = simple_returns(make_prices([[100.0, 110.0]]))
        np.testing.assert_allclose(rets.returns, [[0.10]], rtol=0, atol=1e-15)

    def test_constant_prices_zero_returns(self):
        rets = simple_returns(make_prices([[50.0, 50.0, 50.0]]))
        assert rets.returns.tolist() == [[0.0], [0.0]]

    def test_up_then_down(self):
        rets = simple_returns(make_prices([[100.0, 110.0, 99.0]]))
        np.testing.assert_allclose(rets.returns[:, 0], [0.10, -0.10], rtol=0, atol=1e-15)

    def test_row_count_one_less(self):
        prices = make_prices([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        assert simple_returns(prices).n_periods == prices.n_rows - 1

    def test_asset_ids_preserved(self):
        prices = make_prices([[1.0, 2.0], [3.0, 4.0]], asset_ids=["x", "y"])
        assert simple_returns(prices).asset_ids == ("x", "y")

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            simple_returns(make_prices([[100.0]]))

    def test_nonpositive_price_rejected_at_construction(self):
        with pytest.raises(InvalidInputError):
            make_prices([[100.0, 0.0]])
        with pytest.raises(InvalidInputError):
            make_prices([[100.0, -5.0]])


class TestPriceMatrixValidation:
    def test_duplicate_asset_ids(self):
        with pytest.raises(InvalidInputError):
            make_prices([[1.0, 2.0], [1.0, 2.0]], asset_ids=["a", "a"])

    def test_non_increasing_timestamps(self):
        with pytest.raises(InvalidInputError, match=r"^dates not strictly increasing at 't1'$"):
            make_prices([[1.0, 2.0]], timestamps=["t1", "t1"])
        with pytest.raises(InvalidInputError, match=r"^dates not strictly increasing at 't1'$"):
            make_prices([[1.0, 2.0]], timestamps=["t2", "t1"])

    def test_iso_dates_order_before_other_labels(self):
        prices = make_prices([[1.0, 2.0, 3.0]], timestamps=["2020-01-05", "1999", "2000"])
        assert prices.timestamps == ("2020-01-05", "1999", "2000")
        with pytest.raises(InvalidInputError, match="at '2020-01-05'"):
            make_prices([[1.0, 2.0, 3.0]], timestamps=["1999", "2000", "2020-01-05"])

    def test_mismatched_labels(self):
        with pytest.raises(InvalidInputError):
            make_prices([[1.0, 2.0]], asset_ids=["a", "b"])

    # Every label list is counted against its array dimension, with the count
    # and the dimension in the message.
    @pytest.mark.parametrize("build, message", [
        (lambda: PriceMatrix(np.ones((2, 3)), ("a", "b"), ("t0", "t1")),
         "2 asset ids for 3 price columns"),
        (lambda: PriceMatrix(np.ones((2, 3)), ("a", "b", "c"), ("t0",)),
         "1 timestamps for 2 price rows"),
        (lambda: ReturnsMatrix(np.zeros((4, 2)), ("a", "b", "c")),
         "3 asset ids for 2 return columns"),
        (lambda: MarketGraph(np.zeros((8, 8)), asset_ids=tuple("abcdefg")),
         "7 asset ids for 8 vertices"),
        (lambda: market_graph_from_covariance(CovarianceMatrix(np.eye(3)), asset_ids=["a"]),
         "1 asset ids for 3 assets"),
        (lambda: market_graph_from_covariance(CovarianceMatrix(np.eye(3)), asset_ids=[]),
         "0 asset ids for 3 assets"),
    ])
    def test_wrong_label_count_named(self, build, message):
        with pytest.raises(InvalidInputError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: PriceMatrix(np.ones(3), ("a", "b", "c"), ("t0",)),
         "prices must be 2-dimensional, got shape (3,)"),
        (lambda: ReturnsMatrix(np.array([[0.1, np.nan]]), ("a", "b")),
         "returns contains non-finite entries"),
        (lambda: CovarianceMatrix(np.ones((2, 3))), "sigma must be square, got (2, 3)"),
        (lambda: CovarianceMatrix(np.array([[1.0, 0.5], [0.4, 1.0]])),
         "sigma is not symmetric to 1e-12 relative tolerance"),
        (lambda: MarketGraph(np.zeros((2, 3))), "weights must be square, got (2, 3)"),
    ])
    def test_malformed_array_named(self, build, message):
        with pytest.raises(InvalidInputError) as exc:
            build()
        assert str(exc.value) == message

    def test_default_labels_count_from_zero(self):
        assert MarketGraph(np.zeros((3, 3))).asset_ids == ("0", "1", "2")
        graph = market_graph_from_covariance(CovarianceMatrix(np.eye(2)))
        assert graph.asset_ids == ("0", "1")

    def test_returns_must_exceed_minus_one(self):
        with pytest.raises(InvalidInputError):
            ReturnsMatrix(returns=np.array([[-1.5]]), asset_ids=("a",))


class TestSampleCovariance:
    def test_identical_columns_rank_one(self):
        col = [0.01, -0.02, 0.03, 0.005]
        sigma = sample_covariance(
            ReturnsMatrix(np.column_stack([col, col]), ("a", "b"))
        ).sigma
        assert sigma[0, 0] == sigma[0, 1] == sigma[1, 0] == sigma[1, 1]
        assert np.linalg.matrix_rank(sigma) == 1

    def test_constant_column_zero_row_and_column(self):
        rets = ReturnsMatrix(
            np.column_stack([[0.01, -0.02, 0.03], [0.0, 0.0, 0.0]]), ("a", "b")
        )
        sigma = sample_covariance(rets).sigma
        assert np.all(sigma[1, :] == 0.0)
        assert np.all(sigma[:, 1] == 0.0)

    def test_two_point_sample(self):
        rets = ReturnsMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]), ("a", "b"))
        sigma = sample_covariance(rets).sigma
        assert sigma.tolist() == [[2.0, -2.0], [-2.0, 2.0]]

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            sample_covariance(ReturnsMatrix(np.array([[0.01, 0.02]]), ("a", "b")))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            t = int(rng.integers(2, 6))
            n = int(rng.integers(1, 4))
            x = rng.normal(0.0, 0.02, size=(t, n))
            sigma = sample_covariance(
                ReturnsMatrix(x, tuple(f"a{i}" for i in range(n)))
            ).sigma
            expected = np.zeros((n, n))
            means = [sum(x[:, j]) / t for j in range(n)]
            for i in range(n):
                for j in range(n):
                    acc = 0.0
                    for row in range(t):
                        acc += (x[row, i] - means[i]) * (x[row, j] - means[j])
                    expected[i, j] = acc / (t - 1)
            np.testing.assert_allclose(sigma, expected, rtol=0, atol=1e-14)


class TestMarketGraphFromCovariance:
    def test_identity_gives_empty_graph(self):
        g = market_graph_from_covariance(CovarianceMatrix(np.eye(2)))
        assert np.all(g.weights == 0.0)
        assert np.all(g.degrees == 0.0)
        assert np.all(g.laplacian == 0.0)

    def test_negative_correlation_absolute_value(self):
        sigma = CovarianceMatrix(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        g = market_graph_from_covariance(sigma)
        assert g.weights[0, 1] == 0.5
        assert g.degrees.tolist() == [0.5, 0.5]
        assert g.laplacian.tolist() == [[0.5, -0.5], [-0.5, 0.5]]

    def test_ones_vector_in_null_space(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 0.02, size=(30, 6))
        g = market_graph_from_covariance(
            sample_covariance(ReturnsMatrix(x, tuple("abcdef")))
        )
        residual = g.laplacian @ np.ones(6)
        assert np.max(np.abs(residual)) <= 1e-10

    def test_zero_variance_asset_named(self):
        sigma = CovarianceMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DegenerateAssetError) as exc:
            market_graph_from_covariance(sigma, asset_ids=("good", "flat"))
        assert exc.value.asset_ids == ["flat"]
        assert "flat" in str(exc.value)

    def test_collinear_assets_weight_clipped_to_one(self):
        col = np.array([0.011, -0.007, 0.019, 0.002, -0.013])
        rets = ReturnsMatrix(np.column_stack([col, 3.0 * col]), ("a", "b"))
        g = market_graph_from_covariance(sample_covariance(rets))
        assert g.weights[0, 1] == 1.0


class TestGraphInvariants:
    def _random_graph(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 0.01, size=(int(rng.integers(5, 40)), int(rng.integers(2, 9))))
        rets = ReturnsMatrix(x, tuple(f"a{i}" for i in range(x.shape[1])))
        return market_graph_from_covariance(sample_covariance(rets))

    @pytest.mark.parametrize("seed", range(10))
    def test_weight_matrix_shape_and_range(self, seed):
        g = self._random_graph(seed)
        assert np.array_equal(g.weights, g.weights.T)
        assert np.all(np.diag(g.weights) == 0.0)
        assert np.all(g.weights >= 0.0)
        assert np.all(g.weights <= 1.0 + 1e-12)
        np.testing.assert_allclose(g.degrees, g.weights.sum(axis=1), rtol=0, atol=0)

    @pytest.mark.parametrize("seed", range(10))
    def test_laplacian_psd_with_ones_null_vector(self, seed):
        g = self._random_graph(seed)
        evals = np.linalg.eigvalsh(g.laplacian)
        assert evals[0] >= -1e-10 * max(evals[-1], 1e-30)
        assert np.max(np.abs(g.laplacian @ np.ones(g.n_vertices))) <= 1e-10
        assert np.max(np.abs(g.laplacian.sum(axis=1))) <= 1e-10

    @settings(deadline=None, max_examples=40)
    @given(scale=st.floats(min_value=1e-6, max_value=1e6),
           column=st.integers(min_value=0, max_value=3))
    def test_price_scale_invariance(self, scale, column):
        rng = np.random.default_rng(7)
        base = 100.0 * np.cumprod(1.0 + rng.normal(0.0, 0.01, size=(20, 4)), axis=0)
        scaled = base.copy()
        scaled[:, column] *= scale
        r1 = simple_returns(make_prices(base.T)).returns
        r2 = simple_returns(make_prices(scaled.T)).returns
        np.testing.assert_allclose(r2, r1, rtol=1e-12, atol=1e-15)
        w1 = market_graph_from_covariance(
            sample_covariance(ReturnsMatrix(r1, tuple("abcd")))).weights
        w2 = market_graph_from_covariance(
            sample_covariance(ReturnsMatrix(r2, tuple("abcd")))).weights
        np.testing.assert_allclose(w2, w1, rtol=0, atol=1e-12)


class TestMarketGraphFromWeights:
    def test_rejects_negative_weights(self):
        with pytest.raises(InvalidInputError):
            MarketGraph(np.array([[0.0, -0.1], [-0.1, 0.0]]))
        with pytest.raises(InvalidInputError, match="nonnegative"):
            MarketGraph(np.array([[0.0, -0.5, 0.2], [-0.5, 0.0, 0.9], [0.2, 0.9, 0.0]]))

    def test_rejects_weights_above_one(self):
        with pytest.raises(InvalidInputError):
            MarketGraph(np.array([[0.0, 1.5], [1.5, 0.0]]))
        with pytest.raises(InvalidInputError, match="must not exceed 1"):
            MarketGraph(np.array([[0.0, 1.0 + 1e-9], [1.0 + 1e-9, 0.0]]))

    def test_diagonal_zeroed(self):
        g = MarketGraph(np.array([[0.7, 0.2], [0.2, 0.7]]))
        assert np.all(np.diag(g.weights) == 0.0)
        assert g.degrees.tolist() == [0.2, 0.2]

    def test_numpy_asset_ids(self):
        g = MarketGraph(np.array([[0.0, 0.5], [0.5, 0.0]]),
                        asset_ids=np.array(["a", "b"]))
        assert g.asset_ids == ("a", "b")

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            MarketGraph(np.zeros((0, 0)))

    def test_asymmetric_matrix_averaged(self):
        g = MarketGraph(np.array([[0.0, 0.2, 0.4], [0.6, 0.0, 0.1], [0.0, 0.3, 0.0]]))
        np.testing.assert_array_equal(
            g.weights, [[0.0, 0.4, 0.2], [0.4, 0.0, 0.2], [0.2, 0.2, 0.0]])

    def test_symmetric_matrix_keeps_its_bits(self):
        w = complete_random_graph(np.random.default_rng(7), 9).weights.copy()
        w[0, 1] = w[1, 0] = 5e-324  # subnormal, odd: halving it alone would round
        assert MarketGraph(w).weights.tobytes() == w.tobytes()

    def test_signed_zero_across_the_diagonal_becomes_positive(self):
        g = MarketGraph(np.array([[0.0, -0.0, 0.5], [0.0, 0.0, 0.5], [0.5, 0.5, 0.0]]))
        assert not np.signbit(g.weights).any()

    def test_overflowing_average_is_a_weight_above_one(self):
        with pytest.raises(InvalidInputError, match="must not exceed 1"):
            MarketGraph(np.array([[0.0, 1e308], [1e308, 0.0]]))

    def test_callers_array_not_aliased(self):
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        g = MarketGraph(w)
        w[0, 1] = w[1, 0] = 0.9
        assert g.weights.tolist() == [[0.0, 0.5], [0.5, 0.0]]
        assert g.degrees.tolist() == [0.5, 0.5]

    def test_weights_read_only(self):
        g = MarketGraph(np.array([[0.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(ValueError):
            g.weights[0, 1] = 0.9


class TestMarketGraphDerivedState:
    def test_degrees_and_laplacian_derive_from_weights(self):
        w = np.random.default_rng(3).uniform(0.0, 1.0, (6, 6))
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 0.0)
        g = MarketGraph(weights=w)
        assert np.array_equal(g.degrees, w.sum(axis=1))
        assert np.array_equal(g.laplacian, np.diag(w.sum(axis=1)) - w)

    def test_only_weights_and_ids_are_fields(self):
        assert [f.name for f in dataclasses.fields(MarketGraph)] == ["weights", "asset_ids"]
        with pytest.raises(TypeError):
            MarketGraph(weights=np.zeros((2, 2)), degrees=[3.0, 7.0])


class TestBlockFactorMarket:
    @pytest.mark.parametrize("args, kwargs, message", [
        (([3, 0], 10), {}, "block_sizes must be positive integers"),
        (([], 10), {}, "block_sizes must be positive integers"),
        (([3, 3], 10), {"within_corr": 0.2, "across_corr": 0.3},
         "need 0 <= across_corr < within_corr < 1"),
        (([3, 3], 10), {"within_corr": 1.0}, "need 0 <= across_corr < within_corr < 1"),
        (([3, 3], 1), {}, "need at least 2 periods"),
    ])
    def test_bad_arguments_named(self, args, kwargs, message):
        with pytest.raises(InvalidInputError) as exc:
            block_factor_market(*args, **kwargs)
        assert str(exc.value) == message
