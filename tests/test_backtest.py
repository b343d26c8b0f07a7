from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import portcut.backtest

from portcut import (
    BacktestConfig,
    CovarianceMatrix,
    CutPolicy,
    InvalidInputError,
    PriceMatrix,
    WeightVector,
    block_factor_market,
    equal_weights,
    min_variance_weights,
    run_backtest,
)

from conftest import make_prices, overflowing_prices

EW, MV = "ew", "mv"
CUT_LABELS = ("cutn-as1", "cutn-as2", "cutv-as1", "cutv-as2")
ALL_SIX = (EW, MV) + CUT_LABELS
ONE_CUT = CutPolicy(max_cuts=1, min_leaf_size=1)


class TestRunBacktest:
    def test_single_asset_wealth_tracks_price(self):
        prices = make_prices([[100.0, 104.0, 101.0, 99.0, 103.0, 108.0, 105.0]])
        report = run_backtest(prices, BacktestConfig(split_index=2, strategies=(EW,)))
        res = report.result("ew")
        with pytest.raises(KeyError):
            report.result("nope")
        path = prices.prices[2:, 0] / prices.prices[2, 0]
        np.testing.assert_allclose(res.wealth_curve, path, rtol=0, atol=1e-12)
        assert res.wealth_curve[0] == 1.0

    def test_wealth_recurrence(self):
        prices, _ = block_factor_market([3, 3], 30, seed=5)
        report = run_backtest(prices, BacktestConfig(split_index=10, strategies=(EW,)))
        res = report.result("ew")
        rets = np.diff(prices.prices, axis=0) / prices.prices[:-1]
        port = rets[10:] @ res.weights.weights
        acc = 1.0
        for t, r in enumerate(port):
            acc = acc * (1.0 + r)
            assert res.wealth_curve[t + 1] == acc
        assert np.all(res.wealth_curve > 0.0)

    def test_zero_out_sample_returns_degenerate_sharpe(self):
        prices = make_prices([[100.0, 101.0, 99.0, 100.0, 100.0, 100.0, 100.0]])
        report = run_backtest(prices, BacktestConfig(split_index=3, strategies=(EW,)))
        res = report.result("ew")
        assert np.all(res.wealth_curve == 1.0)
        assert res.sharpe is None
        assert res.ok

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(2, 50),
           annualization=st.sampled_from([1.0, 12.0, 52.0, 252.0, 365.25]))
    def test_sharpe_bits_of_mean_over_std(self, seed, size, annualization):
        prices, _ = block_factor_market([3, 3], 10 + size, seed=seed)
        config = BacktestConfig(split_index=10, strategies=(EW,),
                                annualization_factor=annualization)
        res = run_backtest(prices, config).result("ew")
        port = np.diff(prices.prices, axis=0)[10:] / prices.prices[10:-1] @ res.weights.weights
        assert port.size == size
        assert (res.mean_return, res.std_return) == (port.mean(), port.std(ddof=1))
        assert res.sharpe == float(np.sqrt(annualization) * port.mean() / port.std(ddof=1))

    def test_no_look_ahead(self):
        prices, _ = block_factor_market([4, 5], 60, seed=11)
        config = BacktestConfig(split_index=30, strategies=ALL_SIX, policy=ONE_CUT,
                                mv_ridge=1e-9)
        base = run_backtest(prices, config)
        bumped = prices.prices.copy()
        bumped[45, :] *= 1.05
        perturbed = make_prices(bumped.T, asset_ids=prices.asset_ids,
                                timestamps=prices.timestamps)
        other = run_backtest(perturbed, config)
        for res_a, res_b in zip(base.results, other.results):
            assert res_a.ok and res_b.ok
            assert np.array_equal(res_a.weights.weights, res_b.weights.weights)

    def test_identical_assets_identical_wealth(self):
        col = [100.0, 102.0, 99.0, 101.0, 104.0, 103.0, 106.0, 104.0]
        prices = make_prices([col, col, col])
        config = BacktestConfig(
            split_index=3,
            strategies=(EW, MV, "cutn-as2"),
            policy=ONE_CUT,
            mv_ridge=1e-8,
        )
        report = run_backtest(prices, config)
        curves = [res.wealth_curve for res in report.results if res.ok]
        assert len(curves) == 3
        for curve in curves[1:]:
            np.testing.assert_allclose(curve, curves[0], rtol=0, atol=1e-12)

    def test_two_block_market_recovers_blocks(self):
        prices, block_of = block_factor_market([8, 12], 300, seed=42)
        config = BacktestConfig(
            split_index=150,
            strategies=(EW, "cutn-as2"),
            policy=ONE_CUT,
        )
        report = run_backtest(prices, config)
        cut = report.result("cutn-as2")
        assert cut.metadata["k_performed"] == 1
        assert sorted(cut.metadata["leaf_sizes"]) == [8, 12]
        # block shares: 1/2 each, divided equally inside the blocks
        w = cut.weights.weights
        assert abs(w[block_of == 0].sum() - 0.5) <= 1e-10
        assert abs(w[block_of == 1].sum() - 0.5) <= 1e-10
        assert np.ptp(w[block_of == 0]) == 0.0

    def test_cut_beats_equal_weight_variance_on_unbalanced_blocks(self):
        wins = 0
        for seed in range(5):
            prices, _ = block_factor_market([8, 12], 400, seed=seed)
            report = run_backtest(prices, BacktestConfig(
                split_index=200,
                strategies=(EW, "cutn-as2"),
                policy=ONE_CUT,
            ))
            if (report.result("cutn-as2").std_return
                    <= report.result("ew").std_return):
                wins += 1
        assert wins >= 4

    def test_mv_failure_isolated(self):
        col = np.array([100.0, 102.0, 99.0, 101.0, 104.0, 103.0, 106.0])
        other = np.array([50.0, 51.0, 49.5, 50.5, 52.0, 51.5, 53.0])
        prices = make_prices([col, col, other])
        config = BacktestConfig(split_index=3, strategies=(EW, MV), mv_ridge=0.0)
        report = run_backtest(prices, config)
        assert report.result("ew").ok
        mv = report.result("mv")
        assert not mv.ok
        assert mv.error_kind == "SingularCovarianceError"
        assert mv.weights is None

    def test_overflowing_wealth_fails_only_that_strategy(self, monkeypatch):
        def other_asset_only(sigma, ridge=0.0):
            return WeightVector(weights=np.array([0.0, 1.0]), scheme_tag="MV")

        monkeypatch.setattr(portcut.backtest, "min_variance_weights", other_asset_only)
        report = run_backtest(overflowing_prices(),
                              BacktestConfig(split_index=5, strategies=(EW, MV)))
        ew = report.result("ew")
        assert ew.error_kind == "NumericalFailureError"
        assert "not finite" in ew.error
        mv = report.result("mv")
        assert mv.ok
        assert np.isfinite(mv.wealth_curve).all()

    def test_degenerate_asset_fails_cut_not_ew(self):
        flat = [100.0] * 7
        moving = [100.0, 102.0, 99.0, 101.0, 104.0, 103.0, 106.0]
        prices = make_prices([moving, flat])
        config = BacktestConfig(split_index=3, strategies=(EW, "cutn-as1", "cutn-as2"),
                                policy=ONE_CUT)
        report = run_backtest(prices, config)
        assert report.result("ew").ok
        as1, as2 = report.result("cutn-as1"), report.result("cutn-as2")
        assert not as1.ok and not as2.ok
        assert as1.error_kind == as2.error_kind == "DegenerateAssetError"
        assert as1.error == as2.error
        assert "a1" in as1.error

    def test_zero_asset_prices_rejected(self):
        config = BacktestConfig(split_index=2, strategies=("cutn-as2",), policy=ONE_CUT)
        with pytest.raises(InvalidInputError):
            run_backtest(PriceMatrix(prices=np.ones((6, 0)), asset_ids=(),
                                     timestamps=tuple("abcdef")), config)

    def test_out_sample_dates_align_with_wealth(self):
        prices, _ = block_factor_market([3, 3], 20, seed=2)
        report = run_backtest(prices, BacktestConfig(split_index=8, strategies=(EW,)))
        res = report.result("ew")
        assert len(report.out_sample_dates) == res.wealth_curve.size
        assert report.out_sample_dates[0] == prices.timestamps[8]
        assert report.out_sample_dates[-1] == prices.timestamps[-1]


@pytest.fixture
def build_counts(monkeypatch):
    """Count calls of the in-sample estimators that run_backtest looks up."""
    counts = Counter()
    for name in ("sample_covariance", "market_graph_from_covariance", "build_cut_tree"):
        def counted(*args, _name=name, _original=getattr(portcut.backtest, name),
                    **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(portcut.backtest, name, counted)
    return counts


class TestInSamplePipeline:
    def test_one_tree_per_objective_and_policy(self, build_counts):
        prices, _ = block_factor_market([4, 5], 60, seed=11)
        config = BacktestConfig(split_index=30, strategies=ALL_SIX, policy=ONE_CUT,
                                mv_ridge=1e-9)
        report = run_backtest(prices, config)
        assert all(res.ok for res in report.results)
        assert build_counts == {"sample_covariance": 1,
                                "market_graph_from_covariance": 1,
                                "build_cut_tree": 2}
        for objective in ("cutn", "cutv"):
            as1 = report.result(f"{objective}-as1").metadata
            as2 = report.result(f"{objective}-as2").metadata
            assert as1 == as2
            assert as1 is not as2
            assert as1["leaf_sizes"] is not as2["leaf_sizes"]

    def test_one_policy_reaches_both_objectives_trees(self, build_counts):
        prices, _ = block_factor_market([4, 5], 60, seed=11)
        run_backtest(prices, BacktestConfig(split_index=30, strategies=(EW,)))
        assert build_counts == {}
        report = run_backtest(prices, BacktestConfig(
            split_index=30, strategies=CUT_LABELS,
            policy=CutPolicy(max_cuts=3, min_leaf_size=1)))
        assert build_counts["build_cut_tree"] == 2
        for label in CUT_LABELS:
            assert report.result(label).metadata["k_performed"] == 3


class TestConfigValidation:
    def test_split_bounds(self):
        prices, _ = block_factor_market([2, 2], 10, seed=0)
        for bad in (0, 1, 9, 10):
            with pytest.raises(InvalidInputError):
                run_backtest(prices, BacktestConfig(split_index=bad, strategies=(EW,)))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            BacktestConfig(split_index=5, strategies=(EW, EW))

    def test_empty_strategies_rejected(self):
        with pytest.raises(InvalidInputError):
            BacktestConfig(split_index=5, strategies=())

    @pytest.mark.parametrize("strategies", [
        ("cutn-as3",), ("CUTN-AS1",), ("cut",), "ew", (EW, None)])
    def test_unknown_labels_rejected(self, strategies):
        with pytest.raises(InvalidInputError):
            BacktestConfig(split_index=5, strategies=strategies)

    @pytest.mark.parametrize("make", [
        lambda: CutPolicy(max_cuts=2.5),
        lambda: CutPolicy(max_cuts="3"),
        lambda: CutPolicy(max_cuts=None),
        lambda: CutPolicy(max_cuts=1, min_leaf_size=1.5),
        lambda: CutPolicy(max_cuts=1, min_leaf_size="2"),
        lambda: BacktestConfig(split_index=30.0, strategies=(EW,)),
        lambda: BacktestConfig(split_index="30", strategies=(EW,)),
        lambda: BacktestConfig(split_index=None, strategies=(EW,)),
    ])
    def test_integer_fields_must_be_integers(self, make):
        with pytest.raises(InvalidInputError, match="integer"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: BacktestConfig(20, (EW, "cutn-as1"), policy=None),
        lambda: BacktestConfig(20, (EW, "cutn-as1"), policy=(1, None)),
        lambda: BacktestConfig(20, (EW,), annualization_factor="252"),
        lambda: BacktestConfig(20, (EW,), annualization_factor=None),
        lambda: BacktestConfig(20, (EW, MV), mv_ridge=None),
        lambda: BacktestConfig(20, (EW, MV), mv_ridge="0"),
        lambda: CutPolicy(1, lambda2_threshold="1"),
    ])
    def test_wrongly_typed_fields_rejected(self, make):
        with pytest.raises(InvalidInputError):
            make()

    # Library scalars are checked like the config fields above: a wrong type is an
    # InvalidInputError with the message a bad value of the right type gets.
    @pytest.mark.parametrize("call, message", [
        (lambda: equal_weights(None), "need at least one asset"),
        (lambda: equal_weights(2.0), "need at least one asset"),
        (lambda: equal_weights("3"), "need at least one asset"),
        (lambda: equal_weights(0), "need at least one asset"),
        (lambda: min_variance_weights(CovarianceMatrix(np.eye(2)), ridge=None),
         "ridge must be nonnegative and finite"),
        (lambda: min_variance_weights(CovarianceMatrix(np.eye(2)), ridge="0"),
         "ridge must be nonnegative and finite"),
        (lambda: min_variance_weights(CovarianceMatrix(np.eye(2)), ridge=-1.0),
         "ridge must be nonnegative and finite"),
        (lambda: min_variance_weights(CovarianceMatrix(np.eye(2)), ridge=np.inf),
         "ridge must be nonnegative and finite"),
        (lambda: min_variance_weights(CovarianceMatrix(np.eye(2)), ridge=10 ** 400),
         "ridge must be nonnegative and finite"),
        (lambda: min_variance_weights(CovarianceMatrix(np.eye(2)), ridge=-10 ** 400),
         "ridge must be nonnegative and finite"),
    ], ids=["n-none", "n-float", "n-str", "n-zero", "ridge-none", "ridge-str",
            "ridge-negative", "ridge-inf", "ridge-huge-int", "ridge-huge-negative-int"])
    def test_wrongly_typed_library_scalars_rejected(self, call, message):
        with pytest.raises(InvalidInputError) as exc:
            call()
        assert str(exc.value) == message

    def test_numpy_floats_accepted(self):
        prices, _ = block_factor_market([4, 5], 60, seed=11)
        config = BacktestConfig(30, (EW, MV), annualization_factor=np.float32(252.0),
                                mv_ridge=np.float64(1e-8))
        assert all(result.ok for result in run_backtest(prices, config).results)

    def test_numpy_integers_accepted(self):
        policy = CutPolicy(max_cuts=np.int64(2), min_leaf_size=np.int32(1))
        prices, _ = block_factor_market([4, 5], 60, seed=11)
        report = run_backtest(prices, BacktestConfig(
            split_index=np.int64(30), strategies=("cutn-as1",), policy=policy))
        assert report.result("cutn-as1").metadata["k_performed"] == 2
        assert report.split_index == 30

    def test_negative_ridge_rejected(self):
        with pytest.raises(InvalidInputError):
            BacktestConfig(split_index=5, strategies=(EW,), mv_ridge=-1.0)

    # An int past the double range is an InvalidInputError, not an OverflowError or,
    # later, a TypeError from np.sqrt in the backtest.
    @pytest.mark.parametrize("field, value", [
        ("annualization_factor", 0.0), ("annualization_factor", -1.0),
        ("annualization_factor", np.nan), ("annualization_factor", np.inf),
        ("annualization_factor", 10 ** 400), ("annualization_factor", -10 ** 400),
        ("mv_ridge", np.nan), ("mv_ridge", np.inf),
        ("mv_ridge", 10 ** 400), ("mv_ridge", -10 ** 400),
    ], ids=["factor-zero", "factor-negative", "factor-nan", "factor-inf", "factor-huge-int",
            "factor-huge-negative-int", "ridge-nan", "ridge-inf",
            "ridge-huge-int", "ridge-huge-negative-int"])
    def test_real_fields_must_be_finite(self, field, value):
        with pytest.raises(InvalidInputError) as exc:
            BacktestConfig(split_index=5, strategies=(EW,), **{field: value})
        bound = "positive" if field == "annualization_factor" else "nonnegative"
        assert str(exc.value) == f"{field} must be {bound} and finite"

    # A bool equals 0 or 1 but is not a number: each field refuses it with its usual message.
    @pytest.mark.parametrize("make, message", [
        (lambda: CutPolicy(max_cuts=True), "max_cuts must be an integer >= 0"),
        (lambda: CutPolicy(max_cuts=2, lambda2_threshold=True),
         "lambda2_threshold must be positive and finite when set"),
        (lambda: CutPolicy(max_cuts=2, min_leaf_size=True),
         "min_leaf_size must be an integer >= 1"),
        (lambda: BacktestConfig(True, (EW,)), "split_index must be an integer"),
        (lambda: BacktestConfig(20, (EW,), annualization_factor=True),
         "annualization_factor must be positive and finite"),
        (lambda: BacktestConfig(20, (EW, MV), mv_ridge=False),
         "mv_ridge must be nonnegative and finite"),
        (lambda: equal_weights(True), "need at least one asset"),
        (lambda: min_variance_weights(CovarianceMatrix(np.eye(2)), ridge=False),
         "ridge must be nonnegative and finite"),
    ], ids=["max_cuts", "lambda2_threshold", "min_leaf_size", "split_index",
            "annualization_factor", "mv_ridge", "equal_weights-n", "min_variance-ridge"])
    def test_bools_are_not_numbers(self, make, message):
        with pytest.raises(InvalidInputError) as exc:
            make()
        assert str(exc.value) == message

    def test_real_fields_stored_as_floats(self):
        config = BacktestConfig(30, (EW, MV), annualization_factor=Fraction(252), mv_ridge=0)
        assert (config.annualization_factor, config.mv_ridge) == (252.0, 0.0)
        assert type(config.annualization_factor) is type(config.mv_ridge) is float
        prices, _ = block_factor_market([4, 5], 60, seed=11)
        assert all(result.ok for result in run_backtest(prices, config).results)
