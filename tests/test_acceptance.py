"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances and runtime budgets are asserted, not just reported.
"""

import time

import numpy as np
import pytest

from portcut import (
    AllocationScheme,
    BacktestConfig,
    CovarianceMatrix,
    CutObjective,
    CutPolicy,
    SingularCovarianceError,
    SizeLimitError,
    StrategyKind,
    StrategySpec,
    allocate,
    asset_weights,
    bipartition_count,
    block_factor_market,
    brute_force_min_cut,
    build_cut_tree,
    cut_value,
    edge_budget_trace,
    fiedler_vector,
    leaf_edge_budget,
    market_graph_from_weights,
    min_variance_weights,
    objective_value,
    partition_indicator,
    rayleigh_quotient,
    run_backtest,
    spectral_bisect,
)
from portcut.spectral import iter_bipartitions

from conftest import (
    complete_random_graph,
    graph_from_edges,
    make_prices,
    partition_sets,
    planted_two_block_graph,
    random_cut_tree,
)

CUTN = CutObjective.NORMALIZED
CUTV = CutObjective.VOLUME_NORMALIZED


def report(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS - {detail}")


def figure_graph():
    return graph_from_edges(8, [
        (0, 1, 0.60), (0, 2, 0.55), (0, 3, 0.50),
        (1, 2, 0.65), (1, 3, 0.45), (2, 3, 0.70),
        (4, 5, 0.62), (4, 6, 0.58), (4, 7, 0.49),
        (5, 6, 0.66), (5, 7, 0.52), (6, 7, 0.71),
        (3, 4, 0.32), (2, 5, 0.24), (1, 6, 0.23),
    ])


def test_criterion_01_figure_cut_value():
    g = figure_graph()
    side = np.array([1, 1, 1, 1, 2, 2, 2, 2])
    value = cut_value(g, side)
    assert abs(value - 0.79) <= 1e-12
    cut_value(g, side)  # warm
    elapsed = min(
        _timed(lambda: cut_value(g, side)) for _ in range(5)
    )
    assert elapsed < 1e-3
    report(1, f"cut 0.32+0.24+0.23 = {value!r} in {elapsed * 1e6:.0f} us")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_combinatorial_count():
    expected = [2 ** (n - 1) - 1 for n in range(2, 13)]
    counts = []
    for n in range(2, 13):
        seen = set()
        for side in iter_bipartitions(n):
            seen.add(tuple(side))
        counts.append(len(seen))
        assert len(seen) == bipartition_count(n)
        # brute force walks the same enumeration and finds its exact optimum
        rng = np.random.default_rng(n)
        g = complete_random_graph(rng, n)
        best = min(objective_value(g, s, CUTN) for s in iter_bipartitions(n))
        assert brute_force_min_cut(g, CUTN).objective_value == best
    assert counts == expected

    g500 = market_graph_from_weights(np.zeros((500, 500)))
    start = time.perf_counter()
    with pytest.raises(SizeLimitError) as exc:
        brute_force_min_cut(g500, CUTN)
    guard_time = time.perf_counter() - start
    err = exc.value
    assert err.candidate_count == 2 ** 499 - 1
    assert abs(float(err.candidate_count) - 1.6e150) <= 0.05e150
    assert "1.6e+150" in str(err)
    assert guard_time < 1.0
    report(2, f"counts {counts[:4]}...{counts[-1]}; N=500 guard reports "
              f"{float(err.candidate_count):.1e} candidates")


def test_criterion_03_rayleigh_identities():
    start = time.perf_counter()
    checked = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        g = complete_random_graph(rng, int(rng.integers(3, 11)))
        for side in iter_bipartitions(g.n_vertices):
            for objective in (CUTN, CUTV):
                lhs = rayleigh_quotient(
                    g, partition_indicator(g, side, objective), objective)
                rhs = objective_value(g, side, objective)
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"{checked} indicator identities within 1e-10 in {elapsed:.1f}s")


def test_criterion_04_spectral_vs_oracle():
    start = time.perf_counter()
    scores = {}
    for objective in (CUTN, CUTV):
        matches = 0
        disagreements = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            g, _ = planted_two_block_graph(rng, int(rng.integers(4, 11)))
            spectral = spectral_bisect(g, objective)
            oracle = brute_force_min_cut(g, objective)
            if partition_sets(spectral.side_of) == partition_sets(oracle.side_of):
                matches += 1
            else:
                disagreements.append(seed)
        if disagreements:
            print(f"{objective.value} disagreements at seeds {disagreements}")
        assert matches >= 95
        scores[objective.value] = matches
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"oracle agreement {scores} /100 in {elapsed:.1f}s")


def test_criterion_05_eigensolver_correctness():
    max_rel_residual = 0.0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        g = complete_random_graph(rng, int(rng.integers(2, 16)))
        lmax = np.max(np.abs(g.laplacian))
        for objective in (CUTN, CUTV):
            lam2, u2 = fiedler_vector(g, objective)
            if objective is CUTN:
                res = np.max(np.abs(g.laplacian @ u2 - lam2 * u2))
            else:
                res = np.max(np.abs(g.laplacian @ u2 - lam2 * g.degrees * u2))
            assert res <= 1e-8 * lmax
            max_rel_residual = max(max_rel_residual, res / lmax)

    disconnected = [
        graph_from_edges(6, [(0, 1, 0.8), (1, 2, 0.7), (0, 2, 0.9),
                             (3, 4, 0.8), (4, 5, 0.7), (3, 5, 0.9)]),
        graph_from_edges(5, [(0, 1, 0.5), (2, 3, 0.6), (3, 4, 0.7), (2, 4, 0.4)]),
    ]
    for g in disconnected:
        lam2, _ = fiedler_vector(g, CUTN)
        assert lam2 <= 1e-10

    for w in (0.05, 0.33, 0.5, 0.91):
        g = graph_from_edges(2, [(0, 1, w)])
        lam2, _ = fiedler_vector(g, CUTN)
        assert abs(lam2 - 2.0 * w) <= 1e-12
    report(5, f"max residual {max_rel_residual:.2e} of max|L|; "
              "disconnected lambda2 <= 1e-10; 2-vertex closed form holds")


def test_criterion_06_tree_accounting():
    for n, k in ((24, 10), (40, 7), (64, 10), (33, 0)):
        rng = np.random.default_rng(n * 100 + k)
        g = complete_random_graph(rng, n)
        tree = build_cut_tree(g, CutPolicy(max_cuts=k, min_leaf_size=1))
        assert tree.k_performed == k
        assert len(tree.leaf_ids) == k + 1
        members = sorted(m for leaf in tree.leaves() for m in leaf.members)
        assert members == list(range(n))
        trace = edge_budget_trace(tree)
        assert len(trace) == k + 1
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert trace[-1] == leaf_edge_budget(tree)

    g100 = complete_random_graph(np.random.default_rng(0), 100)
    tree0 = build_cut_tree(g100, CutPolicy(max_cuts=0))
    assert leaf_edge_budget(tree0) == 5050
    report(6, "leaf counts K+1, exact partitions, strictly shrinking edge "
              "budget; N=100 K=0 budget 5050")


def test_criterion_07_allocation_exactness(nested_block_graph):
    tree = build_cut_tree(nested_block_graph, CutPolicy(max_cuts=4, min_leaf_size=1))
    as1 = sorted(allocate(tree, AllocationScheme.AS1).per_leaf.values())
    as2 = list(allocate(tree, AllocationScheme.AS2).per_leaf.values())
    assert as1 == [0.125, 0.125, 0.25, 0.25, 0.25]
    assert as2 == [1.0 / 5.0] * 5

    rng = np.random.default_rng(7)
    for _ in range(1000):
        random_tree = random_cut_tree(rng, int(rng.integers(2, 26)),
                                      int(rng.integers(0, 10)))
        assert sum(2.0 ** (-leaf.depth) for leaf in random_tree.leaves()) == 1.0
        for scheme in AllocationScheme:
            w = asset_weights(random_tree, allocate(random_tree, scheme)).weights
            assert abs(w.sum() - 1.0) <= 1e-10
    report(7, "AS1 {1/4,1/4,1/4,1/8,1/8}, AS2 {1/5 x 5}; 1000 random trees "
              "dyadic-exact and unit-sum")


def test_criterion_08_min_variance_baseline():
    wv = min_variance_weights(CovarianceMatrix(np.diag([1.0, 2.0])))
    np.testing.assert_allclose(wv.weights, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)

    dup = CovarianceMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularCovarianceError):
        min_variance_weights(dup, ridge=0.0)

    ridged = min_variance_weights(dup, ridge=1e-6)
    assert np.all(np.isfinite(ridged.weights))
    a = dup.sigma + 1e-6 * np.eye(2)
    y = a @ ridged.weights
    scale = 2.0 / y.sum()
    residual = np.max(np.abs(scale * y - 1.0))
    assert residual <= 1e-8
    report(8, f"diag(1,2) -> (2/3, 1/3); singular duplicate errors at ridge 0; "
              f"ridge 1e-6 residual {residual:.1e}")


def test_criterion_09_backtest_integrity():
    prices, _ = block_factor_market([5, 7], 80, seed=13)
    strategies = (
        StrategySpec(kind=StrategyKind.EW),
        StrategySpec(kind=StrategyKind.MV),
        StrategySpec(kind=StrategyKind.CUT, objective=CUTN,
                     policy=CutPolicy(max_cuts=2, min_leaf_size=1),
                     scheme=AllocationScheme.AS1),
        StrategySpec(kind=StrategyKind.CUT, objective=CUTV,
                     policy=CutPolicy(max_cuts=2, min_leaf_size=1),
                     scheme=AllocationScheme.AS2),
    )
    config = BacktestConfig(split_index=40, strategies=strategies, mv_ridge=1e-9)
    base = run_backtest(prices, config)
    bumped = prices.prices.copy()
    bumped[60, :] *= 1.07
    perturbed = make_prices(bumped.T, asset_ids=prices.asset_ids,
                            timestamps=prices.timestamps)
    other = run_backtest(perturbed, config)
    for res_a, res_b in zip(base.results, other.results):
        assert res_a.ok and res_b.ok
        assert np.array_equal(res_a.weights.weights, res_b.weights.weights)

    single = make_prices([[100.0, 104.0, 101.0, 99.0, 103.0, 108.0, 105.0]])
    rep = run_backtest(single, BacktestConfig(
        split_index=2, strategies=(StrategySpec(kind=StrategyKind.EW),)))
    curve = rep.result("ew").wealth_curve
    path = single.prices[2:, 0] / single.prices[2, 0]
    assert np.max(np.abs(curve - path)) <= 1e-12
    report(9, "weights bit-identical under out-sample perturbation; "
              "single-asset wealth tracks normalized prices")


def test_criterion_10_synthetic_market_property():
    start = time.perf_counter()
    seeds = range(50)
    wins = {"cutn-as2": 0, "cutv-as2": 0}
    cut_policy = CutPolicy(max_cuts=1, min_leaf_size=1)
    strategies = (
        StrategySpec(kind=StrategyKind.EW),
        StrategySpec(kind=StrategyKind.CUT, objective=CUTN,
                     policy=cut_policy, scheme=AllocationScheme.AS2),
        StrategySpec(kind=StrategyKind.CUT, objective=CUTV,
                     policy=cut_policy, scheme=AllocationScheme.AS2),
    )
    for seed in seeds:
        prices, _ = block_factor_market(
            [8, 12], 500, within_corr=0.9, across_corr=0.1, seed=seed)
        rep = run_backtest(prices, BacktestConfig(split_index=250,
                                                  strategies=strategies))
        ew_std = rep.result("ew").std_return
        for label in wins:
            res = rep.result(label)
            assert res.ok
            if res.std_return <= ew_std:
                wins[label] += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    for label, count in wins.items():
        assert count >= 40, f"{label} beat EW variance in only {count}/50 seeds"
    report(10, f"out-sample std <= EW in {wins} of 50 seeds ({elapsed:.1f}s)")
