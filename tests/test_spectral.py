import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from portcut import (
    CutObjective,
    DegenerateDegreeError,
    DegenerateVolumeError,
    InvalidInputError,
    InvalidPartitionError,
    NumericalFailureError,
    SizeLimitError,
    bipartition_count,
    block_factor_market,
    brute_force_min_cut,
    cut_value,
    fiedler_vector,
    market_graph_from_weights,
    objective_value,
    partition_indicator,
    rayleigh_quotient,
    spectral_bisect,
)
from portcut.spectral import iter_bipartitions
from portcut.cli import main

from conftest import (
    complete_random_graph,
    graph_from_edges,
    partition_sets,
    planted_two_block_graph,
    write_prices_csv,
)

CUTN = CutObjective.NORMALIZED
CUTV = CutObjective.VOLUME_NORMALIZED

FIGURE_SPLIT = np.array([1, 1, 1, 1, 2, 2, 2, 2])


class TestCutValue:
    def test_figure_graph_crossing_sum(self, figure_cut_graph):
        assert abs(cut_value(figure_cut_graph, FIGURE_SPLIT) - 0.79) <= 1e-12

    def test_disconnected_components_zero(self, two_triangles_graph):
        assert cut_value(two_triangles_graph, [1, 1, 1, 2, 2, 2]) == 0.0

    def test_two_vertices_single_edge(self):
        g = graph_from_edges(2, [(0, 1, 0.37)])
        assert cut_value(g, [1, 2]) == 0.37

    def test_empty_side_rejected(self, path4_graph):
        with pytest.raises(InvalidPartitionError):
            cut_value(path4_graph, [1, 1, 1, 1])

    def test_bad_labels_rejected(self, path4_graph):
        with pytest.raises(InvalidPartitionError):
            cut_value(path4_graph, [0, 1, 2, 1])

    def test_wrong_length_rejected(self, path4_graph):
        with pytest.raises(InvalidPartitionError):
            cut_value(path4_graph, [1, 2])


class TestObjectiveValue:
    def test_figure_graph_normalized(self, figure_cut_graph):
        got = objective_value(figure_cut_graph, FIGURE_SPLIT, CUTN)
        assert abs(got - 0.395) <= 1e-12

    def test_zero_cut_zero_objective(self, two_triangles_graph):
        side = [1, 1, 1, 2, 2, 2]
        assert objective_value(two_triangles_graph, side, CUTN) == 0.0
        assert objective_value(two_triangles_graph, side, CUTV) == 0.0

    def test_prefactor_minimal_for_balanced_split(self):
        # On the uniform complete graph the cut is n1*n2*w, so the objective
        # divided by the cut isolates the (1/n1 + 1/n2) prefactor.
        g = market_graph_from_weights(np.where(np.eye(6) == 1, 0.0, 1.0))
        prefactors = {}
        for side in iter_bipartitions(6):
            n1 = int(np.sum(side == 1))
            ratio = objective_value(g, side, CUTN) / cut_value(g, side)
            prefactors.setdefault(n1, ratio)
        balanced = prefactors[3]
        assert abs(balanced - 4.0 / 6.0) <= 1e-12
        assert all(balanced <= v + 1e-15 for v in prefactors.values())

    def test_zero_volume_side_rejected(self):
        g = graph_from_edges(3, [(0, 1, 0.9)])
        with pytest.raises(DegenerateVolumeError):
            objective_value(g, [1, 1, 2], CUTV)


class TestRayleighQuotient:
    def test_ones_vector_in_null_space(self, figure_cut_graph):
        assert abs(rayleigh_quotient(figure_cut_graph, np.ones(8), CUTN)) <= 1e-12

    def test_zero_vector_rejected(self, path4_graph):
        with pytest.raises(InvalidInputError):
            rayleigh_quotient(path4_graph, np.zeros(4), CUTN)

    @pytest.mark.parametrize("seed", range(8))
    def test_cardinality_indicator_identity(self, seed):
        rng = np.random.default_rng(seed)
        g = complete_random_graph(rng, int(rng.integers(3, 11)))
        for side in iter_bipartitions(g.n_vertices):
            x = partition_indicator(g, side, CUTN)
            lhs = rayleigh_quotient(g, x, CUTN)
            rhs = objective_value(g, side, CUTN)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    @pytest.mark.parametrize("seed", range(8))
    def test_volume_indicator_identity(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = complete_random_graph(rng, int(rng.integers(3, 11)))
        for side in iter_bipartitions(g.n_vertices):
            x = partition_indicator(g, side, CUTV)
            lhs = rayleigh_quotient(g, x, CUTV)
            rhs = objective_value(g, side, CUTV)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    @settings(deadline=None, max_examples=30)
    @given(scale=st.floats(min_value=1e-8, max_value=1e8).filter(lambda c: c != 0))
    def test_scaling_invariance(self, scale):
        rng = np.random.default_rng(17)
        g = complete_random_graph(rng, 7)
        x = rng.normal(size=7)
        for obj in (CUTN, CUTV):
            base = rayleigh_quotient(g, x, obj)
            scaled = rayleigh_quotient(g, scale * x, obj)
            assert abs(scaled - base) <= 1e-12 * max(abs(base), 1e-30)

    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    def test_lambda2_lower_bounds_indicator_quotients(self, objective):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = complete_random_graph(rng, int(rng.integers(3, 9)))
            lam2, _ = fiedler_vector(g, objective)
            for side in iter_bipartitions(g.n_vertices):
                x = partition_indicator(g, side, objective)
                assert lam2 <= rayleigh_quotient(g, x, objective) + 1e-10


class TestFiedlerVector:
    def test_two_vertex_closed_form(self):
        for w in (0.2, 0.5, 0.93):
            g = graph_from_edges(2, [(0, 1, w)])
            lam2, u2 = fiedler_vector(g, CUTN)
            assert abs(lam2 - 2.0 * w) <= 1e-12
            np.testing.assert_allclose(np.abs(u2), [np.sqrt(0.5)] * 2, atol=1e-12)
            assert np.sign(u2[0]) != np.sign(u2[1])

    def test_disconnected_graph_zero_lambda2(self, two_triangles_graph):
        lam2, u2 = fiedler_vector(two_triangles_graph, CUTN)
        assert lam2 <= 1e-10
        # component-wise constant
        assert np.ptp(u2[:3]) <= 1e-10
        assert np.ptp(u2[3:]) <= 1e-10

    def test_path4_splits_middle_edge(self, path4_graph):
        lam2, u2 = fiedler_vector(path4_graph, CUTN)
        assert lam2 > 0.0
        side = np.where(u2 > 0, 1, 2)
        assert partition_sets(side) == {frozenset({0, 1}), frozenset({2, 3})}
        oracle = brute_force_min_cut(path4_graph, CUTN)
        assert partition_sets(side) == partition_sets(oracle.side_of)

    def test_unit_norm_constraints(self, figure_cut_graph):
        _, u_n = fiedler_vector(figure_cut_graph, CUTN)
        assert abs(u_n @ u_n - 1.0) <= 1e-12
        _, u_v = fiedler_vector(figure_cut_graph, CUTV)
        d = figure_cut_graph.degrees
        assert abs(u_v @ (d * u_v) - 1.0) <= 1e-12

    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    def test_residual_bound(self, objective):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = complete_random_graph(rng, int(rng.integers(2, 12)))
            lam2, u2 = fiedler_vector(g, objective)
            lap = g.laplacian
            if objective is CUTN:
                res = np.max(np.abs(lap @ u2 - lam2 * u2))
            else:
                res = np.max(np.abs(lap @ u2 - lam2 * g.degrees * u2))
            assert res <= 1e-8 * np.max(np.abs(lap))

    def test_zero_degree_rejected_under_volume(self):
        g = graph_from_edges(3, [(0, 1, 0.9)])
        with pytest.raises(DegenerateDegreeError) as exc:
            fiedler_vector(g, CUTV)
        assert exc.value.vertices == [2]

    def test_single_vertex_rejected(self):
        g = market_graph_from_weights(np.zeros((1, 1)))
        with pytest.raises(InvalidInputError):
            fiedler_vector(g, CUTN)

    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    def test_lapack_failure_is_numerical_failure(self, objective, figure_cut_graph,
                                                 monkeypatch):
        monkeypatch.setattr(scipy.linalg, "eigh", _failing_eigh)
        with pytest.raises(NumericalFailureError) as exc:
            fiedler_vector(figure_cut_graph, objective)
        assert exc.value.diagnostics == {"n": 8, "objective": objective.value}

    def test_lapack_failure_exits_2_on_cli(self, tmp_path, monkeypatch, capsys):
        prices, _ = block_factor_market([3, 3], 40, seed=3)
        path = tmp_path / "prices.csv"
        write_prices_csv(path, prices)
        monkeypatch.setattr(scipy.linalg, "eigh", _failing_eigh)
        assert main(["cut", str(path), "--max-cuts", "1"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "NumericalFailureError"


def _failing_eigh(*args, **kwargs):
    raise scipy.linalg.LinAlgError("simulated LAPACK failure")


class TestSpectralBisect:
    def test_two_triangles_split_along_components(self, two_triangles_graph):
        part = spectral_bisect(two_triangles_graph, CUTN)
        assert part.cut_value == 0.0
        assert partition_sets(part.side_of) == {
            frozenset({0, 1, 2}), frozenset({3, 4, 5})}
        assert part.lambda2 <= 1e-10

    def test_path4_matches_oracle(self, path4_graph):
        part = spectral_bisect(path4_graph, CUTN)
        oracle = brute_force_min_cut(path4_graph, CUTN)
        assert partition_sets(part.side_of) == partition_sets(oracle.side_of)
        assert partition_sets(part.side_of) == {frozenset({0, 1}), frozenset({2, 3})}

    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    def test_figure_graph_recovers_clusters(self, figure_cut_graph, objective):
        part = spectral_bisect(figure_cut_graph, objective)
        oracle = brute_force_min_cut(figure_cut_graph, objective)
        expected = {frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7})}
        assert partition_sets(part.side_of) == expected
        assert partition_sets(oracle.side_of) == expected

    def test_partition_statistics_consistent(self, figure_cut_graph):
        part = spectral_bisect(figure_cut_graph, CUTV)
        g = figure_cut_graph
        assert part.n1 + part.n2 == g.n_vertices
        assert part.n1 >= 1 and part.n2 >= 1
        total = g.total_volume
        assert abs(part.v1 + part.v2 - total) <= 1e-10 * total
        assert part.cut_value >= 0.0
        assert part.objective_value >= 0.0
        assert part.lambda2 >= -1e-10
        assert part.fiedler is not None and part.fiedler.shape == (8,)
        assert part.objective is CUTV

    def test_isolated_vertex_goes_alone_under_cutn(self):
        g = graph_from_edges(3, [(0, 1, 0.9)])
        part = spectral_bisect(g, CUTN)
        assert partition_sets(part.side_of) == {frozenset({0, 1}), frozenset({2})}
        assert part.cut_value == 0.0

    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    def test_permutation_equivariance(self, objective):
        rng = np.random.default_rng(77)
        for seed in range(8):
            g, _ = planted_two_block_graph(np.random.default_rng(seed), 8)
            part = spectral_bisect(g, objective)
            perm = rng.permutation(8)
            permuted = market_graph_from_weights(g.weights[np.ix_(perm, perm)])
            part_p = spectral_bisect(permuted, objective)
            expected = {
                frozenset(int(np.flatnonzero(perm == v)[0]) for v in side)
                for side in partition_sets(part.side_of)
            }
            assert partition_sets(part_p.side_of) == expected

    def test_deterministic(self, figure_cut_graph):
        a = spectral_bisect(figure_cut_graph, CUTN)
        b = spectral_bisect(figure_cut_graph, CUTN)
        assert np.array_equal(a.side_of, b.side_of)
        assert a.lambda2 == b.lambda2
        assert np.array_equal(a.fiedler, b.fiedler)


class TestBruteForce:
    def test_candidate_counts(self):
        assert bipartition_count(2) == 1
        assert bipartition_count(4) == 7
        assert sum(1 for _ in iter_bipartitions(2)) == 1
        assert sum(1 for _ in iter_bipartitions(4)) == 7

    def test_all_candidates_distinct_and_valid(self):
        seen = set()
        for side in iter_bipartitions(5):
            assert side[0] == 1
            assert np.any(side == 2)
            seen.add(tuple(side))
        assert len(seen) == bipartition_count(5)

    def test_size_guard(self):
        g = market_graph_from_weights(np.zeros((21, 21)))
        with pytest.raises(SizeLimitError):
            brute_force_min_cut(g, CUTN)

    def test_guard_reports_magnitude_without_enumerating(self):
        g = market_graph_from_weights(np.zeros((500, 500)))
        with pytest.raises(SizeLimitError) as exc:
            brute_force_min_cut(g, CUTN)
        err = exc.value
        assert err.candidate_count == 2 ** 499 - 1
        assert "1.6e+150" in str(err)

    def test_lexicographic_tie_break(self):
        # All 7 splits of the uniform complete graph tie: lexicographically
        # smallest assignment puts only the last vertex on side 2.
        g = market_graph_from_weights(np.where(np.eye(4) == 1, 0.0, 0.5))
        part = brute_force_min_cut(g, CUTN)
        assert part.side_of.tolist() == [1, 1, 1, 2]

    def test_brute_force_fields(self, path4_graph):
        part = brute_force_min_cut(path4_graph, CUTN)
        assert part.lambda2 is None
        assert part.fiedler is None
        assert part.cut_value == 1.0
        assert abs(part.objective_value - 1.0) <= 1e-12

    def test_edgeless_graph_under_volume_objective(self):
        g = market_graph_from_weights(np.zeros((4, 4)))
        with pytest.raises(DegenerateVolumeError):
            brute_force_min_cut(g, CUTV)

    def test_too_small(self):
        g = market_graph_from_weights(np.zeros((1, 1)))
        with pytest.raises(InvalidInputError):
            brute_force_min_cut(g, CUTN)


class TestOracleAgreement:
    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    def test_planted_blocks_agree_with_oracle(self, objective):
        matches = 0
        disagreements = []
        total = 100
        for seed in range(total):
            rng = np.random.default_rng(seed)
            g, _ = planted_two_block_graph(rng, int(rng.integers(4, 11)))
            spectral = spectral_bisect(g, objective)
            oracle = brute_force_min_cut(g, objective)
            if partition_sets(spectral.side_of) == partition_sets(oracle.side_of):
                matches += 1
            else:
                disagreements.append(seed)
        if disagreements:
            print(f"{objective.value}: spectral/oracle disagreements at seeds "
                  f"{disagreements}")
        assert matches >= 95

    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    @pytest.mark.parametrize("n", [12, 16, 20])
    def test_planted_blocks_agree_at_large_n(self, n, objective):
        disagreements = []
        for seed in range(10):
            g, _ = planted_two_block_graph(np.random.default_rng(seed), n)
            spectral = spectral_bisect(g, objective)
            oracle = brute_force_min_cut(g, objective)
            if partition_sets(spectral.side_of) != partition_sets(oracle.side_of):
                disagreements.append(seed)
        assert disagreements == [], (
            f"N={n} {objective.value}: spectral/oracle disagreements at seeds "
            f"{disagreements}")


def _reference_min_cut(graph, objective):
    """The per-candidate loop `brute_force_min_cut` replaced, kept as its reference."""
    n = graph.n_vertices
    best_side = None
    best_obj = np.inf
    for mask in range(1, 2 ** (n - 1)):
        side = np.ones(n, dtype=int)
        for bit in range(n - 1):
            if mask >> bit & 1:
                side[bit + 1] = 2
        try:
            obj = objective_value(graph, side, objective)
        except DegenerateVolumeError:
            continue
        if obj < best_obj or (obj == best_obj and best_side is not None
                              and tuple(side) < tuple(best_side)):
            best_obj = obj
            best_side = side
    return best_side, best_obj


def _rounded_graph(rng, n):
    """Weights on a 0.1 grid, so many cuts tie in exact arithmetic."""
    w = np.triu(np.round(rng.uniform(0.0, 1.0, size=(n, n)), 1), 1)
    return market_graph_from_weights(w + w.T)


def _uniform_graph(rng, n):
    """Every bipartition ties in exact arithmetic, under both objectives.

    The weight is inexact in binary, so the tied values round differently
    under different summation orders.
    """
    weight = float(rng.choice([0.1, 0.3, 0.7]))
    return market_graph_from_weights(np.where(np.eye(n) == 1, 0.0, weight))


class TestBruteForceMatchesReference:
    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    @pytest.mark.parametrize("make_graph", [complete_random_graph, _rounded_graph,
                                            _uniform_graph])
    def test_same_side_and_bit_identical_objective(self, make_graph, objective):
        for n in range(2, 13):
            for seed in range(2):
                g = make_graph(np.random.default_rng(1000 * n + seed), n)
                side, obj = _reference_min_cut(g, objective)
                part = brute_force_min_cut(g, objective)
                assert part.side_of.tolist() == side.tolist(), (n, seed)
                assert part.objective_value == obj, (n, seed)
                assert part.objective_value == objective_value(g, part.side_of, objective)

    @pytest.mark.parametrize("isolated", [0, 3])
    def test_cutv_skips_zero_volume_side(self, isolated):
        others = [v for v in range(4) if v != isolated]
        g = graph_from_edges(4, [(others[0], others[1], 0.9), (others[1], others[2], 0.8),
                                 (others[0], others[2], 0.7)])
        alone = frozenset({isolated})
        for side in iter_bipartitions(4):
            if alone in partition_sets(side):
                with pytest.raises(DegenerateVolumeError):
                    objective_value(g, side, CUTV)
        part = brute_force_min_cut(g, CUTV)
        assert alone not in partition_sets(part.side_of)
        assert part.v1 > 0.0 and part.v2 > 0.0
        side, obj = _reference_min_cut(g, CUTV)
        assert part.side_of.tolist() == side.tolist()
        assert part.objective_value == obj
        # CutN has no volume to lose: the isolated vertex alone is the zero cut.
        assert partition_sets(brute_force_min_cut(g, CUTN).side_of) == {
            alone, frozenset(others)}
