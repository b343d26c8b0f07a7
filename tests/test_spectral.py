import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import portcut.spectral
from hypothesis import given, settings
from hypothesis import strategies as st

from portcut import (
    CutObjective,
    DegenerateDegreeError,
    DegenerateVolumeError,
    InvalidInputError,
    InvalidPartitionError,
    MarketGraph,
    NumericalFailureError,
    SizeLimitError,
    bipartition_count,
    block_factor_market,
    brute_force_min_cut,
    cut_value,
    fiedler_vector,
    objective_value,
    partition_indicator,
    rayleigh_quotient,
    spectral_bisect,
)
from portcut.cli import main

from conftest import (
    complete_random_graph,
    graph_from_edges,
    iter_bipartitions,
    partition_sets,
    planted_two_block_graph,
    reference_cut_stats,
    reference_partition_indicator,
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
        g = MarketGraph(np.where(np.eye(6) == 1, 0.0, 1.0))
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


SCORERS = {
    "cut_value": lambda g, side: cut_value(g, side),
    "objective_cutn": lambda g, side: objective_value(g, side, CUTN),
    "objective_cutv": lambda g, side: objective_value(g, side, CUTV),
    "indicator_cutn": lambda g, side: partition_indicator(g, side, CUTN),
    "indicator_cutv": lambda g, side: partition_indicator(g, side, CUTV),
}

BAD_SIDES = {
    "wrong-shape": ([1, 2, 1], "side assignment has shape (3,), expected (4,)"),
    "entry-0": ([1, 0, 2, 2], "side assignment entries must be 1 or 2"),
    "entry-3": ([1, 3, 2, 2], "side assignment entries must be 1 or 2"),
    "one-side": ([2, 2, 2, 2], "both sides of a cut must be nonempty"),
}


class TestOneScoringPath:
    """Every scalar scorer checks and scores a side assignment the same way."""

    @pytest.mark.parametrize("scorer", SCORERS)
    @pytest.mark.parametrize("bad", BAD_SIDES)
    def test_same_message_for_each_bad_side(self, path4_graph, scorer, bad):
        side, message = BAD_SIDES[bad]
        with pytest.raises(InvalidPartitionError) as info:
            SCORERS[scorer](path4_graph, side)
        assert str(info.value) == message

    # The volumes are named in side order, whichever side holds vertex 0.
    @pytest.mark.parametrize("scorer", ["objective_cutv", "indicator_cutv"])
    @pytest.mark.parametrize("side, volumes", [([1, 1, 2], "v1=1.8, v2=0.0"),
                                               ([2, 2, 1], "v1=0.0, v2=1.8")],
                             ids=["side-2-empty", "side-1-empty"])
    def test_zero_volume_side_one_message(self, scorer, side, volumes):
        g = graph_from_edges(3, [(0, 1, 0.9)])
        with pytest.raises(DegenerateVolumeError) as info:
            SCORERS[scorer](g, side)
        assert str(info.value) == (
            f"zero-volume side ({volumes}) under the volume-normalized objective")

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_value_is_a_function_of_the_cut(self, n, seed):
        rng = np.random.default_rng(seed)
        g = complete_random_graph(rng, n)
        side = rng.integers(1, 3, size=n)
        side[rng.choice(n, size=2, replace=False)] = (1, 2)
        assert cut_value(g, side) == cut_value(g, 3 - side)
        for objective in (CUTN, CUTV):
            part, flipped = (portcut.spectral._partition_from_sides(g, s, objective)
                             for s in (side, 3 - side))
            assert objective_value(g, side, objective) == objective_value(g, 3 - side, objective)
            assert (part.cut_value, part.objective_value) == (
                flipped.cut_value, flipped.objective_value)
            assert (part.side_of.tolist(), flipped.side_of.tolist()) == (
                side.tolist(), (3 - side).tolist())

    def test_spectral_and_oracle_score_one_cut_alike(self):
        # Spectral labels this cut [2, 2, 2, 1, 1] and brute force [1, 1, 1, 2, 2]; summed
        # in each labelling's own order, the two values would be one ulp apart.
        g = planted_two_block_graph(np.random.default_rng(0), 5)[0]
        spectral, oracle = spectral_bisect(g, CUTN), brute_force_min_cut(g, CUTN)
        assert partition_sets(spectral.side_of) == partition_sets(oracle.side_of)
        assert spectral.objective_value == oracle.objective_value == 0.3509570699107868

    def test_figure_graph_values_pinned(self, figure_cut_graph):
        assert repr(cut_value(figure_cut_graph, FIGURE_SPLIT)) == "0.79"
        assert repr(objective_value(figure_cut_graph, FIGURE_SPLIT, CUTN)) == "0.395"
        assert (repr(objective_value(figure_cut_graph, FIGURE_SPLIT, CUTV))
                == "0.20210188842816368")


OBJECTIVE_ENTRY_POINTS = {
    "fiedler_vector": fiedler_vector,
    "spectral_bisect": spectral_bisect,
    "brute_force_min_cut": brute_force_min_cut,
    "objective_value": lambda g, o: objective_value(g, [1, 1, 1, 2, 2, 2], o),
    "partition_indicator": lambda g, o: partition_indicator(g, [1, 1, 1, 2, 2, 2], o),
    "rayleigh_quotient": lambda g, o: rayleigh_quotient(g, np.arange(6.0), o),
}


class TestObjectiveType:
    # A string "cutn" once ran every formula as CutV: fiedler_vector returned
    # lambda2 = 0.9711 on this graph, where CutN gives 2.3477.
    @pytest.mark.parametrize("objective", ["cutn", "cutv", None])
    @pytest.mark.parametrize("entry", OBJECTIVE_ENTRY_POINTS)
    def test_objective_must_be_a_cut_objective(self, entry, objective):
        g = complete_random_graph(np.random.default_rng(0), 6)
        with pytest.raises(InvalidInputError, match="objective must be a CutObjective"):
            OBJECTIVE_ENTRY_POINTS[entry](g, objective)


class TestRayleighQuotient:
    def test_ones_vector_in_null_space(self, figure_cut_graph):
        assert abs(rayleigh_quotient(figure_cut_graph, np.ones(8), CUTN)) <= 1e-12

    @pytest.mark.parametrize("objective", [CUTN, CUTV], ids=["cutn", "cutv"])
    def test_zero_vector_rejected(self, path4_graph, objective):
        with pytest.raises(InvalidInputError) as exc:
            rayleigh_quotient(path4_graph, np.zeros(4), objective)
        assert str(exc.value) == f"x'Mx must be positive for the {objective.value} objective"

    @pytest.mark.parametrize("x, objective, message", [
        (np.ones(4), CUTN, "vector has shape (4,), expected (3,)"),
        (np.ones((3, 1)), CUTV, "vector has shape (3, 1), expected (3,)"),
        # Vertex 2 has degree zero, so x'Dx = 0.
        (np.array([0.0, 0.0, 1.0]), CUTV, "x'Mx must be positive for the cutv objective"),
        # x is nonzero, but x'x underflows to 0.
        (np.array([1e-170, -1e-170, 0.0]), CUTN, "x'Mx must be positive for the cutn objective"),
    ])
    def test_undefined_quotient_named(self, x, objective, message):
        with pytest.raises(InvalidInputError) as exc:
            rayleigh_quotient(graph_from_edges(3, [(0, 1, 0.9)]), x, objective)
        assert str(exc.value) == message

    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad, objective):
        # Without the check the quotient is nan, with a numpy RuntimeWarning.
        g = complete_random_graph(np.random.default_rng(0), 4)
        with pytest.raises(InvalidInputError) as exc:
            rayleigh_quotient(g, [bad, 1.0, 2.0, 3.0], objective)
        assert str(exc.value) == "vector contains non-finite entries"

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

    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    def test_indicator_bit_identical_to_reference(self, objective):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            g = complete_random_graph(rng, int(rng.integers(2, 11)))
            for side in iter_bipartitions(g.n_vertices):
                for labelled in (side, 3 - side):
                    assert (partition_indicator(g, labelled, objective).tobytes()
                            == reference_partition_indicator(g, labelled, objective).tobytes())

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
        g = MarketGraph(np.zeros((1, 1)))
        with pytest.raises(InvalidInputError):
            fiedler_vector(g, CUTN)

    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    def test_lapack_failure_is_numerical_failure(self, objective, figure_cut_graph,
                                                 monkeypatch):
        monkeypatch.setattr(scipy.linalg, "eigh", _failing_eigh)
        with pytest.raises(NumericalFailureError) as exc:
            fiedler_vector(figure_cut_graph, objective)
        assert exc.value.diagnostics == {"n": 8, "objective": objective.value}

    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    def test_inexact_eigenpair_is_numerical_failure(self, objective, figure_cut_graph,
                                                    monkeypatch):
        eigh = scipy.linalg.eigh

        def perturbed_eigh(matrix, **kwargs):
            evals, evecs = eigh(matrix, **kwargs)
            return evals, evecs + 1e-3

        monkeypatch.setattr(scipy.linalg, "eigh", perturbed_eigh)
        with pytest.raises(NumericalFailureError) as exc:
            fiedler_vector(figure_cut_graph, objective)
        assert str(exc.value).endswith("exceeds 1e-08 * max|L|")
        diagnostics = exc.value.diagnostics
        assert set(diagnostics) == {"residual", "lmax", "lambda2"}
        assert diagnostics["residual"] > 1e-8 * diagnostics["lmax"]

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

    def test_constant_fiedler_vector_split_by_index(self, path4_graph, monkeypatch):
        # Neither sign nor median separates equal entries; the index split does.
        monkeypatch.setattr(portcut.spectral, "fiedler_vector",
                            lambda graph, objective: (0.25, np.full(4, 0.5)))
        part = spectral_bisect(path4_graph, CUTN)
        assert part.side_of.tolist() == [1, 1, 2, 2]
        assert part.lambda2 == 0.25

    @pytest.mark.parametrize("u2, side", [
        # No entry is negative, so the signs leave side 2 empty; entries at or below the
        # median 0.2 go to side 1, where `<` would have kept only vertex 2.
        ([0.3, 0.2, 0.1, 0.2], [2, 1, 1, 1]),
        # Three entries equal the median 0.5, so `<=` leaves side 2 empty too; `<` splits.
        ([0.5, 0.1, 0.5, 0.5], [2, 1, 2, 2]),
    ], ids=["median", "strict-median"])
    def test_median_fallbacks(self, path4_graph, monkeypatch, u2, side):
        fiedler = np.array(u2)
        monkeypatch.setattr(portcut.spectral, "fiedler_vector",
                            lambda graph, objective: (0.25, fiedler))
        part = spectral_bisect(path4_graph, CUTN)
        assert part.side_of.tolist() == side
        assert part.fiedler is fiedler and part.lambda2 == 0.25

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
        sides = [part.side_of == s for s in (1, 2)]
        assert sum(s.sum() for s in sides) == g.n_vertices
        assert all(s.sum() >= 1 for s in sides)
        total = float(g.degrees.sum())
        assert abs(sum(g.degrees[s].sum() for s in sides) - total) <= 1e-10 * total
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
            permuted = MarketGraph(g.weights[np.ix_(perm, perm)])
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
        assert bipartition_count(0) == bipartition_count(1) == 0
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
        g = MarketGraph(np.zeros((21, 21)))
        with pytest.raises(SizeLimitError):
            brute_force_min_cut(g, CUTN)

    def test_guard_reports_magnitude_without_enumerating(self):
        g = MarketGraph(np.zeros((500, 500)))
        with pytest.raises(SizeLimitError) as exc:
            brute_force_min_cut(g, CUTN)
        err = exc.value
        assert err.candidate_count == 2 ** 499 - 1
        assert "1.6e+150" in str(err)

    def test_lexicographic_tie_break(self):
        # All 7 splits of the uniform complete graph tie: lexicographically
        # smallest assignment puts only the last vertex on side 2.
        g = MarketGraph(np.where(np.eye(4) == 1, 0.0, 0.5))
        part = brute_force_min_cut(g, CUTN)
        assert part.side_of.tolist() == [1, 1, 1, 2]

    def test_brute_force_fields(self, path4_graph):
        part = brute_force_min_cut(path4_graph, CUTN)
        assert part.lambda2 is None
        assert part.fiedler is None
        assert part.cut_value == 1.0
        assert abs(part.objective_value - 1.0) <= 1e-12

    def test_edgeless_graph_under_volume_objective(self):
        g = MarketGraph(np.zeros((4, 4)))
        with pytest.raises(DegenerateVolumeError):
            brute_force_min_cut(g, CUTV)

    def test_too_small(self):
        g = MarketGraph(np.zeros((1, 1)))
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


def _three_equal_blocks(n):
    """Three blocks of n // 3 vertices, 0.9 within and 0.1 across: λ2 is repeated."""
    block = np.arange(n) // (n // 3)
    return MarketGraph(np.where(block[:, None] == block[None, :], 0.9, 0.1))


class TestLambda2Certificate:
    """λ2 ≤ the optimal objective ≤ the spectral cut's objective.

    Every bipartition's objective is the Rayleigh quotient of its indicator,
    which is orthogonal to 1 (CutN) or D-orthogonal to 1 (CutV), so λ2 bounds
    it from below, whichever eigenvector the solver returns.
    """

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["random", "planted", "three_blocks"]),
           n=st.integers(3, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_lambda2_bounds_the_optimum(self, kind, n, seed):
        rng = np.random.default_rng(seed)
        if kind == "random":
            graph = complete_random_graph(rng, n)
        elif kind == "planted":
            graph = planted_two_block_graph(rng, max(n, 4))[0]
        else:
            graph = _three_equal_blocks(n - n % 3)
        slack = 1e-9 * np.max(np.abs(graph.laplacian))
        for objective in (CUTN, CUTV):
            spectral = spectral_bisect(graph, objective)
            optimum = brute_force_min_cut(graph, objective).objective_value
            assert spectral.lambda2 <= optimum + slack
            assert optimum <= spectral.objective_value


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
    return MarketGraph(w + w.T)


def _uniform_graph(rng, n):
    """Every bipartition ties in exact arithmetic, under both objectives.

    The weight is inexact in binary, so the tied values round differently
    under different summation orders.
    """
    weight = float(rng.choice([0.1, 0.3, 0.7]))
    return MarketGraph(np.where(np.eye(n) == 1, 0.0, weight))


def _isolated_graph(rng, n):
    """Random weights with vertices 0 and n // 2 of degree zero."""
    w = complete_random_graph(rng, n).weights.copy()
    for v in (0, n // 2):
        w[v, :] = w[:, v] = 0.0
    return MarketGraph(w)


class TestBruteForceMatchesReference:
    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    @pytest.mark.parametrize("make_graph", [complete_random_graph, _rounded_graph,
                                            _uniform_graph, _isolated_graph])
    def test_same_side_and_bit_identical_objective(self, make_graph, objective):
        for n in range(2, 13):
            for seed in range(2):
                g = make_graph(np.random.default_rng(1000 * n + seed), n)
                side, obj = _reference_min_cut(g, objective)
                if side is None:  # CutV on an isolated graph with no edge left
                    with pytest.raises(DegenerateVolumeError):
                        brute_force_min_cut(g, objective)
                    continue
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
        assert all(g.degrees[part.side_of == s].sum() > 0.0 for s in (1, 2))
        side, obj = _reference_min_cut(g, CUTV)
        assert part.side_of.tolist() == side.tolist()
        assert part.objective_value == obj
        # CutN has no volume to lose: the isolated vertex alone is the zero cut.
        assert partition_sets(brute_force_min_cut(g, CUTN).side_of) == {
            alone, frozenset(others)}

    def test_subnormal_volume_never_wins(self):
        # {0, 1} has volume 2e-310, whose inverse overflows: its CutV value is
        # inf * 0 = NaN, which the reference never picks.
        g = graph_from_edges(5, [(0, 1, 1e-310), (2, 3, 0.5), (3, 4, 0.5), (2, 4, 0.5)])
        assert np.isnan(objective_value(g, [1, 1, 2, 2, 2], CUTV))
        for objective in (CUTN, CUTV):
            side, obj = _reference_min_cut(g, objective)
            part = brute_force_min_cut(g, objective)
            assert part.side_of.tolist() == side.tolist()
            assert part.objective_value == obj
        assert side.tolist() == [1, 1, 1, 1, 2] and obj == 1.5

    def test_no_finite_value_raises(self):
        g = graph_from_edges(2, [(0, 1, 1e-310)])
        assert _reference_min_cut(g, CUTV) == (None, np.inf)
        with pytest.raises(DegenerateVolumeError, match="no bipartition has a finite"):
            brute_force_min_cut(g, CUTV)
        assert brute_force_min_cut(g, CUTN).objective_value == 2 * 1e-310


class TestExactRescore:
    """The batched scorer against the scalar reference, and its cost at N = 20."""

    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    def test_bit_identical_to_objective_value(self, objective):
        for n in range(13, 21):
            rng = np.random.default_rng(n)
            g = complete_random_graph(rng, n)
            masks = rng.choice(np.arange(1, 2 ** (n - 1)), size=200, replace=False)
            sides = np.ones((masks.size, n), dtype=int)
            sides[:, 1:] += masks[:, None] >> np.arange(n - 1) & 1
            exact = portcut.spectral._exact_scores(g, objective, masks)
            assert exact.tolist() == [reference_cut_stats(g, side, objective)[5]
                                      for side in sides]
            assert exact.tolist() == [objective_value(g, side, objective) for side in sides]

    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    def test_arbitrary_rows_match_the_reference(self, objective):
        # Rows of one size with vertex 0 in side_a; a Partition labels the cut either way.
        for n in (2, 3, 7, 31, 64, 100):
            rng = np.random.default_rng(n)
            g = complete_random_graph(rng, n)
            size_b = int(rng.integers(1, n))
            perms = np.array([np.r_[0, 1 + rng.permutation(n - 1)] for _ in range(40)])
            side_a, side_b = np.sort(perms[:, :n - size_b]), np.sort(perms[:, n - size_b:])
            mass = portcut.spectral._mass(g, objective)
            scores = np.array(portcut.spectral._scores(g, mass, side_a, side_b)).T
            for a, got in zip(side_a, scores.tolist()):
                side = np.full(n, 2)
                side[a] = 1
                n1, n2, v1, v2, cut, value = reference_cut_stats(g, side, objective)
                assert got == [cut, *((n1, n2) if objective is CUTN else (v1, v2)), value]
                part, flipped = (portcut.spectral._partition_from_sides(g, s, objective)
                                 for s in (side, 3 - side))
                assert (part.cut_value, part.objective_value) == (cut, value)
                assert (flipped.cut_value, flipped.objective_value) == (cut, value)

    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    @pytest.mark.parametrize("make_graph", [complete_random_graph, _uniform_graph])
    def test_every_candidate_scored_once_and_bounded_peak_at_n20(self, make_graph, objective,
                                                                monkeypatch):
        # Every cut of the uniform graph ties, so all 2**19 - 1 are re-scored; the random
        # graph's lone candidate is scored only by the result's Partition.
        g = make_graph(np.random.default_rng(20), 20)
        rows, partitions = [], []
        scorer, scalar = portcut.spectral._scores, portcut.spectral._partition_from_sides
        monkeypatch.setattr(portcut.spectral, "_scores",
                            lambda g, m, a, b: rows.append(len(a)) or scorer(g, m, a, b))
        monkeypatch.setattr(portcut.spectral, "_partition_from_sides",
                            lambda *args, **kw: partitions.append(1) or scalar(*args, **kw))
        tracemalloc.start()
        try:
            part = brute_force_min_cut(g, objective)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        near = 2 ** 19 - 1 if make_graph is _uniform_graph else 0
        assert len(partitions) == 1  # the result's own Partition
        assert sum(rows) == near + 1
        # At most one call per side-2 count in each chunk of 2**21 // 400 masks.
        assert len(rows) <= 1 + 19 * -(-near // (2 ** 21 // 400))
        assert peak <= 24 * 2 ** 20
        assert part.objective_value == objective_value(g, part.side_of, objective)


class TestScreen:
    """The screen's values, not just its winner, against the scalar formula.

    Brute force trusts that every screened value is within SCREEN_REL_TOL
    of `objective_value`; the screen sums only nonnegative terms, so a few
    ulps per entry must do.
    """

    @pytest.mark.parametrize("objective", [CUTN, CUTV])
    @pytest.mark.parametrize("make_graph", [complete_random_graph, _rounded_graph,
                                            _uniform_graph, _isolated_graph])
    def test_every_entry_within_ulps_of_objective_value(self, make_graph, objective):
        for n in range(2, 15):
            g = make_graph(np.random.default_rng(n), n)
            screened = portcut.spectral._screen(g, objective)
            assert screened.shape == (bipartition_count(n),)
            bound = 8 * n * np.finfo(float).eps
            for score, side in zip(screened.tolist(), iter_bipartitions(n)):
                try:
                    exact = objective_value(g, side, objective)
                except DegenerateVolumeError:
                    assert objective is CUTV and score == np.inf, (n, side)
                    continue
                assert abs(score - exact) <= bound * exact, (n, side, score, exact)


def _unit_degree_graph(rng, n, k):
    """The mean of k random perfect matchings on n vertices: every degree is exactly 1."""
    w = np.zeros((n, n))
    for _ in range(k):
        pairs = rng.permutation(n).reshape(-1, 2)
        w[pairs[:, 0], pairs[:, 1]] += 1.0
        w[pairs[:, 1], pairs[:, 0]] += 1.0
    return MarketGraph(w / k)


class TestUnitMasses:
    """With every degree 1, CutN and CutV pose one problem and must agree bit for bit."""

    def test_objectives_agree_when_every_degree_is_one(self):
        rng = np.random.default_rng(1)
        for _ in range(150):
            n, k = 2 * int(rng.integers(1, 9)), int(rng.choice([2, 4]))
            g = _unit_degree_graph(rng, n, k)
            assert g.degrees.tolist() == [1.0] * n
            side = np.r_[1, 2, rng.integers(1, 3, size=n - 2)]
            x = rng.normal(size=n)
            (lam_n, u_n), (lam_v, u_v) = (fiedler_vector(g, o) for o in (CUTN, CUTV))
            assert lam_n == lam_v and u_n.tobytes() == u_v.tobytes(), (n, k)
            for run in (spectral_bisect, brute_force_min_cut):
                a, b = run(g, CUTN), run(g, CUTV)
                assert a.side_of.tolist() == b.side_of.tolist(), (run.__name__, n, k)
                assert (a.objective_value, a.cut_value) == (b.objective_value, b.cut_value)
            assert objective_value(g, side, CUTN) == objective_value(g, side, CUTV)
            assert (partition_indicator(g, side, CUTN).tobytes()
                    == partition_indicator(g, side, CUTV).tobytes())
            assert rayleigh_quotient(g, x, CUTN) == rayleigh_quotient(g, x, CUTV)
            assert (portcut.spectral._screen(g, CUTN).tobytes()
                    == portcut.spectral._screen(g, CUTV).tobytes())
