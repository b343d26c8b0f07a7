"""Single spectral bisection of a market graph.

Two cut objectives are supported: cardinality-normalized (CutN) and
volume-normalized (CutV). Both are driven by the Fiedler vector of the
corresponding (generalized) Laplacian eigenproblem, with an exhaustive
brute-force minimizer available as an oracle for small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateDegreeError,
    DegenerateVolumeError,
    InvalidInputError,
    InvalidPartitionError,
    NumericalFailureError,
    SizeLimitError,
)
from .market_graph import MarketGraph

__all__ = [
    "CutObjective",
    "Partition",
    "cut_value",
    "objective_value",
    "rayleigh_quotient",
    "partition_indicator",
    "fiedler_vector",
    "spectral_bisect",
    "brute_force_min_cut",
    "bipartition_count",
    "iter_bipartitions",
    "BRUTE_FORCE_MAX_VERTICES",
]

BRUTE_FORCE_MAX_VERTICES = 20

# Entries of the Fiedler vector closer to zero than this are treated as
# sign-rule ties and assigned to side 1.
SIGN_TIE_TOL = 1e-12

# Residual bound for accepting an eigenpair, relative to max|L|.
RESIDUAL_REL_TOL = 1e-8

# Brute force re-scores exactly every candidate whose screened objective is
# within this relative distance of the screened minimum. The screen's own
# rounding error is a few ulps, far inside it.
SCREEN_REL_TOL = 1e-9

# Bit masks decoded and screened per block. Bounds the block at N=20, where
# all 2**19 masks at once would take ~84 MB; measured fastest on 2 vCPUs.
_MASK_BLOCK = 1024


class CutObjective(Enum):
    """Which normalization the cut minimizes."""

    NORMALIZED = "cutn"
    VOLUME_NORMALIZED = "cutv"


@dataclass(frozen=True)
class Partition:
    """A bipartition of graph vertices with its cut statistics.

    ``side_of`` holds 1 or 2 per vertex. ``lambda2`` and ``fiedler`` are
    populated by the spectral path and ``None`` for brute-force results.
    """

    side_of: np.ndarray
    n1: int
    n2: int
    v1: float
    v2: float
    cut_value: float
    objective_value: float
    objective: CutObjective
    lambda2: Optional[float] = None
    fiedler: Optional[np.ndarray] = None


def _validate_side_of(graph: MarketGraph, side_of) -> np.ndarray:
    side = np.asarray(side_of, dtype=int)
    if side.shape != (graph.n_vertices,):
        raise InvalidPartitionError(
            f"side assignment has shape {side.shape}, expected ({graph.n_vertices},)"
        )
    if not np.all((side == 1) | (side == 2)):
        raise InvalidPartitionError("side assignment entries must be 1 or 2")
    if not np.any(side == 1) or not np.any(side == 2):
        raise InvalidPartitionError("both sides of a cut must be nonempty")
    return side


def _crossing_weight(graph: MarketGraph, m1: np.ndarray) -> float:
    return float(graph.weights[np.ix_(m1, ~m1)].sum())


def _normalized_cut(graph: MarketGraph, m1: np.ndarray, cut: float,
                    objective: CutObjective) -> float:
    if objective is CutObjective.NORMALIZED:
        n1 = int(m1.sum())
        n2 = int((~m1).sum())
        return (1.0 / n1 + 1.0 / n2) * cut
    v1 = float(graph.degrees[m1].sum())
    v2 = float(graph.degrees[~m1].sum())
    if v1 <= 0.0 or v2 <= 0.0:
        raise DegenerateVolumeError(
            f"zero-volume side (v1={v1}, v2={v2}) under the volume-normalized objective"
        )
    return (1.0 / v1 + 1.0 / v2) * cut


def cut_value(graph: MarketGraph, side_of) -> float:
    """Sum of weights crossing between side 1 and side 2."""
    side = _validate_side_of(graph, side_of)
    return _crossing_weight(graph, side == 1)


def objective_value(graph: MarketGraph, side_of, objective: CutObjective) -> float:
    """Normalized cut value of a bipartition.

    CutN multiplies the crossing weight by (1/N1 + 1/N2); CutV multiplies it
    by (1/V1 + 1/V2) where V is the sum of degrees on each side.

    Raises
    ------
    DegenerateVolumeError
        Under the volume objective when a side has zero volume.
    """
    m1 = _validate_side_of(graph, side_of) == 1
    return _normalized_cut(graph, m1, _crossing_weight(graph, m1), objective)


def partition_indicator(graph: MarketGraph, side_of, objective: CutObjective) -> np.ndarray:
    """Piecewise-constant indicator vector encoding a bipartition.

    Takes the value 1/N1 (resp. 1/V1) on side 1 and -1/N2 (resp. -1/V2) on
    side 2, so that its Rayleigh quotient reproduces the cut objective.
    """
    side = _validate_side_of(graph, side_of)
    m1 = side == 1
    x = np.empty(side.shape[0], dtype=float)
    if objective is CutObjective.NORMALIZED:
        x[m1] = 1.0 / m1.sum()
        x[~m1] = -1.0 / (~m1).sum()
        return x
    v1 = float(graph.degrees[m1].sum())
    v2 = float(graph.degrees[~m1].sum())
    if v1 <= 0.0 or v2 <= 0.0:
        raise DegenerateVolumeError(
            f"zero-volume side (v1={v1}, v2={v2}) has no volume indicator"
        )
    x[m1] = 1.0 / v1
    x[~m1] = -1.0 / v2
    return x


def rayleigh_quotient(graph: MarketGraph, x, objective: CutObjective) -> float:
    """x'Lx / x'x (normalized) or x'Lx / x'Dx (volume-normalized)."""
    vec = np.asarray(x, dtype=float)
    if vec.shape != (graph.n_vertices,):
        raise InvalidInputError(
            f"vector has shape {vec.shape}, expected ({graph.n_vertices},)"
        )
    if not np.any(vec != 0.0):
        raise InvalidInputError("Rayleigh quotient of the zero vector is undefined")
    num = float(vec @ graph.laplacian @ vec)
    if objective is CutObjective.NORMALIZED:
        return num / float(vec @ vec)
    den = float(vec @ (graph.degrees * vec))
    if den <= 0.0:
        raise InvalidInputError("x'Dx must be positive for the volume objective")
    return num / den


def fiedler_vector(graph: MarketGraph, objective: CutObjective):
    """Second-smallest eigenpair of the cut objective's eigenproblem.

    Solves L x = lambda x for the normalized objective, or the generalized
    problem L x = lambda D x for the volume objective via the symmetric
    reduction D^(-1/2) L D^(-1/2). The returned vector is unit-norm in the
    objective's inner product (x'x = 1, resp. x'Dx = 1) and sign-fixed so
    its largest-magnitude entry is positive.

    Returns
    -------
    (lambda2, u2)

    Raises
    ------
    DegenerateDegreeError
        Volume objective with zero-degree vertices.
    NumericalFailureError
        LAPACK eigensolver failure, or a residual exceeding
        1e-8 * max|L| (verified before returning).
    """
    n = graph.n_vertices
    if n < 2:
        raise InvalidInputError("Fiedler vector needs at least 2 vertices")
    lap = graph.laplacian
    lmax = float(np.max(np.abs(lap)))

    if objective is CutObjective.NORMALIZED:
        matrix = lap
    else:
        dead = np.flatnonzero(graph.degrees <= 0.0)
        if dead.size:
            raise DegenerateDegreeError(dead.tolist())
        inv_sqrt_d = 1.0 / np.sqrt(graph.degrees)
        matrix = inv_sqrt_d[:, None] * lap * inv_sqrt_d[None, :]
    try:
        evals, evecs = scipy.linalg.eigh(matrix, subset_by_index=[0, 1])
    except scipy.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"eigensolver failed on {n} vertices ({objective.value}): {exc}",
            diagnostics={"n": n, "objective": objective.value},
        ) from exc
    lam2 = float(evals[1])

    if objective is CutObjective.NORMALIZED:
        u2 = evecs[:, 1].copy()
        residual = float(np.max(np.abs(lap @ u2 - lam2 * u2)))
    else:
        u2 = inv_sqrt_d * evecs[:, 1]
        u2 = u2 / np.sqrt(float(u2 @ (graph.degrees * u2)))
        residual = float(np.max(np.abs(lap @ u2 - lam2 * graph.degrees * u2)))

    k = int(np.argmax(np.abs(u2)))
    if u2[k] < 0.0:
        u2 = -u2
    if residual > RESIDUAL_REL_TOL * max(lmax, np.finfo(float).tiny):
        raise NumericalFailureError(
            f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_REL_TOL:.0e} * max|L|",
            diagnostics={"residual": residual, "lmax": lmax, "lambda2": lam2},
        )
    return lam2, u2


def _partition_from_sides(graph: MarketGraph, side: np.ndarray,
                          objective: CutObjective,
                          lambda2: Optional[float] = None,
                          fiedler: Optional[np.ndarray] = None) -> Partition:
    side = _validate_side_of(graph, side)
    m1 = side == 1
    cut = _crossing_weight(graph, m1)
    return Partition(
        side_of=side,
        n1=int(m1.sum()),
        n2=int((~m1).sum()),
        v1=float(graph.degrees[m1].sum()),
        v2=float(graph.degrees[~m1].sum()),
        cut_value=cut,
        objective_value=_normalized_cut(graph, m1, cut, objective),
        objective=objective,
        lambda2=lambda2,
        fiedler=fiedler,
    )


def spectral_bisect(graph: MarketGraph, objective: CutObjective) -> Partition:
    """Bipartition the graph by the signs of its Fiedler vector.

    Positive entries go to side 1, negative to side 2; entries within
    SIGN_TIE_TOL of zero count as side 1. If that leaves a side empty (which
    happens for disconnected graphs whose null space is component-supported),
    the split falls back to the median of the Fiedler values, then to a
    strict-inequality median split, so both sides are always nonempty.
    """
    lam2, u2 = fiedler_vector(graph, objective)
    side = np.where(u2 < -SIGN_TIE_TOL, 2, 1)
    if not _both_sides(side):
        med = float(np.median(u2))
        side = np.where(u2 <= med, 1, 2)
        if not _both_sides(side):
            side = np.where(u2 < med, 1, 2)
        if not _both_sides(side):
            # All Fiedler entries identical; split by index as a last resort.
            side = np.ones(len(u2), dtype=int)
            side[len(u2) // 2:] = 2
    return _partition_from_sides(graph, side, objective, lambda2=lam2, fiedler=u2)


def _both_sides(side: np.ndarray) -> bool:
    return bool(np.any(side == 1)) and bool(np.any(side == 2))


def bipartition_count(n: int) -> int:
    """Number of distinct bipartitions of n vertices: 2**(n-1) - 1."""
    if n < 2:
        return 0
    return 2 ** (n - 1) - 1


def _mask_blocks(n: int) -> Iterator[np.ndarray]:
    """Bit masks 1 .. 2**(n-1) - 1 in order, in blocks of up to _MASK_BLOCK."""
    stop = 2 ** (n - 1)
    for first in range(1, stop, _MASK_BLOCK):
        yield np.arange(first, min(first + _MASK_BLOCK, stop))


def _side2_of(masks: np.ndarray, n: int) -> np.ndarray:
    """0/1 side-2 indicator rows: bit b of a mask puts vertex b + 1 on side 2.

    Vertex 0 always stays on side 1.
    """
    rows = np.zeros((masks.size, n), dtype=int)
    rows[:, 1:] = (masks[:, None] >> np.arange(n - 1)) & 1
    return rows


def iter_bipartitions(n: int) -> Iterator[np.ndarray]:
    """Yield every side assignment of n vertices, vertex 0 fixed to side 1."""
    if n < 2:
        return
    for masks in _mask_blocks(n):
        yield from 1 + _side2_of(masks, n)


def _screen(graph: MarketGraph, side2: np.ndarray,
            objective: CutObjective) -> np.ndarray:
    """Objective of each row of 0/1 side-2 indicators, +inf if degenerate.

    Sums in a different order from `objective_value`, so values can differ in
    the last bits. Weights are nonnegative, so no sum cancels and the
    relative difference stays a few ulps.
    """
    s2 = side2.astype(float)
    s1 = 1.0 - s2
    cut = np.einsum("ij,ij->i", s2 @ graph.weights, s1)
    if objective is CutObjective.NORMALIZED:
        mass = np.ones(graph.n_vertices)
    else:
        mass = graph.degrees
    m1 = s1 @ mass
    m2 = s2 @ mass
    score = np.full(cut.shape, np.inf)
    live = (m1 > 0.0) & (m2 > 0.0)
    score[live] = (1.0 / m1[live] + 1.0 / m2[live]) * cut[live]
    return score


def brute_force_min_cut(graph: MarketGraph, objective: CutObjective) -> Partition:
    """Exact minimizer of the cut objective over all bipartitions.

    Enumerates the 2**(N-1) - 1 candidate splits, so it is only usable on
    small graphs; it exists as the correctness oracle for `spectral_bisect`.
    Candidates are screened in blocks of bit masks with numpy; every
    candidate within a relative SCREEN_REL_TOL of the screened minimum is
    then re-scored exactly with `objective_value`. The minimum of those
    exact values wins, and ties are broken toward the lexicographically
    smallest side assignment. Candidates with a zero-volume side are
    skipped under the volume objective.

    Raises
    ------
    SizeLimitError
        If N exceeds BRUTE_FORCE_MAX_VERTICES. The error reports the
        candidate count that enumeration would have required.
    """
    n = graph.n_vertices
    if n < 2:
        raise InvalidInputError("brute-force cut needs at least 2 vertices")
    if n > BRUTE_FORCE_MAX_VERTICES:
        raise SizeLimitError(n, bipartition_count(n), BRUTE_FORCE_MAX_VERTICES)

    screened = np.concatenate([_screen(graph, _side2_of(masks, n), objective)
                               for masks in _mask_blocks(n)])
    low = float(screened.min())
    if low == np.inf:
        raise DegenerateVolumeError(
            "every bipartition has a zero-volume side; the graph has no edges"
        )
    near = 1 + np.flatnonzero(screened <= low + SCREEN_REL_TOL * low)
    best_side = None
    best_obj = np.inf
    for side in 1 + _side2_of(near, n):
        obj = objective_value(graph, side, objective)
        if obj < best_obj or (obj == best_obj and best_side is not None
                              and tuple(side) < tuple(best_side)):
            best_obj = obj
            best_side = side
    # best_side is a row view; copy it so the result does not pin every near tie.
    return _partition_from_sides(graph, best_side.copy(), objective)
