"""Single spectral bisection of a market graph.

Two cut objectives are supported: cardinality-normalized (CutN) and
volume-normalized (CutV). They differ only in the vertex mass M that
measures a side: 1 per vertex under CutN, the degree under CutV (`_mass`).
Both minimize cut * (1/M1 + 1/M2) and relax to L x = lambda M x, solved for
the Fiedler vector, with an exhaustive brute-force minimizer available as
an oracle for small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

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
    "BRUTE_FORCE_MAX_VERTICES",
]

BRUTE_FORCE_MAX_VERTICES = 20

# Entries of the Fiedler vector closer to zero than this are treated as
# sign-rule ties and assigned to side 1.
SIGN_TIE_TOL = 1e-12

# Residual bound for accepting an eigenpair, relative to max|L|.
RESIDUAL_REL_TOL = 1e-8

# Brute force re-scores exactly every candidate whose screened objective is
# within this relative distance of the screened minimum. The screen sums only
# nonnegative terms, so its rounding error is a few ulps, far inside it.
SCREEN_REL_TOL = 1e-9


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
    cut_value: float
    objective_value: float
    objective: CutObjective
    lambda2: Optional[float] = None
    fiedler: Optional[np.ndarray] = None


def _mass(graph: MarketGraph, objective: CutObjective) -> np.ndarray:
    """Vertex masses: ones under CutN, the degrees under CutV."""
    if not isinstance(objective, CutObjective):
        raise InvalidInputError("objective must be a CutObjective")
    return np.ones(graph.n_vertices) if objective is CutObjective.NORMALIZED else graph.degrees


def cut_value(graph: MarketGraph, side_of) -> float:
    """Sum of weights crossing between side 1 and side 2."""
    return _partition_from_sides(graph, side_of, CutObjective.NORMALIZED).cut_value


def objective_value(graph: MarketGraph, side_of, objective: CutObjective) -> float:
    """Normalized cut value of a bipartition.

    The crossing weight times (1/M1 + 1/M2), where M is a side's mass: the
    vertex counts N1, N2 under CutN, the degree sums V1, V2 under CutV.

    Raises
    ------
    DegenerateVolumeError
        Under the volume objective when a side has zero volume.
    """
    return _partition_from_sides(graph, side_of, objective).objective_value


def partition_indicator(graph: MarketGraph, side_of, objective: CutObjective) -> np.ndarray:
    """Piecewise-constant indicator vector encoding a bipartition.

    Takes the value 1/M1 on side 1 and -1/M2 on side 2, so that its Rayleigh
    quotient reproduces the cut objective.
    """
    mass = _mass(graph, objective)
    side, a, b = _sides(graph, side_of)
    m1, m2 = (mass.take(s).sum() for s in ((a, b) if side[0] == 1 else (b, a)))
    _check_masses(m1, m2)
    return np.where(side == 1, 1.0 / m1, -1.0 / m2)


def rayleigh_quotient(graph: MarketGraph, x, objective: CutObjective) -> float:
    """x'Lx / x'Mx: M = I under CutN and M = D under CutV."""
    vec = np.asarray(x, dtype=float)
    if vec.shape != (graph.n_vertices,):
        raise InvalidInputError(f"vector has shape {vec.shape}, expected ({graph.n_vertices},)")
    if not np.isfinite(vec).all():
        raise InvalidInputError("vector contains non-finite entries")
    den = float(vec @ (_mass(graph, objective) * vec))
    if den <= 0.0:
        raise InvalidInputError(f"x'Mx must be positive for the {objective.value} objective")
    return float(vec @ graph.laplacian @ vec) / den


def fiedler_vector(graph: MarketGraph, objective: CutObjective):
    """Second-smallest eigenpair of the cut objective's eigenproblem.

    Solves L x = lambda M x with the objective's vertex masses M (I under
    CutN, D under CutV) via the symmetric reduction M^(-1/2) L M^(-1/2) and
    x = M^(-1/2) v. The returned vector has x'Mx = 1 to rounding and is
    sign-fixed so its largest-magnitude entry is positive.

    Returns
    -------
    (lambda2, u2)

    Raises
    ------
    DegenerateDegreeError
        Volume objective with zero-degree vertices.
    NumericalFailureError
        LAPACK eigensolver failure, or a residual that is NaN or exceeds
        1e-8 * max|L| (verified before returning).
    """
    n = graph.n_vertices
    if n < 2:
        raise InvalidInputError("Fiedler vector needs at least 2 vertices")
    lap, mass = graph.laplacian, _mass(graph, objective)
    lmax = float(np.max(np.abs(lap)))
    dead = np.flatnonzero(mass <= 0.0)  # only a degree can be zero
    if dead.size:
        raise DegenerateDegreeError(
            f"zero-degree vertices {dead.tolist()} are incompatible with the "
            "volume-normalized objective", vertices=dead.tolist())
    inv_sqrt_m = 1.0 / np.sqrt(mass)
    try:
        evals, evecs = scipy.linalg.eigh(inv_sqrt_m[:, None] * lap * inv_sqrt_m[None, :],
                                         subset_by_index=[0, 1])
    except scipy.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"eigensolver failed on {n} vertices ({objective.value}): {exc}",
            diagnostics={"n": n, "objective": objective.value},
        ) from exc
    lam2, u2 = float(evals[1]), inv_sqrt_m * evecs[:, 1]
    with np.errstate(invalid="ignore"):  # a non-finite eigenpair leaves a NaN residual
        residual = float(np.max(np.abs(lap @ u2 - lam2 * mass * u2)))
    k = int(np.argmax(np.abs(u2)))
    if u2[k] < 0.0:
        u2 = -u2
    if not residual <= RESIDUAL_REL_TOL * max(lmax, np.finfo(float).tiny):
        bound = "is NaN" if np.isnan(residual) else (
            f"{residual:.3e} exceeds {RESIDUAL_REL_TOL:.0e} * max|L|")
        raise NumericalFailureError(
            f"eigenpair residual {bound}",
            diagnostics={"residual": residual, "lmax": lmax, "lambda2": lam2},
        )
    return lam2, u2


def _sides(graph: MarketGraph, side_of):
    """Check a side assignment; return it as ints and each side's vertices, vertex 0's first."""
    side = np.asarray(side_of, dtype=int)
    if side.shape != (graph.n_vertices,):
        raise InvalidPartitionError(f"side assignment has shape {side.shape}, "
                                    f"expected ({graph.n_vertices},)")
    i1, i2 = np.flatnonzero(side == 1), np.flatnonzero(side == 2)
    if i1.size + i2.size != side.size:
        raise InvalidPartitionError("side assignment entries must be 1 or 2")
    if i1.size == 0 or i2.size == 0:
        raise InvalidPartitionError("both sides of a cut must be nonempty")
    return (side, i1, i2) if side[0] == 1 else (side, i2, i1)


def _check_masses(m1, m2) -> None:
    """Reject a side of zero mass; only a volume can be zero."""
    if m1 <= 0.0 or m2 <= 0.0:
        raise DegenerateVolumeError(f"zero-volume side (v1={m1}, v2={m2}) under the "
                                    "volume-normalized objective")


def _partition_from_sides(graph: MarketGraph, side_of, objective: CutObjective,
                          lambda2: Optional[float] = None,
                          fiedler: Optional[np.ndarray] = None) -> Partition:
    """Check a side assignment and score it as one row of `_scores`, vertex 0's side first."""
    side, a, b = _sides(graph, side_of)
    cut, ma, mb, value = (float(x[0]) for x in _scores(graph, _mass(graph, objective),
                                                       a[None], b[None]))
    _check_masses(*((ma, mb) if side[0] == 1 else (mb, ma)))
    return Partition(side_of=side, cut_value=cut, objective_value=value, objective=objective,
                     lambda2=lambda2, fiedler=fiedler)


def _scores(graph: MarketGraph, mass: np.ndarray, side_a, side_b):
    """``(cut, ma, mb, cut * (1/ma + 1/mb))`` of each cut whose sides are sorted rows of
    ``side_a`` (with vertex 0) and ``side_b``, with ``m`` a side's sum of vertex ``mass``: the
    one cut formula, on C-contiguous blocks and with no BLAS."""
    cut = graph.weights[side_a[:, :, None], side_b[:, None, :]].reshape(len(side_a), -1).sum(1)
    ma, mb = mass.take(side_a).sum(axis=1), mass.take(side_b).sum(axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return cut, ma, mb, (1.0 / ma + 1.0 / mb) * cut


def spectral_bisect(graph: MarketGraph, objective: CutObjective) -> Partition:
    """Bipartition the graph by the signs of its Fiedler vector.

    Positive entries go to side 1, negative to side 2; entries within
    SIGN_TIE_TOL of zero count as side 1. The first rule of `_split_rules`
    that uses both sides wins, so when the signs leave a side empty (as for
    disconnected graphs whose null space is component-supported) the split
    falls back to the median, then the strict median, then the vertex index.
    """
    lam2, u2 = fiedler_vector(graph, objective)
    side = next(s for s in _split_rules(u2) if s.min() < s.max())
    return _partition_from_sides(graph, side, objective, lambda2=lam2, fiedler=u2)


def _split_rules(u2: np.ndarray):
    """Side assignments of the Fiedler vector ``u2``, in the order they are tried."""
    yield np.where(u2 < -SIGN_TIE_TOL, 2, 1)  # sign
    med = float(np.median(u2))
    yield np.where(u2 <= med, 1, 2)  # median
    yield np.where(u2 < med, 1, 2)  # strict median
    yield np.where(np.arange(u2.size) < u2.size // 2, 1, 2)  # first half of the indices


def bipartition_count(n: int) -> int:
    """Number of distinct bipartitions of n vertices: 2**(n-1) - 1."""
    if n < 2:
        return 0
    return 2 ** (n - 1) - 1


def _half_tables(weights: np.ndarray, mass: np.ndarray, vertices):
    """Side-2 weight sums, cut and side-2 mass of each side assignment of ``vertices``.

    Bit b of entry m puts ``vertices[b]`` on side 2; reversed, a table holds side-1 sums.
    """
    ext = np.column_stack([weights, mass])  # the mass sums fill the last column
    rows, cut = np.zeros((2 ** len(vertices), len(ext[0]))), np.zeros(2 ** len(vertices))
    for b, v in enumerate(vertices):  # double the filled part in place
        lo, hi = slice(0, 1 << b), slice(1 << b, 2 << b)
        np.add(cut[lo], rows[lo][::-1, v], out=cut[hi])
        cut[lo] += rows[lo, v]
        np.add(rows[lo], ext[v], out=rows[hi])
    return rows[:, :-1], cut, rows[:, -1]


def _screen(graph: MarketGraph, objective: CutObjective) -> np.ndarray:
    """Objective of every bit mask 1 .. 2**(n-1) - 1 in order, +inf if degenerate.

    Bit b puts vertex b + 1 on side 2. Meet in the middle: tables over the high
    and the low bits fill one table [high, low] in place, in mask order, then
    scale it in blocks of rows. Every sum is of nonnegative terms, so none
    cancels and values stay a few ulps from `objective_value`.
    """
    n = graph.n_vertices
    bits = (n - 1) // 2
    mass = _mass(graph, objective)
    unit = bool((mass == 1.0).all())
    _, hi_cut, hi_m2 = _half_tables(graph.weights, mass, range(bits + 1, n))
    lo_rows, lo_cut, lo_m2 = _half_tables(graph.weights, mass, range(1, bits + 1))
    hi_m1, lo_m1 = hi_m2[::-1], lo_m2[::-1] + mass[0]
    # Double rows per high vertex: on side 1 it crosses low side 2; on side 2, low side 1 and 0.
    to2, to1 = lo_rows[:, bits + 1:], lo_rows[::-1, bits + 1:] + graph.weights[0, bits + 1:]
    score = np.empty((hi_cut.size, lo_cut.size))
    score[0] = lo_cut + lo_rows[:, 0]
    for j in range(n - 1 - bits):
        lo, hi = slice(0, 1 << j), slice(1 << j, 2 << j)
        np.add(score[lo], to1[:, j], out=score[hi])
        score[lo] += to2[:, j]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if unit:  # 1/M1 + 1/M2 by side-2 count: one row per count of the high bits
            k = np.arange(n - bits)[:, None] + lo_m2.astype(int)
            by_count = 1.0 / (n - k) + 1.0 / k
        step = max(1, 8192 // lo_cut.size)  # rows per block of 64 KiB
        for top in range(0, hi_cut.size, step):
            rows, block = slice(top, top + step), score[top:top + step]
            block += hi_cut[rows, None]
            block *= (by_count[hi_m2[rows].astype(int)] if unit else
                      1.0 / (hi_m1[rows, None] + lo_m1) + 1.0 / (hi_m2[rows, None] + lo_m2))
    if not mass.all():  # a side of zero mass scores inf, not 0 * inf
        score[np.ix_(hi_m2 <= 0.0, lo_m2 <= 0.0)] = np.inf
        score[np.ix_(hi_m1 <= 0.0, lo_m1 <= 0.0)] = np.inf
    return score.ravel()[1:]


def _exact_scores(graph: MarketGraph, objective: CutObjective, masks: np.ndarray) -> np.ndarray:
    """`objective_value` of each bit mask's sides by `_scores`, 4 MiB of cut blocks a chunk."""
    n, mass = graph.n_vertices, _mass(graph, objective)
    exact, step = np.empty(masks.size), max(1, 2 ** 21 // n ** 2)
    for start in range(0, masks.size, step):
        on2 = (2 * masks[start:start + step, None] >> np.arange(n) & 1).astype(bool)
        order, count = np.argsort(on2, axis=1, kind="stable"), np.add.reduce(on2, axis=1)
        for k in np.unique(count).tolist():  # the rows of one side-2 count are scored together
            rows = np.flatnonzero(count == k)
            exact[start + rows] = _scores(graph, mass, order[rows, :n - k], order[rows, n - k:])[3]
    return exact


def brute_force_min_cut(graph: MarketGraph, objective: CutObjective) -> Partition:
    """Exact minimizer of the cut objective over all bipartitions.

    Enumerates the 2**(N-1) - 1 candidate splits, so it is only usable on
    small graphs; it exists as the correctness oracle for `spectral_bisect`.
    `_screen` scores every candidate; those within a relative SCREEN_REL_TOL of
    its minimum are re-scored by `_scores`. The lowest finite value wins (none
    has a side of zero or subnormal volume under CutV); ties go to the
    lexicographically smallest side assignment.

    Raises
    ------
    SizeLimitError
        If N exceeds BRUTE_FORCE_MAX_VERTICES. The error reports the
        candidate count that enumeration would have required.
    DegenerateVolumeError
        If no bipartition has a finite objective value.
    """
    n = graph.n_vertices
    if n < 2:
        raise InvalidInputError("brute-force cut needs at least 2 vertices")
    if n > BRUTE_FORCE_MAX_VERTICES:
        count = bipartition_count(n)
        raise SizeLimitError(
            f"brute-force cut over {n} vertices would enumerate {float(count):.1e} "
            f"bipartitions (limit N <= {BRUTE_FORCE_MAX_VERTICES})",
            n_vertices=n, candidate_count=count, limit=BRUTE_FORCE_MAX_VERTICES)

    screened = _screen(graph, objective)
    low = np.fmin.reduce(screened)  # skips NaN, the inf * 0 of a subnormal volume
    near = 1 + np.flatnonzero(screened <= (low + SCREEN_REL_TOL * low if low < np.inf else -1))
    # A lone candidate is scored once, by the result's `_partition_from_sides`.
    exact = _exact_scores(graph, objective, near) if near.size > 1 else np.zeros(near.size)
    tied, b = near[exact == np.fmin.reduce(exact, initial=np.inf)], 0  # NaN never wins
    while tied.size > 1:  # the smallest side_of: bit b is the side of vertex b + 1
        tied = tied[tied >> b & 1 == (tied >> b & 1).min()]
        b += 1
    if tied.size:
        part = _partition_from_sides(graph, 1 + (2 * tied[0] >> np.arange(n) & 1), objective)
        if part.objective_value < np.inf:
            return part
    raise DegenerateVolumeError("no bipartition has a finite objective value; each has a side "
                                "of zero or subnormal volume")
