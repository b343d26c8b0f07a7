"""Capital allocation: cut-tree schemes plus equal-weight and min-variance baselines.

Tree schemes assign each leaf cluster a share of capital, then divide it
equally among the cluster's assets. The depth scheme halves a cluster's share
per cut on its path from the root; the flat scheme gives every cluster the
same share.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (DegenerateNormalizationError, InvalidInputError, NumericalFailureError,
                     SingularCovarianceError)
from .market_graph import CovarianceMatrix, _integer, _real
from .spectral import RESIDUAL_REL_TOL
from .tree import CutTree

__all__ = [
    "AllocationScheme",
    "WeightVector",
    "allocate",
    "asset_weights",
    "equal_weights",
    "min_variance_weights",
]

# Condition estimate above which the min-variance solve refuses to proceed.
MAX_CONDITION = 1e12

WEIGHT_SUM_TOL = 1e-10


class AllocationScheme(Enum):
    AS1 = "as1"
    AS2 = "as2"


@dataclass(frozen=True)
class ClusterWeights:
    """Per-leaf capital shares; positive and summing to 1."""

    per_leaf: Dict[int, float]
    scheme_tag: str

    def __post_init__(self):
        total = sum(self.per_leaf.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInputError(f"cluster weights sum to {total!r}, expected 1")
        if any(w <= 0.0 for w in self.per_leaf.values()):
            raise InvalidInputError("cluster weights must be strictly positive")


@dataclass(frozen=True)
class WeightVector:
    """Per-asset capital weights summing to 1.

    ``scheme_tag`` records provenance (AS1, AS2, EW or MV). Only MV weights
    may be negative; ``condition_estimate`` is set by the min-variance solve.
    """

    weights: np.ndarray
    scheme_tag: str
    condition_estimate: Optional[float] = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidInputError("weights must form a nonempty vector")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("weights contain non-finite entries")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInputError(f"weights sum to {float(w.sum())!r}, expected 1")
        if self.scheme_tag != "MV" and np.any(w <= 0.0):
            raise InvalidInputError(f"{self.scheme_tag} weights must be strictly positive")
        object.__setattr__(self, "weights", w)

    @property
    def n_assets(self) -> int:
        return self.weights.size


def allocate(tree: CutTree, scheme: AllocationScheme) -> ClusterWeights:
    """Per-leaf capital shares of the tree under ``scheme``.

    AS1, the depth scheme: a leaf cut K_i times from the root gets
    1 / 2**K_i. The leaves of a binary cut tree satisfy sum(2**-depth) == 1
    exactly, so no renormalization is needed.

    AS2, the flat scheme: every one of the K+1 leaves gets 1 / (K+1).
    """
    if not isinstance(scheme, AllocationScheme):
        raise InvalidInputError("scheme must be an AllocationScheme")
    leaves = tree.leaves()
    if scheme is AllocationScheme.AS1:
        shares = {leaf.id: 2.0 ** (-leaf.depth) for leaf in leaves}
    else:
        shares = {leaf.id: 1.0 / len(leaves) for leaf in leaves}
    return ClusterWeights(per_leaf=shares, scheme_tag=scheme.name)


def asset_weights(tree: CutTree, cluster_weights: ClusterWeights) -> WeightVector:
    """Divide each cluster's share equally among its member assets.

    Raises
    ------
    InvalidInputError
        If the cluster weights do not cover exactly the tree's leaves.
    """
    if set(cluster_weights.per_leaf) != set(tree.leaf_ids):
        raise InvalidInputError("cluster weights do not match the tree's leaves")
    weights = np.zeros(len(tree.asset_ids))
    for leaf_id, share in cluster_weights.per_leaf.items():
        members = tree.nodes[leaf_id].members
        weights[list(members)] = share / len(members)
    return WeightVector(weights=weights, scheme_tag=cluster_weights.scheme_tag)


def equal_weights(n: int) -> WeightVector:
    """The 1/N portfolio."""
    if not _integer(n) or n < 1:
        raise InvalidInputError("need at least one asset")
    return WeightVector(weights=np.full(n, 1.0 / n), scheme_tag="EW")


def min_variance_weights(sigma: CovarianceMatrix, ridge: float = 0.0) -> WeightVector:
    """Minimum-variance portfolio: solve (Sigma + ridge*I) w = 1, normalize.

    Uses a Cholesky solve rather than an explicit inverse. The solve is
    refused when the (ridged) matrix has a condition estimate above
    MAX_CONDITION; collinear assets need a positive ridge to proceed.
    Weights are unconstrained in sign beyond summing to 1.

    Raises
    ------
    SingularCovarianceError
        Numerically singular system; the message advises a positive ridge.
    NumericalFailureError
        LinAlgError in the condition estimate or the solve, or a solve whose
        backward error is NaN or exceeds 1e-8 (verified before returning).
    DegenerateNormalizationError
        If the unnormalized weights sum to (almost) zero.
    """
    ridge = _real(ridge)
    if not 0.0 <= ridge < np.inf:
        raise InvalidInputError("ridge must be nonnegative and finite")
    with np.errstate(over="ignore"):  # an overflowed entry fails the condition gate below
        a = sigma.sigma + ridge * np.eye(sigma.n_assets)
    try:
        cond = float(np.linalg.cond(a))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"condition estimate failed ({exc})",
                                    diagnostics={"n_assets": sigma.n_assets}) from exc
    if not cond <= MAX_CONDITION:
        bound = f"{cond:.3e} > {MAX_CONDITION:.0e}" if cond > MAX_CONDITION else "is NaN"
        raise SingularCovarianceError(f"covariance system is numerically singular (condition "
                                      f"estimate {bound}); retry with a positive ridge",
                                      condition_estimate=cond)
    ones = np.ones(sigma.n_assets)
    try:
        factor = cho_factor(a, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(f"Cholesky factorization failed ({exc}); retry with a "
                                      "positive ridge", condition_estimate=cond) from exc
    try:
        raw = cho_solve(factor, ones, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"Cholesky solve failed ({exc})", diagnostics={
            "n_assets": sigma.n_assets, "condition_estimate": cond}) from exc
    with np.errstate(invalid="ignore"):  # a solution that is not finite gives NaN, rejected
        error = float(np.max(np.abs(a @ raw - ones))
                      / (np.max(np.abs(a).sum(axis=1)) * np.max(np.abs(raw)) + 1.0))
    if not error <= RESIDUAL_REL_TOL:
        bound = "is NaN" if np.isnan(error) else f"{error:.3e} exceeds {RESIDUAL_REL_TOL:.0e}"
        raise NumericalFailureError(
            f"Cholesky solve backward error {bound}",
            diagnostics={"backward_error": error, "condition_estimate": cond})
    total = float(raw.sum())
    if abs(total) < 1e-12:
        raise DegenerateNormalizationError(f"unnormalized min-variance weights sum to "
                                           f"{total!r}; cannot enforce full investment")
    return WeightVector(weights=raw / total, scheme_tag="MV", condition_estimate=cond)
