"""Market graph construction: prices -> returns -> covariance -> |rho| graph.

The weight between two assets is the absolute correlation of their returns,
so the graph is complete (up to statistically independent pairs), symmetric,
and carries no self-loops. Degrees and the Laplacian L = D - W follow from
the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateAssetError, InsufficientDataError, InvalidInputError

__all__ = [
    "PriceMatrix",
    "ReturnsMatrix",
    "CovarianceMatrix",
    "MarketGraph",
    "simple_returns",
    "sample_covariance",
    "market_graph_from_covariance",
    "market_graph_from_weights",
]


def _as_float_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise InvalidInputError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidInputError(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class PriceMatrix:
    """Price observations, rows = time ascending, columns = assets.

    Attributes
    ----------
    prices : ndarray, shape (T+1, N)
        Strictly positive price levels.
    asset_ids : tuple of str
        Unique column labels.
    timestamps : tuple of str
        Strictly increasing row labels (dates).
    """

    prices: np.ndarray
    asset_ids: tuple
    timestamps: tuple

    def __post_init__(self):
        prices = _as_float_array(self.prices, "prices", 2)
        asset_ids = tuple(str(a) for a in self.asset_ids)
        timestamps = tuple(str(t) for t in self.timestamps)
        if np.any(prices <= 0.0):
            raise InvalidInputError("prices must be strictly positive")
        if len(asset_ids) != prices.shape[1]:
            raise InvalidInputError(
                f"{len(asset_ids)} asset ids for {prices.shape[1]} price columns"
            )
        if len(set(asset_ids)) != len(asset_ids):
            raise InvalidInputError("asset ids must be unique")
        if len(timestamps) != prices.shape[0]:
            raise InvalidInputError(
                f"{len(timestamps)} timestamps for {prices.shape[0]} price rows"
            )
        if any(a >= b for a, b in zip(timestamps, timestamps[1:])):
            raise InvalidInputError("timestamps must be strictly increasing")
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "asset_ids", asset_ids)
        object.__setattr__(self, "timestamps", timestamps)

    @property
    def n_assets(self) -> int:
        return self.prices.shape[1]

    @property
    def n_rows(self) -> int:
        return self.prices.shape[0]


@dataclass(frozen=True)
class ReturnsMatrix:
    """Per-period simple returns, shape (T, N), aligned with ``asset_ids``."""

    returns: np.ndarray
    asset_ids: tuple

    def __post_init__(self):
        returns = _as_float_array(self.returns, "returns", 2)
        asset_ids = tuple(str(a) for a in self.asset_ids)
        if len(asset_ids) != returns.shape[1]:
            raise InvalidInputError(
                f"{len(asset_ids)} asset ids for {returns.shape[1]} return columns"
            )
        if np.any(returns < -1.0):
            raise InvalidInputError("returns below -1 are impossible for positive prices")
        object.__setattr__(self, "returns", returns)
        object.__setattr__(self, "asset_ids", asset_ids)

    @property
    def n_periods(self) -> int:
        return self.returns.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric N x N covariance of returns.

    Symmetry is enforced at construction (1e-12 relative). Positive
    semi-definiteness is guaranteed by `sample_covariance` and asserted by the
    test suite rather than re-checked on every construction.
    """

    sigma: np.ndarray

    def __post_init__(self):
        sigma = _as_float_array(self.sigma, "sigma", 2)
        n, m = sigma.shape
        if n != m:
            raise InvalidInputError(f"sigma must be square, got {sigma.shape}")
        scale = np.max(np.abs(sigma))
        if scale > 0 and np.max(np.abs(sigma - sigma.T)) > 1e-12 * scale:
            raise InvalidInputError("sigma is not symmetric to 1e-12 relative tolerance")
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_assets(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class MarketGraph:
    """Weighted market graph; degrees and Laplacian derive from the weights.

    ``weights`` is symmetric with zero diagonal and entries in [0, 1].
    ``degrees[m] == weights[m].sum()`` and ``laplacian == diag(degrees) - weights``
    are computed on first use.
    """

    weights: np.ndarray
    asset_ids: tuple = ()

    def __post_init__(self):
        w = _as_float_array(self.weights, "weights", 2)
        if w.shape[0] != w.shape[1]:
            raise InvalidInputError(f"weights must be square, got {w.shape}")
        object.__setattr__(self, "weights", w)
        ids = tuple(str(a) for a in self.asset_ids) or tuple(str(i) for i in range(w.shape[0]))
        if len(ids) != w.shape[0]:
            raise InvalidInputError(f"{len(ids)} asset ids for {w.shape[0]} vertices")
        object.__setattr__(self, "asset_ids", ids)

    # cached_property writes the instance __dict__ directly, so it works on a
    # frozen dataclass.
    @cached_property
    def degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    @cached_property
    def laplacian(self) -> np.ndarray:
        return np.diag(self.degrees) - self.weights

    @property
    def n_vertices(self) -> int:
        return self.weights.shape[0]

    @property
    def total_volume(self) -> float:
        return float(self.degrees.sum())


def simple_returns(prices: PriceMatrix) -> ReturnsMatrix:
    """Compute per-period simple returns from a price matrix.

    Parameters
    ----------
    prices : PriceMatrix
        At least two rows of strictly positive prices.

    Returns
    -------
    ReturnsMatrix
        ``returns[t, i] = (p[t+1, i] - p[t, i]) / p[t, i]`` with one row fewer
        than the input.

    Raises
    ------
    InsufficientDataError
        If fewer than two price rows are available.
    """
    p = prices.prices
    if p.shape[0] < 2:
        raise InsufficientDataError("need at least 2 price rows to form returns")
    rets = np.diff(p, axis=0) / p[:-1]
    return ReturnsMatrix(returns=rets, asset_ids=prices.asset_ids)


def sample_covariance(returns: ReturnsMatrix) -> CovarianceMatrix:
    """Unbiased sample covariance (divisor T-1) of the return columns.

    Raises
    ------
    InsufficientDataError
        If fewer than two return rows are available.
    """
    x = returns.returns
    t = x.shape[0]
    if t < 2:
        raise InsufficientDataError("need at least 2 return rows for a sample covariance")
    dev = x - x.mean(axis=0)
    sigma = dev.T @ dev / (t - 1)
    sigma = (sigma + sigma.T) / 2.0
    return CovarianceMatrix(sigma=sigma)


def market_graph_from_covariance(sigma: CovarianceMatrix, asset_ids=None) -> MarketGraph:
    """Build the absolute-correlation market graph from a covariance matrix.

    Off-diagonal weights are ``|sigma_mn| / sqrt(sigma_mm * sigma_nn)``; the
    diagonal is forced to zero (no self-loops). Degrees are row sums of the
    weights and the Laplacian is ``diag(degrees) - weights``.

    Parameters
    ----------
    sigma : CovarianceMatrix
        Covariance with strictly positive diagonal.
    asset_ids : sequence of str, optional
        Labels for the graph vertices; defaults to "0", "1", ...

    Raises
    ------
    DegenerateAssetError
        If any diagonal entry is zero (zero-variance asset). The offending
        assets are named; the caller must drop or repair them.
    """
    s = sigma.sigma
    n = s.shape[0]
    ids = tuple(str(a) for a in asset_ids) if asset_ids is not None else tuple(
        str(i) for i in range(n)
    )
    if len(ids) != n:
        raise InvalidInputError(f"{len(ids)} asset ids for {n} assets")
    variances = np.diag(s)
    dead = np.flatnonzero(variances <= 0.0)
    if dead.size:
        raise DegenerateAssetError([ids[i] for i in dead])
    scale = np.sqrt(variances)
    weights = np.abs(s) / np.outer(scale, scale)
    # Cauchy-Schwarz bounds |rho| by 1; clip the last-ulp overshoot of exact
    # collinearity so the [0, 1] range invariant holds exactly.
    weights = np.minimum(weights, 1.0)
    np.fill_diagonal(weights, 0.0)
    return market_graph_from_weights(weights, asset_ids=ids)


def market_graph_from_weights(weights, asset_ids=None) -> MarketGraph:
    """Assemble a MarketGraph from a symmetric nonnegative weight matrix.

    Accepts any [0, 1]-valued symmetric matrix (diagonal entries are zeroed),
    which makes it the natural entry point for synthetic graphs in tests and
    demos.
    """
    w = _as_float_array(weights, "weights", 2)
    if w.shape[0] != w.shape[1]:
        raise InvalidInputError(f"weights must be square, got {w.shape}")
    if np.any(w < 0.0):
        raise InvalidInputError("weights must be nonnegative")
    if np.max(np.abs(w - w.T)) != 0.0:
        w = (w + w.T) / 2.0
    if np.any(w > 1.0 + 1e-12):
        raise InvalidInputError("weights must not exceed 1 (absolute correlations)")
    w = w.copy()
    np.fill_diagonal(w, 0.0)
    return MarketGraph(weights=w, asset_ids=() if asset_ids is None else asset_ids)
