"""Market graph construction: prices -> returns -> covariance -> |rho| graph.

The weight between two assets is the absolute correlation of their returns,
so the graph is complete (up to statistically independent pairs), symmetric,
and carries no self-loops. Degrees and the Laplacian L = D - W follow from
the weights.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from datetime import date
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
]


def _as_float_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise InvalidInputError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    # Reductions sum in memory order, so a strided view (a column subset, say)
    # would change the last bits of every result computed from it.
    arr = np.ascontiguousarray(arr)
    if arr.size == 0:
        raise InvalidInputError(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def _integer(value) -> bool:
    """Whether ``value`` is an integer; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(value) -> float:
    """``value`` as a float; NaN if it is a bool, not a real number or past the double range."""
    try:
        return float(value) if isinstance(value, numbers.Real) and not isinstance(
            value, bool) else np.nan
    except OverflowError:
        return np.nan


def _labels(values, count: int, what: str, of: str) -> tuple:
    """``values`` as a tuple of str, which must hold ``count`` labels."""
    labels = tuple(str(v) for v in values)
    if len(labels) != count:
        raise InvalidInputError(f"{len(labels)} {what} for {count} {of}")
    return labels


def timestamp_sort_key(label: str):
    """ISO dates compare as dates; anything else compares as a string."""
    if label[:4].isdigit():  # every form `date.fromisoformat` reads opens with the year
        try:
            return (0, date.fromisoformat(label))
        except ValueError:
            pass
    return (1, label)


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
        Strictly increasing row labels under `timestamp_sort_key`.
    """

    prices: np.ndarray
    asset_ids: tuple
    timestamps: tuple

    def __post_init__(self):
        prices = _as_float_array(self.prices, "prices", 2)
        if np.any(prices <= 0.0):
            raise InvalidInputError("prices must be strictly positive")
        asset_ids = _labels(self.asset_ids, prices.shape[1], "asset ids", "price columns")
        if len(set(asset_ids)) != len(asset_ids):
            raise InvalidInputError("asset ids must be unique")
        timestamps = _labels(self.timestamps, prices.shape[0], "timestamps", "price rows")
        keys = [timestamp_sort_key(t) for t in timestamps]
        for i in range(1, len(keys)):
            if keys[i] <= keys[i - 1]:
                raise InvalidInputError(f"dates not strictly increasing at {timestamps[i]!r}")
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
        asset_ids = _labels(self.asset_ids, returns.shape[1], "asset ids", "return columns")
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

    Any nonnegative square matrix with entries up to 1 is accepted: it is
    averaged with its transpose and the diagonal is zeroed, so the stored,
    read-only ``weights`` is symmetric with zero diagonal and
    entries in [0, 1]. ``degrees[m] == weights[m].sum()`` and
    ``laplacian == diag(degrees) - weights`` are computed on first use.
    """

    weights: np.ndarray
    asset_ids: tuple = ()

    def __post_init__(self):
        w = _as_float_array(self.weights, "weights", 2)
        if w.shape[0] != w.shape[1]:
            raise InvalidInputError(f"weights must be square, got {w.shape}")
        if np.any(w < 0.0):
            raise InvalidInputError("weights must be nonnegative")
        with np.errstate(over="ignore"):  # an overflow fails the range check below
            w = (w + w.T) / 2.0  # a fresh array, and bit for bit w itself if w is symmetric
        if np.any(w > 1.0 + 1e-12):
            raise InvalidInputError("weights must not exceed 1 (absolute correlations)")
        np.fill_diagonal(w, 0.0)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        ids = _labels(tuple(self.asset_ids) or range(len(w)), len(w), "asset ids", "vertices")
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
    InvalidInputError
        If a return overflows; names the first such asset and return row.
    """
    p = prices.prices
    if p.shape[0] < 2:
        raise InsufficientDataError("need at least 2 price rows to form returns")
    with np.errstate(all="ignore"):
        rets = np.diff(p, axis=0) / p[:-1]
    if not np.isfinite(rets).all():
        row, col = np.argwhere(~np.isfinite(rets))[0]
        raise InvalidInputError(f"return of asset {prices.asset_ids[col]!r} at return row "
                                f"{row} ({prices.timestamps[row + 1]}) is not finite")
    return ReturnsMatrix(returns=rets, asset_ids=prices.asset_ids)


def sample_covariance(returns: ReturnsMatrix) -> CovarianceMatrix:
    """Unbiased sample covariance (divisor T-1) of the return columns.

    Raises
    ------
    InsufficientDataError
        If fewer than two return rows are available.
    InvalidInputError
        If a covariance overflows; names the first such asset.
    """
    x = returns.returns
    t = x.shape[0]
    if t < 2:
        raise InsufficientDataError("need at least 2 return rows for a sample covariance")
    with np.errstate(all="ignore"):
        dev = x - x.mean(axis=0)
        sigma = dev.T @ dev / (t - 1)
        sigma = (sigma + sigma.T) / 2.0
    if not np.isfinite(sigma).all():
        col = np.flatnonzero(~np.isfinite(sigma).all(axis=0))[0]
        raise InvalidInputError(f"covariance of asset {returns.asset_ids[col]!r} is not finite")
    return CovarianceMatrix(sigma=sigma)


def market_graph_from_covariance(sigma: CovarianceMatrix, asset_ids=None) -> MarketGraph:
    """Build the absolute-correlation market graph from a covariance matrix.

    Off-diagonal weights are ``|sigma_mn| / sqrt(sigma_mm * sigma_nn)``; the
    `MarketGraph` constructor zeroes the diagonal (no self-loops).

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
    ids = _labels(range(n) if asset_ids is None else asset_ids, n, "asset ids", "assets")
    variances = np.diag(s)
    dead = np.flatnonzero(variances <= 0.0)
    if dead.size:
        dead_ids = [ids[i] for i in dead]
        raise DegenerateAssetError(f"zero-variance asset(s): {', '.join(dead_ids)}; drop or "
                                   "repair them before building a market graph", asset_ids=dead_ids)
    scale = np.sqrt(variances)
    weights = np.abs(s) / np.outer(scale, scale)
    # Cauchy-Schwarz bounds |rho| by 1; clip the last-ulp overshoot of exact
    # collinearity so the [0, 1] range invariant holds exactly.
    weights = np.minimum(weights, 1.0)
    return MarketGraph(weights=weights, asset_ids=ids)

