"""portcut: correlation market graphs, spectral portfolio cuts, allocation, backtests.

Pipeline: prices -> returns -> covariance -> |correlation| market graph ->
repeated spectral bisection (cut tree) -> hierarchical capital weights ->
in/out-sample backtest against equal-weight and minimum-variance baselines.
"""

from . import allocation, backtest, errors, ingest, market_graph, spectral, synthetic, tree
from .allocation import *
from .backtest import *
from .errors import *
from .ingest import *
from .market_graph import *
from .spectral import *
from .synthetic import *
from .tree import *

__version__ = "0.1.0"

# Each republished module's __all__ is the one declaration of its public names.
__all__ = ["__version__"] + [
    name
    for module in (allocation, backtest, errors, ingest, market_graph, spectral, synthetic, tree)
    for name in module.__all__
]
