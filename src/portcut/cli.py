"""Command-line frontend: cut, allocate and backtest pipelines over price CSVs.

Exit codes: 0 success, 1 usage error, 2 data or numeric error. Data errors
are emitted as one-line JSON objects on stderr so callers can parse them.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import errno
import io
import itertools
import json
import os
import stat
import sys
import tempfile
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .allocation import AllocationScheme, allocate, asset_weights
from .backtest import STRATEGIES, BacktestConfig, _return_windows, run_backtest
from .errors import DegenerateAssetError, InsufficientDataError, InvalidInputError, PortfolioCutError
from .ingest import IngestReport, MissingPolicy, PriceCsvSpec, ingest_prices_with_report
from .market_graph import (
    PriceMatrix,
    market_graph_from_covariance,
    sample_covariance,
    simple_returns,
    timestamp_sort_key,
)
from .serialization import (
    canonical_json,
    report_to_dict,
    tree_from_dict,
    tree_to_dict,
    wealth_to_csv,
    wealth_to_svg,
    weights_to_csv,
    weights_to_dict,
)
from .spectral import CutObjective
from .tree import CutPolicy, LeafSelection, build_cut_tree

__all__ = ["main", "console_main", "cmd_cut", "cmd_allocate", "cmd_backtest"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# Parsed options echoed in every run manifest; null where a command has none.
MANIFEST_OPTION_KEYS = (
    "objective", "max_cuts", "lambda2_threshold", "leaf_selection", "min_leaf_size",
    "scheme", "split_index", "split_date", "strategies", "mv_ridge",
    "annualization_factor",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage problems instead of exiting with code 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("prices", help="price CSV (header row, one date column)")
    parser.add_argument("--date-column", default="date")
    parser.add_argument("--delimiter", default=",")
    parser.add_argument("--missing-policy", default="error",
                        choices=[p.value for p in MissingPolicy])
    parser.add_argument("--drop-degenerate", action="store_true",
                        help="drop zero-variance assets instead of failing")


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-cuts", type=int, default=1)
    parser.add_argument("--lambda2-threshold", type=float, default=None)
    parser.add_argument("--leaf-selection", default="vertices",
                        choices=[s.value for s in LeafSelection])
    parser.add_argument("--min-leaf-size", type=int, default=2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="portcut",
                     description="Spectral portfolio cuts over correlation market graphs")
    parser.add_argument("--version", action="version", version=f"portcut {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cut = sub.add_parser("cut", help="build a cut tree from a price CSV")
    _add_input_flags(p_cut)
    p_cut.add_argument("--objective", default="cutn",
                       choices=[o.value for o in CutObjective])
    _add_policy_flags(p_cut)
    p_cut.add_argument("-o", "--output", default="-", help="tree JSON path ('-' = stdout)")

    p_alloc = sub.add_parser("allocate", help="turn a tree JSON into asset weights")
    p_alloc.add_argument("--tree", required=True, help="cut tree JSON path")
    p_alloc.add_argument("--scheme", required=True,
                         choices=[s.value for s in AllocationScheme])
    p_alloc.add_argument("--format", default="json", choices=["json", "csv"])
    p_alloc.add_argument("-o", "--output", default="-")

    p_bt = sub.add_parser("backtest", help="in/out-sample evaluation of strategies")
    _add_input_flags(p_bt)
    _add_policy_flags(p_bt)
    split = p_bt.add_mutually_exclusive_group(required=True)
    split.add_argument("--split-index", type=int,
                       help="first out-sample return row")
    split.add_argument("--split-date",
                       help="last in-sample date (returns dated by period end)")
    p_bt.add_argument("--strategies", default=",".join(STRATEGIES),
                      help=f"comma list from {', '.join(STRATEGIES)}")
    p_bt.add_argument("--mv-ridge", type=float, default=0.0)
    p_bt.add_argument("--annualization", type=float, default=252.0,
                      dest="annualization_factor", metavar="ANNUALIZATION")
    p_bt.add_argument("-o", "--output", default="-", help="report JSON path")
    p_bt.add_argument("--wealth-csv", default=None, help="wealth curve CSV path")
    p_bt.add_argument("--svg", default=None, help="wealth curve SVG path")
    return parser


def _write_outputs(*outputs: Tuple[str, str]) -> None:
    """Write every ``(text, destination)`` pair, or no file at all.

    A destination that is missing or a regular file (after following
    symlinks) is written to a temp file beside it; the temp files replace
    their targets only once all of them are written, and are removed if
    anything fails. Other destinations, such as devices and pipes, are opened
    first and written before the replacements, so a failed device write
    replaces no file; standard output ('-') is last. Two destinations that
    resolve to one staged file are refused before any is written.
    """
    staged: List[Tuple[str, str, str]] = []
    try:
        with contextlib.ExitStack() as stack:
            direct, pending = [], {}
            for text, destination in outputs:
                if destination == "-":
                    continue
                target = os.path.realpath(destination)
                if os.path.exists(target) and not os.path.isfile(target):
                    direct.append((text, stack.enter_context(
                        open(target, "w", encoding="utf-8")), destination))
                elif target in pending:
                    raise InvalidInputError(f"output files {pending[target][1]} and "
                                            f"{destination} are the same file")
                else:
                    pending[target] = (text, destination)
            for target, (text, destination) in pending.items():
                mode = _new_file_mode(target)
                head, tail = os.path.split(target)
                fd, temp = tempfile.mkstemp(dir=head, prefix=f".{tail}.", suffix=".tmp")
                staged.append((temp, target, destination))
                with open(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.chmod(temp, mode)
            for text, handle, destination in direct:
                handle.write(text)
                handle.flush()  # so a failure names this destination, not the last one
            for temp, target, destination in staged:
                os.replace(temp, target)
    except OSError as exc:
        raise InvalidInputError(
            f"cannot write output file {destination}: {exc.strerror or exc}") from exc
    finally:
        for temp, _, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temp)
    for text, destination in outputs:
        if destination == "-":
            sys.stdout.write(text)


def _new_file_mode(target: str) -> int:
    """Permission bits that writing ``target`` in place would leave it with.

    An existing target keeps its bits and must be writable; a new one gets
    the umask default.
    """
    if os.path.exists(target):
        if not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), target)
        return stat.S_IMODE(os.stat(target).st_mode)
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def _load_prices(args) -> Tuple[PriceMatrix, IngestReport, Optional[int]]:
    """Prices, ingest report and backtest split; --drop-degenerate judges in-sample rows."""
    matrix, report = ingest_prices_with_report(PriceCsvSpec(
        args.prices, args.date_column, args.delimiter, MissingPolicy(args.missing_policy)))
    split_index = _resolve_split(args, matrix)
    if args.drop_degenerate:
        matrix, dropped = _drop_degenerate(matrix, split_index)
        if dropped:
            print(f"dropped zero-variance asset(s): {', '.join(dropped)}",
                  file=sys.stderr)
            report = dataclasses.replace(
                report, dropped_assets=report.dropped_assets + tuple(dropped))
    return matrix, report, split_index


def _drop_degenerate(matrix: PriceMatrix,
                     split_index: Optional[int] = None) -> Tuple[PriceMatrix, List[str]]:
    """Drop the assets flat on return rows [0, split_index), or on every row if None."""
    returns = (simple_returns(matrix) if split_index is None
               else _return_windows(matrix, split_index)[0]).returns
    if returns.shape[0] < 2:
        raise InsufficientDataError("need at least 2 return rows for a sample covariance")
    # Returns are finite, so an overflowing variance is +inf, kept for the covariance to name.
    with np.errstate(all="ignore"):
        keep = returns.var(axis=0, ddof=1) > 0.0
    ids = np.array(matrix.asset_ids, dtype=object)
    dropped = list(ids[~keep])
    if not dropped:
        return matrix, []
    if not keep.any():
        raise DegenerateAssetError("every asset has zero variance", asset_ids=dropped)
    return PriceMatrix(matrix.prices[:, keep], ids[keep], matrix.timestamps), dropped


def _policy_from_args(args) -> CutPolicy:
    return CutPolicy(
        max_cuts=args.max_cuts,
        lambda2_threshold=args.lambda2_threshold,
        leaf_selection=LeafSelection(args.leaf_selection),
        min_leaf_size=args.min_leaf_size,
    )


def _manifest(args, matrix: PriceMatrix, report: IngestReport, **resolved) -> dict:
    """Echo of the parsed options, ``resolved`` overriding, plus a digest of the input."""
    return {
        "command": args.command,
        "input_path": args.prices,
        "date_column": args.date_column,
        "missing_policy": args.missing_policy,
        "drop_degenerate": bool(args.drop_degenerate),
        "n_rows": matrix.n_rows,
        "n_assets": matrix.n_assets,
        "first_date": matrix.timestamps[0],
        "last_date": matrix.timestamps[-1],
        "dropped_rows": len(report.dropped_rows),
        "dropped_assets": list(report.dropped_assets),
        **{key: getattr(args, key, None) for key in MANIFEST_OPTION_KEYS},
        **resolved,
        "version": __version__,
    }


def cmd_cut(args) -> int:
    matrix, report, _ = _load_prices(args)
    graph = market_graph_from_covariance(
        sample_covariance(simple_returns(matrix)), asset_ids=matrix.asset_ids
    )
    tree = build_cut_tree(graph, _policy_from_args(args), CutObjective(args.objective))
    payload = tree_to_dict(tree)
    payload["manifest"] = _manifest(args, matrix, report)
    _write_outputs((canonical_json(payload), args.output))
    return EXIT_OK


def cmd_allocate(args) -> int:
    try:
        with open(args.tree, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise InvalidInputError(f"cannot read tree file: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InvalidInputError(f"tree file {args.tree} is not valid JSON: {exc}") from exc
    tree = tree_from_dict(payload)
    clusters = allocate(tree, AllocationScheme(args.scheme))
    weights = asset_weights(tree, clusters)
    if args.format == "csv":
        text = weights_to_csv(tree.asset_ids, weights)
    else:
        text = canonical_json(weights_to_dict(tree.asset_ids, weights, clusters.per_leaf))
    _write_outputs((text, args.output))
    return EXIT_OK


def _parse_strategies(tokens: str) -> Tuple[str, ...]:
    seen = set()
    for token in tokens.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in STRATEGIES:
            raise _UsageError(
                f"unknown strategy {token!r}; choose from {', '.join(STRATEGIES)}"
            )
        if token in seen:
            raise _UsageError(f"duplicate strategy {token!r}")
        seen.add(token)
    if not seen:
        raise _UsageError("empty strategy list")
    return tuple(sorted(seen, key=STRATEGIES.index))


def _resolve_split(args, matrix: PriceMatrix) -> Optional[int]:
    if getattr(args, "split_date", None) is None:
        return getattr(args, "split_index", None)
    key = timestamp_sort_key(args.split_date)
    # Return row t realizes at timestamps[t+1]; in-sample keeps dates <= split.
    return sum(1 for stamp in matrix.timestamps[1:]
               if timestamp_sort_key(stamp) <= key)


def cmd_backtest(args) -> int:
    matrix, report, split_index = _load_prices(args)
    tokens = _parse_strategies(args.strategies)
    config = BacktestConfig(
        split_index=split_index,
        strategies=tokens,
        policy=_policy_from_args(args),
        annualization_factor=args.annualization_factor,
        mv_ridge=args.mv_ridge,
    )
    result = run_backtest(matrix, config)
    manifest = _manifest(args, matrix, report, split_index=split_index,
                         strategies=list(tokens))
    # Render every output before writing any, so a rendering error leaves no file.
    outputs = [(canonical_json(report_to_dict(result, manifest)), args.output)]
    if args.wealth_csv:
        outputs.append((wealth_to_csv(result), args.wealth_csv))
    if args.svg:
        outputs.append((wealth_to_svg(result), args.svg))
    _write_outputs(*outputs)
    return EXIT_OK


def _openblas_thread_controls() -> list:
    """A (get, set) thread-count function pair for each OpenBLAS in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line})
    except OSError:
        return []
    controls = []
    for lib in (ctypes.CDLL(path) for path in paths if path.startswith("/")):
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get, set_ = (getattr(lib, f"{prefix}_{op}_num_threads{suffix}", None)
                         for op in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one thread of each loaded OpenBLAS, then restore the counts.

    At portcut's sizes threaded BLAS spends more CPU than it saves, and the
    thread count changes the last bits of products.
    """
    restore = [(set_, get()) for get, set_ in _openblas_thread_controls()]
    try:
        for set_, _ in restore:
            set_(1)
        yield
    finally:
        for set_, count in restore:
            set_(count)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command = {"cut": cmd_cut, "allocate": cmd_allocate, "backtest": cmd_backtest}
        # A command's notes reach stderr only if it succeeds; a failure prints just its error.
        with _one_blas_thread(), contextlib.redirect_stderr(io.StringIO()) as notes:
            code = command[args.command](args)
        sys.stderr.write(notes.getvalue())
        return code
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except PortfolioCutError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_DATA


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
