"""CSV price ingestion.

Reads a header-first CSV with one date column and one column per asset into
a rectangular PriceMatrix. Missing cells are rejected, or dropped row-wise or
column-wise, according to the configured policy.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import List, Tuple

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .market_graph import PriceMatrix

__all__ = [
    "MissingPolicy",
    "PriceCsvSpec",
    "IngestReport",
    "ingest_prices_with_report",
]

log = logging.getLogger(__name__)

MISSING_MARKERS = {"", "na", "nan", "null"}


class MissingPolicy(Enum):
    ERROR = "error"
    DROP_ROWS = "drop-rows"
    DROP_ASSETS = "drop-assets"


@dataclass(frozen=True)
class PriceCsvSpec:
    """Where and how to read a price CSV."""

    path: str
    date_column: str = "date"
    delimiter: str = ","
    missing_policy: MissingPolicy = MissingPolicy.ERROR

    def __post_init__(self):
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise InvalidInputError(
                f"delimiter must be exactly one character, got {self.delimiter!r}"
            )


@dataclass(frozen=True)
class IngestReport:
    """Which rows (by date) and asset columns ingestion dropped."""

    dropped_rows: Tuple[str, ...]
    dropped_assets: Tuple[str, ...]


def _decoded_rows(reader, path: Path):
    """The reader's rows; text that is not CSV or not UTF-8 is invalid input."""
    try:
        yield from reader
    except csv.Error as exc:
        raise InvalidInputError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def ingest_prices_with_report(spec: PriceCsvSpec) -> Tuple[PriceMatrix, IngestReport]:
    """Read a price CSV and also report any dropped rows or assets.

    Raises
    ------
    InvalidInputError
        Missing file, bytes that are not UTF-8, text that is not CSV (named
        by line),
        missing/duplicated columns, unparseable, non-finite or nonpositive
        cells (named by line and column), non-increasing dates, or a missing
        cell under the ERROR policy.
    InsufficientDataError
        Fewer than two usable rows, or no asset columns after drops.
    """
    path = Path(spec.path)
    if not path.is_file():
        raise InvalidInputError(f"price file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=spec.delimiter)
        rows_in = _decoded_rows(reader, path)
        try:
            header = next(rows_in)
        except StopIteration:
            raise InvalidInputError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        if spec.date_column not in header:
            raise InvalidInputError(
                f"{path}: date column {spec.date_column!r} not in header {header}"
            )
        date_idx = header.index(spec.date_column)
        asset_ids = [h for i, h in enumerate(header) if i != date_idx]
        if not asset_ids:
            raise InvalidInputError(f"{path}: no asset columns besides the date")
        if len(set(asset_ids)) != len(asset_ids):
            raise InvalidInputError(f"{path}: duplicate asset columns in header")

        dates: List[str] = []
        rows: List[List[float]] = []
        for line_no, row in enumerate(rows_in, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise InvalidInputError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                )
            dates.append(row.pop(date_idx).strip())
            values: List[float] = []
            for column, cell in zip(asset_ids, row):
                try:
                    value = float(cell)
                except ValueError:
                    value = None
                if value is None or not 0.0 < value < math.inf:
                    if cell.strip().lower() not in MISSING_MARKERS:
                        problem = ("unparseable" if value is None
                                   else "nonpositive" if value <= 0.0 else "non-finite")
                        raise InvalidInputError(f"{path}:{line_no}: {problem} price "
                                                f"{cell!r} in column {column!r}")
                    if spec.missing_policy is MissingPolicy.ERROR:
                        raise InvalidInputError(
                            f"{path}:{line_no}: missing price in column {column!r}")
                    value = math.nan
                values.append(value)
            rows.append(values)

    prices = np.array(rows, dtype=float).reshape(len(rows), len(asset_ids))
    dropped_assets: Tuple[str, ...] = ()
    dropped_rows: Tuple[str, ...] = ()
    if spec.missing_policy is MissingPolicy.DROP_ASSETS:
        incomplete = np.isnan(prices).any(axis=0)
        dropped_assets = tuple(a for a, bad in zip(asset_ids, incomplete) if bad)
        asset_ids = [a for a, bad in zip(asset_ids, incomplete) if not bad]
        prices = prices[:, ~incomplete]
        if not asset_ids:
            raise InsufficientDataError(f"{path}: every asset column has missing cells")
    elif spec.missing_policy is MissingPolicy.DROP_ROWS:
        incomplete = np.isnan(prices).any(axis=1)
        dropped_rows = tuple(d for d, bad in zip(dates, incomplete) if bad)
        dates = [d for d, bad in zip(dates, incomplete) if not bad]
        prices = prices[~incomplete]

    if len(dates) < 2:
        raise InsufficientDataError(
            f"{path}: {len(dates)} usable rows after drops, need at least 2"
        )
    try:
        matrix = PriceMatrix(prices=prices, asset_ids=tuple(asset_ids),
                             timestamps=tuple(dates))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None

    if dropped_assets:
        log.info("dropped %d asset(s) with missing cells: %s",
                 len(dropped_assets), ", ".join(dropped_assets))
    if dropped_rows:
        log.info("dropped %d row(s) with missing cells", len(dropped_rows))
    report = IngestReport(dropped_rows=dropped_rows, dropped_assets=dropped_assets)
    return matrix, report
