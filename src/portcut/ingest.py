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
from datetime import date
from enum import Enum
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .market_graph import PriceMatrix

__all__ = [
    "MissingPolicy",
    "PriceCsvSpec",
    "IngestReport",
    "ingest_prices_with_report",
    "timestamp_sort_key",
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


def timestamp_sort_key(label: str):
    """ISO dates compare as dates; anything else compares as a string."""
    try:
        return (0, date.fromisoformat(label))
    except ValueError:
        return (1, label)


def _is_missing(cell: str) -> bool:
    return cell.strip().lower() in MISSING_MARKERS


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
        rows: List[List[Optional[float]]] = []
        for line_no, row in enumerate(rows_in, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise InvalidInputError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                )
            dates.append(row[date_idx].strip())
            values: List[Optional[float]] = []
            for i, cell in enumerate(row):
                if i == date_idx:
                    continue
                column = header[i]
                if _is_missing(cell):
                    if spec.missing_policy is MissingPolicy.ERROR:
                        raise InvalidInputError(
                            f"{path}:{line_no}: missing price in column {column!r}"
                        )
                    values.append(None)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise InvalidInputError(
                        f"{path}:{line_no}: unparseable price {cell!r} in column {column!r}"
                    ) from None
                if not 0.0 < value < math.inf:
                    problem = "nonpositive" if value <= 0.0 else "non-finite"
                    raise InvalidInputError(
                        f"{path}:{line_no}: {problem} price {cell!r} in column {column!r}"
                    )
                values.append(value)
            rows.append(values)

    dropped_assets: List[str] = []
    dropped_rows: List[str] = []
    if spec.missing_policy is MissingPolicy.DROP_ASSETS:
        complete = [all(row[j] is not None for row in rows)
                    for j in range(len(asset_ids))]
        keep = [j for j, ok in enumerate(complete) if ok]
        dropped_assets = [a for a, ok in zip(asset_ids, complete) if not ok]
        asset_ids = [asset_ids[j] for j in keep]
        rows = [[row[j] for j in keep] for row in rows]
        if not asset_ids:
            raise InsufficientDataError(f"{path}: every asset column has missing cells")
    elif spec.missing_policy is MissingPolicy.DROP_ROWS:
        complete = [all(v is not None for v in row) for row in rows]
        dropped_rows = [d for d, ok in zip(dates, complete) if not ok]
        rows = [row for row, ok in zip(rows, complete) if ok]
        dates = [d for d, ok in zip(dates, complete) if ok]

    if len(rows) < 2:
        raise InsufficientDataError(
            f"{path}: {len(rows)} usable rows after drops, need at least 2"
        )

    keys = [timestamp_sort_key(d) for d in dates]
    for i in range(1, len(keys)):
        if keys[i] <= keys[i - 1]:
            raise InvalidInputError(
                f"{path}: dates not strictly increasing at {dates[i]!r}"
            )

    if dropped_assets:
        log.info("dropped %d asset(s) with missing cells: %s",
                 len(dropped_assets), ", ".join(dropped_assets))
    if dropped_rows:
        log.info("dropped %d row(s) with missing cells", len(dropped_rows))

    matrix = PriceMatrix(
        prices=np.array(rows, dtype=float),
        asset_ids=tuple(asset_ids),
        timestamps=tuple(dates),
    )
    report = IngestReport(
        dropped_rows=tuple(dropped_rows),
        dropped_assets=tuple(dropped_assets),
    )
    return matrix, report
