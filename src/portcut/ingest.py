"""CSV price ingestion.

Reads a header-first CSV with one date column and one column per asset into a
rectangular PriceMatrix, 64 KiB of lines at a time: one `np.loadtxt` call parses
a block once its blank price cells read `nan`, and the per-cell reader, which
names the first bad cell, reads a block loadtxt refuses or may read otherwise,
or with a value outside (0, inf) the policy does not drop. A blank date is an
error; missing prices are rejected, or dropped row-wise or column-wise.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import re
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


def _lines(handle, path: Path):
    """The file's lines; if some bytes are not UTF-8, that error in place of the rest."""
    try:
        yield from handle
    except UnicodeDecodeError as exc:
        yield InvalidInputError(f"{path}: not UTF-8 text ({exc.reason})")


def _records(block: List[str], lines, numbers, path: Path, delimiter: str, line_no: int):
    """``(next(numbers), row)`` per csv record starting in ``block`` (from line ``line_no``);
    one that runs on past the block appends the lines it takes to it."""
    def checked():
        for number, line in enumerate(itertools.chain(block, lines), start=line_no):
            if number - line_no == len(block):
                block.append(line)
            if not isinstance(line, str):
                raise line
            if "\x00" in line:  # as csv.reader rejects it on Python 3.10
                raise InvalidInputError(f"{path}:{number}: line contains NUL")
            yield line

    reader = csv.reader(checked(), delimiter=delimiter)
    try:
        while reader.line_num < len(block):
            yield next(numbers), next(reader)
    except csv.Error as exc:
        raise InvalidInputError(f"{path}:{line_no - 1 + reader.line_num}: {exc}") from None


def _blocks(lines):
    """The lines in lists of about 64 KiB; a decode error ends the last one."""
    block, size = [], 0
    for line in lines:
        block.append(line)
        size += len(line) if isinstance(line, str) else 1 << 16
        if size >= 1 << 16:
            yield block
            block, size = [], 0
    if block:
        yield block


def _blanks_to_nan(line: str, delimiter: str, date_idx: int, pair: re.Pattern) -> str:
    """``line`` with ``nan`` in each blank price cell, never in the date cell; a line with
    a quote keeps its blanks, which loadtxt refuses, as a split could cut a quoted cell."""
    body = line.rstrip("\r\n")
    if '"' in line or not (pair.search(body) or delimiter in (body[:1], body[-1:])):
        return line
    cells = ["nan" if not cell and i != date_idx else cell
             for i, cell in enumerate(body.split(delimiter))]
    return delimiter.join(cells) + line[len(body):]


def _loadtxt(block: List[str], spec: PriceCsvSpec, date_idx: int, width: int):
    """Dates and prices of a block by one `np.loadtxt` call; None where `_parse_cells` may
    read it otherwise or raise: at a field past csv's size limit, NUL or bytes 0x1c-0x1f
    (loadtxt strips them), a blank line or date, or a record across lines."""
    delimiter, text = spec.delimiter, "".join(block)
    if max(map(len, block)) > csv.field_size_limit() or any(
            byte in text for byte in "\x00\x1c\x1d\x1e\x1f"):
        return None
    pair = re.compile(re.escape(delimiter) * 2)
    rows = [_blanks_to_nan(line, delimiter, date_idx, pair) for line in block]
    # A closing row keeps loadtxt from warning on a block of blank lines, and a quoted
    # cell left open on the last line would swallow it.
    if '"' in block[-1] or text.isspace():
        rows.append(delimiter.join(["1"] * width) + "\n")
    dates: List[str] = []
    try:
        table = np.loadtxt(rows, delimiter=delimiter, quotechar='"', comments=None,
                           encoding="utf-8", ndmin=2, converters={
                               date_idx: lambda cell: dates.append(cell.strip()) or 1.0})
    except (TypeError, ValueError):
        return None
    if table.shape != (len(rows), width) or "" in dates:
        return None
    # Dates read 1.0, so a cell outside (0, inf) is a price; the policy may take it as missing.
    bad = ~((table > 0.0) & (table < math.inf))
    for i in np.flatnonzero(bad.any(axis=1)).tolist():
        cells = block[i].split(delimiter)
        if spec.missing_policy is MissingPolicy.ERROR or '"' in block[i] or any(
                cells[j].strip().lower() not in MISSING_MARKERS for j in np.flatnonzero(bad[i])):
            return None
    return dates[:len(block)], np.delete(table[:len(block)], date_idx, axis=1)


def _parse_cells(rows_in, path: Path, asset_ids: List[str], date_idx: int,
                 missing_policy: MissingPolicy) -> Tuple[List[str], np.ndarray]:
    """Dates and prices from ``(line_no, row)`` pairs, one float() per cell; NaN if missing."""
    width = len(asset_ids) + 1
    dates: List[str] = []
    rows: List[List[float]] = []
    for line_no, row in rows_in:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            raise InvalidInputError(f"{path}:{line_no}: expected {width} cells, got {len(row)}")
        dates.append(row.pop(date_idx).strip())
        if not dates[-1]:
            raise InvalidInputError(f"{path}:{line_no}: missing date")
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
                if missing_policy is MissingPolicy.ERROR:
                    raise InvalidInputError(
                        f"{path}:{line_no}: missing price in column {column!r}")
                value = math.nan
            values.append(value)
        rows.append(values)
    return dates, np.array(rows, dtype=float).reshape(len(rows), len(asset_ids))


def ingest_prices_with_report(spec: PriceCsvSpec) -> Tuple[PriceMatrix, IngestReport]:
    """Read a price CSV and also report any dropped rows or assets.

    Raises
    ------
    InvalidInputError
        Missing file, bytes that are not UTF-8, text that is not CSV (named
        by line), missing/duplicated columns, unparseable, non-finite or
        nonpositive cells (named by line and column), blank (named by line) or
        non-increasing dates, or a missing cell under the ERROR policy.
    InsufficientDataError
        Fewer than two usable rows, or no asset columns after drops.
    """
    path = Path(spec.path)
    if not path.is_file():
        raise InvalidInputError(f"price file not found: {path}")
    # utf-8-sig drops the byte-order mark spreadsheet "CSV UTF-8" exports begin with.
    with path.open(newline="", encoding="utf-8-sig") as handle:
        lines = _lines(handle, path)
        block = list(itertools.islice(lines, 1))
        if not block:
            raise InvalidInputError(f"{path}: empty file, header row required")
        header = [h.strip() for h in next(
            _records(block, lines, itertools.count(), path, spec.delimiter, 1))[1]]
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
        # Blocks are checked in full, in file order. Their rows fill one table, doubled as
        # it fills and trimmed in place. csv and NUL errors count lines; row errors, records.
        dates: List[str] = []
        prices = np.empty((0, len(asset_ids)))
        line_no, numbers = len(block) + 1, itertools.count(2)
        for block in _blocks(lines):
            parsed = isinstance(block[-1], str) and _loadtxt(block, spec, date_idx, len(header))
            if not parsed:
                parsed = _parse_cells(
                    _records(block, lines, numbers, path, spec.delimiter, line_no),
                    path, asset_ids, date_idx, spec.missing_policy)
            else:
                numbers = itertools.count(next(numbers) + len(block))
            line_no += len(block)
            dates += parsed[0]
            if len(dates) > len(prices):
                prices.resize((2 * len(dates), len(asset_ids)), refcheck=False)
            prices[len(dates) - len(parsed[1]):len(dates)] = parsed[1]
        prices.resize((len(dates), len(asset_ids)), refcheck=False)

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
