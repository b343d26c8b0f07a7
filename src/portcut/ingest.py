"""CSV price ingestion.

Reads a header-first CSV with one date column and one column per asset into
a rectangular PriceMatrix. A file whose price cells are numbers, blanks or
`nan` is parsed in one streamed C-level pass that re-reads only the rows
holding a missing or bad value; any other (`na`, `null`, whitespace-only
cells, all-blank rows, bare CR line ends) goes through a per-cell reader that
names the first bad cell. A blank date is an error; missing prices are
rejected, or dropped row-wise or column-wise, according to the policy.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from dataclasses import dataclass
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


def _nul_free(lines, path: Path):
    """The lines; one holding NUL is invalid input, as csv reports it on Python 3.10."""
    for line_no, line in enumerate(lines, start=1):
        if "\x00" in line:
            raise InvalidInputError(f"{path}:{line_no}: line contains NUL")
        yield line


def _blanks_to_nan(line: bytes, delimiter: str, date_idx: int) -> str:
    """``line`` with ``nan`` in each blank price cell, never in the date cell."""
    text = line.decode("utf-8")
    body = text.rstrip("\r\n")
    cells = body.split(delimiter)
    if '"' in text or not any(cell.strip() for cell in cells):
        raise ValueError("quoted or blank: the per-cell reader splits or skips it")
    cells = ["nan" if not cell and i != date_idx else cell for i, cell in enumerate(cells)]
    return delimiter.join(cells) + text[len(body):]


def _parse_clean(path: Path, spec: PriceCsvSpec, asset_ids: List[str],
                 date_idx: int) -> Optional[Tuple[List[str], np.ndarray]]:
    """Dates and prices from one streamed `np.loadtxt` pass, or None.

    None unless `_parse_cells` would give the same result: every row is one
    LF-ended line holding a date and, per asset, a number or blank (NaN). A
    row holding a value outside (0, inf) is read again, and goes to
    `_parse_cells` unless the policy allows all those cells as missing.
    """
    width, sep = len(asset_ids) + 1, spec.delimiter.encode("utf-8")
    dates: List[str] = []
    lengths: List[int] = []

    def keep_date(cell: str) -> float:
        dates.append(cell.strip())
        return 0.0

    # Where the cell loop differs: csv.reader caps the field size; float()
    # rejects a number next to bytes 0x1c-0x1f, which loadtxt strips as
    # whitespace; and `_nul_free` rejects NUL.
    def lines(handle):
        for chunk in iter(lambda: handle.readlines(1 << 16), []):
            block = b"".join(chunk)
            lengths.extend(map(len, chunk))
            if max(map(len, chunk)) > csv.field_size_limit() or any(
                    byte in block for byte in (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
                raise ValueError("left to the per-cell reader")
            # One vector pass finds a delimiter next to another or a line end; a
            # blank between two cells of a multi-byte delimiter makes loadtxt raise.
            data = np.frombuffer(b"\n" + block + b"\n", np.uint8)
            cut = data == sep[0]
            stop = cut | (data == 10) | (data == 13)
            pairs = np.flatnonzero(stop[:-1] & stop[1:] & (cut[:-1] | cut[1:]))
            # Pair p: block bytes p - 1 and p; the blank is on byte p's line, or the last.
            ends = np.cumsum(lengths[-len(chunk):-1])
            blank = set(np.searchsorted(ends, pairs, side="right").tolist())
            yield from (_blanks_to_nan(line, spec.delimiter, date_idx) if i in blank else line
                        for i, line in enumerate(chunk))

    with path.open("rb") as handle:
        header = handle.readline()
        if b"\r" in header[:-2]:  # csv.reader ends the header at a bare CR
            return None
        try:
            table = np.loadtxt(lines(handle), delimiter=spec.delimiter, quotechar='"',
                               comments=None, encoding="utf-8", ndmin=2,
                               converters={date_idx: keep_date})
        except (TypeError, ValueError):
            return None
        # loadtxt skips blank lines, joins lines inside quotes and keeps blank dates.
        if table.shape[1] != width or len(table) != len(lengths) or "" in dates:
            return None
        prices = np.delete(table, date_idx, axis=1)
        valid = (prices > 0.0) & (prices < math.inf)
        starts = list(itertools.accumulate(lengths, initial=len(header)))
        for i in np.flatnonzero(~valid.all(axis=1)).tolist():
            handle.seek(starts[i])
            row = next(csv.reader([handle.readline().decode("utf-8")], delimiter=spec.delimiter))
            cells = row[:date_idx] + row[date_idx + 1:]
            if spec.missing_policy is MissingPolicy.ERROR or any(
                    cells[j].strip().lower() not in MISSING_MARKERS
                    for j in np.flatnonzero(~valid[i])):
                # Every earlier row is clean, so this raises the full loop's first error.
                _parse_cells([(i + 2, row)], path, asset_ids, date_idx, spec.missing_policy)
    return dates, prices


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
        reader = csv.reader(_nul_free(handle, path), delimiter=spec.delimiter)
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

        # loadtxt skips the header as one line and warns on a file without rows.
        first = next(rows_in, None)
        clean = None
        if reader.line_num == 2 and first and any(cell.strip() for cell in first):
            clean = _parse_clean(path, spec, asset_ids, date_idx)
        dates, prices = clean or _parse_cells(
            enumerate(itertools.chain([first], rows_in), start=2), path, asset_ids,
            date_idx, spec.missing_policy)

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
