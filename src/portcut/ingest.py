"""CSV price ingestion.

Reads a header-first CSV with one date column and one column per asset into a rectangular
PriceMatrix, 64 KiB of lines at a time. The date cell is split off each line once, and
unquoted if exactly "..."; in an unquoted block the delimiter bytes of the rest give the
blank cells, read as 0 and masked to NaN. One numpy call reads the block: an int64
`np.fromstring` where every price cell is a plain decimal, read exactly, else a float
`np.loadtxt`; a NaN it gives is a missing cell (a blank or an unsigned `nan`). The per-cell
reader, which names the first bad cell, reads a block numpy refuses or may read otherwise,
or with a signed `nan`, `0`, a negative value, `inf` or a missing cell the policy does not
drop. A blank date is an error; missing prices are rejected, or dropped by row or column.
"""

from __future__ import annotations

import csv
import itertools
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
                f"delimiter must be exactly one character, got {self.delimiter!r}")


@dataclass(frozen=True)
class IngestReport:
    """Which rows (by date) and asset columns ingestion dropped."""

    dropped_rows: Tuple[str, ...]
    dropped_assets: Tuple[str, ...]


def _lines(handle, path: Path):
    """``(number, line)`` from 1; if some bytes are not UTF-8, that error in place of the rest."""
    number = 0
    try:
        for number, line in enumerate(handle, start=1):
            yield number, line
    except UnicodeDecodeError as exc:
        yield number + 1, InvalidInputError(f"{path}: not UTF-8 text ({exc.reason})")


def _records(block: List[Tuple[int, str]], lines, path: Path, delimiter: str):
    """``(number, row)`` per csv record starting in ``block``, numbered by the line it ends
    on; one that runs on past the block reads on from ``lines``."""
    def checked():
        for number, line in itertools.chain(block, lines):
            if not isinstance(line, str):
                raise line
            if "\x00" in line:  # as csv.reader rejects it on Python 3.10
                raise InvalidInputError(f"{path}:{number}: line contains NUL")
            yield line

    before = block[0][0] - 1
    reader = csv.reader(checked(), delimiter=delimiter)
    try:
        while reader.line_num < len(block):
            row = next(reader)
            yield before + reader.line_num, row
    except csv.Error as exc:
        raise InvalidInputError(f"{path}:{before + reader.line_num}: {exc}") from None


def _blocks(lines):
    """The numbered lines in lists of about 64 KiB; a decode error ends the last one."""
    block, size = [], 0
    for item in lines:
        block.append(item)
        size += len(item[1]) if isinstance(item[1], str) else 1 << 16
        if size >= 1 << 16:
            yield block
            block, size = [], 0
    if block:
        yield block


# Whether `np.longdouble` is x87's 80-bit format in 16 bytes, whose 64-bit significand holds
# m < 10**18 and 10**q exactly: m / 10**q rounds once, and on to float()'s double but at ties.
_EXACT = (np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
          and np.longdouble(1) + np.longdouble(2 ** -60) != 1)
_POW10 = np.array([10 ** q for q in range(19)]).astype(np.longdouble)


def _prices(rows: List[str], delimiter: str, cells: int):
    """The ``cells`` price cells of each row by one numpy call, NaN where blank; None where
    it refuses them or may read them apart from csv. Plain decimals, 1-18 ASCII digits with
    at most one dot, read by `np.fromstring` as int64 m, and m / 10**q as float() reads them."""
    text = "\n".join(rows) + "\n"
    codec, dtype = ("utf-8", np.uint8) if delimiter.isascii() else ("utf-32-le", np.uint32)
    data = text.encode(codec)
    raw = np.frombuffer(data, dtype)
    blank, exact = np.zeros(len(rows) * cells, dtype=bool), False
    if '"' in text:
        # loadtxt refuses a blank; a quoted cell that holds the delimiter adds to this count.
        if np.count_nonzero(raw == ord(delimiter)) != len(rows) * (cells - 1):
            return None
    else:
        odd = np.flatnonzero((raw - 48 > 9) | (raw == ord(delimiter)))
        kind = raw[odd]
        ends = odd[(kind == ord(delimiter)) | (kind == 10)]
        size = ends - np.concatenate(([0], ends[:-1] + 1))
        blank = size == 0
        at = np.flatnonzero(kind == 46)
        dotted = at - np.arange(len(at))  # the j-th dot is in the cell of the (at[j] - j)-th end
        # Every byte a digit, a dot or an end; no cell with two dots, a dot alone or 19 bytes.
        exact = (_EXACT and delimiter.isascii() and not delimiter.isdigit()
                 and len(odd) == len(ends) + len(at) and not (np.diff(at) == 1).any()
                 and not (size[dotted] == 1).any() and not (size > 18).any())
        # loadtxt's row-shape test, which fromstring lacks: each row's cells-th end is its newline.
        if len(ends) != len(rows) * cells or (raw[ends[cells - 1::cells]] != 10).any():
            return None
    if not exact:
        # float() reads no cell that holds `null`, or `na` but not as `nan`; a signed `nan`,
        # in quotes or not, is a bad price to the per-cell reader, not a missing one.
        low = text.lower() if "n" in text or "N" in text else ""
        if "null" in low or low.count("na") != low.count("nan") or any(
                sign + "nan" in low.replace('"', "") for sign in "-+"):
            return None
    if blank.any():
        data = np.insert(raw, ends[blank], 48).tobytes()
    if exact:
        # With the dots deleted and the line ends made delimiters (never a digit, which it would
        # read as part of a number), fromstring reads every cell; the last delimiter is cut.
        newline = bytes.maketrans(b"\n", delimiter.encode())
        values = np.fromstring(data.translate(newline, b".")[:-1], dtype=np.int64, sep=delimiter)
        q = np.zeros(len(ends), dtype=np.intp)
        q[dotted] = ends[dotted] - odd[at] - 1
        quotient = values.astype(np.longdouble) / _POW10[q]
        values = quotient.astype(float)
        for i in np.flatnonzero(quotient.view(np.uint64)[::2] & 0x7FF == 0x400).tolist():
            values[i] = float(text[ends[i] - size[i]:ends[i]])
    else:
        try:
            table = np.loadtxt(data.decode(codec).split("\n")[:-1] if blank.any() else rows,
                               dtype=float, delimiter=delimiter, quotechar='"', comments=None,
                               ndmin=2)
        except (TypeError, ValueError):
            return None
        if table.shape != (len(rows), cells):
            return None
        values = table.ravel()
    values[blank] = math.nan
    return values.reshape(len(rows), cells)


def _loadtxt(block: List[Tuple[int, str]], spec: PriceCsvSpec, date_idx: int, width: int):
    """Dates and prices of a block, the date cells split off and the rest read by `_prices`;
    None where `_parse_cells` may read it otherwise or raise: a field past csv's size limit,
    NUL or bytes 0x1c-0x1f (loadtxt strips them), a blank line or date, or an open quote."""
    lines = [line for _, line in block]
    delimiter, text = spec.delimiter, "".join(lines)
    if max(map(len, lines)) > csv.field_size_limit() or any(
            byte in text for byte in "\x00\x1c\x1d\x1e\x1f"):
        return None
    dates, rows = [], []
    for line in lines:
        parts = line.rstrip("\r\n").split(delimiter, date_idx + 1)
        # A line that ends at or before its date cell must not read as one blank price.
        if len(parts) != min(date_idx + 2, width):
            return None
        date = parts.pop(date_idx)
        dates.append((date[1:-1] if date[:1] == '"' == date[-1:] else date).strip())
        rows.append(delimiter.join(parts))
    # csv unquotes a date that is exactly "...": one with another quote, or a quote left
    # open on the last line, which csv reads on into the next block, is declined.
    if "" in dates or '"' in text and ('"' in "".join(dates) or lines[-1].count('"') % 2):
        return None
    prices = _prices(rows, delimiter, width - 1)
    # A NaN is a missing cell; the per-cell reader names any other price outside (0, inf).
    if prices is None or ((prices <= 0.0) | (prices == math.inf)).any() or (
            spec.missing_policy is MissingPolicy.ERROR and np.isnan(prices).any()):
        return None
    return dates, prices


def _parse_cells(rows_in, path: Path, asset_ids: List[str], date_idx: int,
                 missing_policy: MissingPolicy) -> Tuple[List[str], np.ndarray]:
    """Dates and prices from ``(number, row)`` pairs, one float() per cell; NaN if missing."""
    width = len(asset_ids) + 1
    dates: List[str] = []
    rows: List[List[float]] = []
    for number, row in rows_in:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            raise InvalidInputError(f"{path}:{number}: expected {width} cells, got {len(row)}")
        dates.append(row.pop(date_idx).strip())
        if not dates[-1]:
            raise InvalidInputError(f"{path}:{number}: missing date")
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
                    raise InvalidInputError(f"{path}:{number}: {problem} price "
                                            f"{cell!r} in column {column!r}")
                if missing_policy is MissingPolicy.ERROR:
                    raise InvalidInputError(
                        f"{path}:{number}: missing price in column {column!r}")
                value = math.nan
            values.append(value)
        rows.append(values)
    return dates, np.array(rows, dtype=float).reshape(len(rows), len(asset_ids))


def ingest_prices_with_report(spec: PriceCsvSpec) -> Tuple[PriceMatrix, IngestReport]:
    """Read a price CSV and also report any dropped rows or assets.

    Raises
    ------
    InvalidInputError
        Missing file, bytes that are not UTF-8, text that is not CSV, missing/duplicated
        columns, unparseable, non-finite or nonpositive cells (named by column), blank or
        non-increasing dates, or a missing cell under the ERROR policy. Text and row errors
        name a line: a row error, the line its record ends on.
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
        header = [h.strip() for h in next(_records(block, lines, path, spec.delimiter))[1]]
        if spec.date_column not in header:
            raise InvalidInputError(
                f"{path}: date column {spec.date_column!r} not in header {header}")
        date_idx = header.index(spec.date_column)
        asset_ids = [h for i, h in enumerate(header) if i != date_idx]
        if not asset_ids:
            raise InvalidInputError(f"{path}: no asset columns besides the date")
        if len(set(asset_ids)) != len(asset_ids):
            raise InvalidInputError(f"{path}: duplicate asset columns in header")
        # Blocks are checked in full, in file order; their rows fill one growing table.
        dates: List[str] = []
        prices = np.empty((0, len(asset_ids)))
        for block in _blocks(lines):
            parsed = isinstance(block[-1][1], str) and _loadtxt(block, spec, date_idx, len(header))
            if not parsed:
                parsed = _parse_cells(_records(block, lines, path, spec.delimiter), path,
                                      asset_ids, date_idx, spec.missing_policy)
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
            f"{path}: {len(dates)} usable rows after drops, need at least 2")
    try:
        matrix = PriceMatrix(prices=prices, asset_ids=tuple(asset_ids), timestamps=tuple(dates))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None

    if dropped_assets:
        log.info("dropped %d asset(s) with missing cells: %s",
                 len(dropped_assets), ", ".join(dropped_assets))
    if dropped_rows:
        log.info("dropped %d row(s) with missing cells", len(dropped_rows))
    return matrix, IngestReport(dropped_rows=dropped_rows, dropped_assets=dropped_assets)
