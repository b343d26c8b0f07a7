import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import portcut.ingest as ingest
from portcut import (
    InsufficientDataError,
    InvalidInputError,
    MissingPolicy,
    PortfolioCutError,
    PriceCsvSpec,
    PriceMatrix,
    block_factor_market,
    ingest_prices_with_report,
)

from conftest import reference_ingest, write_prices_csv


def write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


WELL_FORMED = "date,aaa,bbb\n2020-01-01,100,50\n2020-01-02,101,49\n2020-01-03,102,48\n"


class TestHappyPath:
    def test_three_by_two(self, tmp_path):
        matrix = ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, WELL_FORMED)))[0]
        assert matrix.n_rows == 3
        assert matrix.n_assets == 2
        assert matrix.asset_ids == ("aaa", "bbb")
        assert matrix.timestamps == ("2020-01-01", "2020-01-02", "2020-01-03")
        assert matrix.prices[1, 0] == 101.0

    def test_report_matches_matrix(self, tmp_path):
        matrix, report = ingest_prices_with_report(
            PriceCsvSpec(path=write(tmp_path, WELL_FORMED)))
        assert report.dropped_rows == ()
        assert report.dropped_assets == ()

    def test_date_column_positional_freedom(self, tmp_path):
        text = "aaa,date,bbb\n100,2020-01-01,50\n101,2020-01-02,49\n"
        matrix = ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, text)))[0]
        assert matrix.asset_ids == ("aaa", "bbb")
        assert matrix.prices[0].tolist() == [100.0, 50.0]

    def test_custom_delimiter_and_column(self, tmp_path):
        text = "day;x\n2020-01-01;1.5\n2020-01-02;1.6\n"
        spec = PriceCsvSpec(path=write(tmp_path, text), date_column="day",
                            delimiter=";")
        matrix = ingest_prices_with_report(spec)[0]
        assert matrix.prices[:, 0].tolist() == [1.5, 1.6]

    def test_blank_lines_skipped(self, tmp_path):
        text = "date,x\n2020-01-01,1\n\n2020-01-02,2\n"
        assert ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, text)))[0].n_rows == 2


class TestMissingPolicies:
    MISSING = "date,aaa,bbb\n2020-01-01,100,50\n2020-01-02,,49\n2020-01-03,102,48\n"

    def test_error_policy_names_row_and_column(self, tmp_path):
        spec = PriceCsvSpec(path=write(tmp_path, self.MISSING))
        with pytest.raises(InvalidInputError) as exc:
            ingest_prices_with_report(spec)
        assert ":3" in str(exc.value)
        assert "aaa" in str(exc.value)

    def test_drop_rows(self, tmp_path):
        spec = PriceCsvSpec(path=write(tmp_path, self.MISSING),
                            missing_policy=MissingPolicy.DROP_ROWS)
        matrix, report = ingest_prices_with_report(spec)
        assert matrix.n_rows == 2
        assert matrix.timestamps == ("2020-01-01", "2020-01-03")
        assert report.dropped_rows == ("2020-01-02",)

    def test_drop_assets(self, tmp_path):
        spec = PriceCsvSpec(path=write(tmp_path, self.MISSING),
                            missing_policy=MissingPolicy.DROP_ASSETS)
        matrix, report = ingest_prices_with_report(spec)
        assert matrix.n_rows == 3
        assert matrix.asset_ids == ("bbb",)
        assert report.dropped_assets == ("aaa",)

    def test_na_markers_treated_as_missing(self, tmp_path):
        text = "date,aaa\n2020-01-01,100\n2020-01-02,NaN\n2020-01-03,101\n"
        spec = PriceCsvSpec(path=write(tmp_path, text),
                            missing_policy=MissingPolicy.DROP_ROWS)
        assert ingest_prices_with_report(spec)[0].n_rows == 2

    def test_everything_dropped_errors(self, tmp_path):
        text = "date,aaa\n2020-01-01,\n2020-01-02,\n2020-01-03,\n"
        with pytest.raises(InsufficientDataError):
            ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, text),
                                                   missing_policy=MissingPolicy.DROP_ROWS))
        with pytest.raises(InsufficientDataError):
            ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, text),
                                                   missing_policy=MissingPolicy.DROP_ASSETS))


class TestMalformedInput:
    def test_unparseable_cell_named(self, tmp_path):
        text = "date,aaa\n2020-01-01,100\n2020-01-02,oops\n"
        with pytest.raises(InvalidInputError) as exc:
            ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, text)))
        assert ":3" in str(exc.value)
        assert "oops" in str(exc.value)

    def test_nonpositive_price_named(self, tmp_path):
        text = "date,aaa\n2020-01-01,100\n2020-01-02,-3\n"
        with pytest.raises(InvalidInputError) as exc:
            ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, text)))
        assert "aaa" in str(exc.value)

    @pytest.mark.parametrize("token", ["inf", "1e400", "-inf", "+nan"])
    def test_non_finite_price_named(self, tmp_path, token):
        text = f"date,aaa,bbb\n2020-01-01,100,50\n2020-01-02,101,{token}\n"
        with pytest.raises(InvalidInputError) as exc:
            ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, text)))
        message = str(exc.value)
        assert ":3:" in message
        assert "column 'bbb'" in message
        assert repr(token) in message

    @pytest.mark.parametrize("good_rows", [1, 3000])
    def test_non_utf8_bytes_named(self, tmp_path, good_rows):
        rows = "".join(f"t{i:05d},100\n" for i in range(good_rows))
        path = tmp_path / "latin1.csv"
        path.write_bytes(f"date,aaa\n{rows}".encode() + b"t99999,1\xff\n")
        with pytest.raises(InvalidInputError, match=r"latin1\.csv: not UTF-8 text"):
            ingest_prices_with_report(PriceCsvSpec(path=str(path)))

    def test_oversized_field_named_by_line(self, tmp_path):
        text = "date,aaa\n2020-01-01,100\n2020-01-02," + "x" * 140_000 + "\n"
        with pytest.raises(InvalidInputError, match=r"\.csv:3: field larger"):
            ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, text)))

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        with pytest.raises(InvalidInputError, match="exactly one character"):
            PriceCsvSpec(path=write(tmp_path, WELL_FORMED), delimiter=delimiter)

    def test_non_monotone_dates(self, tmp_path):
        text = "date,aaa\n2020-01-02,100\n2020-01-01,101\n"
        with pytest.raises(InvalidInputError) as exc:
            ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, text)))
        assert "increasing" in str(exc.value)

    def test_duplicate_dates(self, tmp_path):
        text = "date,aaa\n2020-01-01,100\n2020-01-01,101\n"
        with pytest.raises(InvalidInputError):
            ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, text)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            ingest_prices_with_report(PriceCsvSpec(path=str(tmp_path / "absent.csv")))

    def test_empty_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, "")))

    def test_missing_date_column(self, tmp_path):
        with pytest.raises(InvalidInputError) as exc:
            ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, "aaa,bbb\n1,2\n")))
        assert "date" in str(exc.value)

    def test_duplicate_asset_columns(self, tmp_path):
        text = "date,aaa,aaa\n2020-01-01,1,2\n2020-01-02,2,3\n"
        with pytest.raises(InvalidInputError):
            ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, text)))

    def test_no_asset_columns(self, tmp_path):
        with pytest.raises(InvalidInputError):
            ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, "date\n2020-01-01\n")))

    def test_ragged_row(self, tmp_path):
        text = "date,aaa,bbb\n2020-01-01,1\n"
        with pytest.raises(InvalidInputError):
            ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, text)))

    def test_single_row_insufficient(self, tmp_path):
        text = "date,aaa\n2020-01-01,100\n"
        with pytest.raises(InsufficientDataError):
            ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, text)))


# The third line of a "date,aaa,bbb" CSV, and the error it gives. Only the
# ERROR policy rejects a missing cell; the others drop its row or column.
MISSING = "missing price in column 'bbb'"
BAD_LINES = [
    ("2020-01-02,101,", MISSING),
    ("2020-01-02,101,na", MISSING),
    ("2020-01-02,101,NaN", MISSING),
    ("2020-01-02,101,null", MISSING),
    ("2020-01-02,101,inf", "non-finite price 'inf' in column 'bbb'"),
    ("2020-01-02,101,1e400", "non-finite price '1e400' in column 'bbb'"),
    ("2020-01-02,101,+nan", "non-finite price '+nan' in column 'bbb'"),
    ("2020-01-02,101,-3", "nonpositive price '-3' in column 'bbb'"),
    ("2020-01-02,101,0", "nonpositive price '0' in column 'bbb'"),
    ("2020-01-02,101,abc", "unparseable price 'abc' in column 'bbb'"),
    ("2020-01-02,101", "expected 3 cells, got 2"),
]


@pytest.mark.parametrize("policy", list(MissingPolicy))
@pytest.mark.parametrize("line, message", BAD_LINES)
def test_bad_cell_exact_message(tmp_path, line, message, policy):
    path = write(tmp_path, f"date,aaa,bbb\n2020-01-01,100,50\n{line}\n2020-01-03,102,51\n")
    spec = PriceCsvSpec(path=path, missing_policy=policy)
    if message == MISSING and policy is not MissingPolicy.ERROR:
        matrix, report = ingest_prices_with_report(spec)
        assert report.dropped_rows + report.dropped_assets in (("2020-01-02",), ("bbb",))
        assert not np.isnan(matrix.prices).any()
        return
    with pytest.raises(InvalidInputError) as exc:
        ingest_prices_with_report(spec)
    assert str(exc.value) == f"{path}:3: {message}"


@pytest.mark.parametrize("dates, label", [
    (("2020-01-02", "2020-01-01", "2020-01-03"), "2020-01-01"),
    (("2020-01-01", "2020-01-01", "2020-01-03"), "2020-01-01"),
    (("1999", "2000", "2020-01-05"), "2020-01-05"),
])
def test_date_order_exact_message(tmp_path, dates, label):
    path = write(tmp_path, "date,aaa\n" + "".join(f"{d},100\n" for d in dates))
    with pytest.raises(InvalidInputError) as exc:
        ingest_prices_with_report(PriceCsvSpec(path=path))
    assert str(exc.value) == f"{path}: dates not strictly increasing at {label!r}"


def test_ingest_orders_dates_like_price_matrix(tmp_path):
    dates = ("2020-01-05", "1999", "2000")
    path = write(tmp_path, "date,aaa\n2020-01-05,100\n1999,101\n2000,102\n")
    matrix = ingest_prices_with_report(PriceCsvSpec(path=path))[0]
    direct = PriceMatrix(prices=[[100.0], [101.0], [102.0]], asset_ids=("aaa",),
                         timestamps=dates)
    assert matrix.timestamps == direct.timestamps
    assert matrix.asset_ids == direct.asset_ids
    assert np.array_equal(matrix.prices, direct.prices)


# Whole files and what the per-cell reader makes of them under the ERROR and
# DROP_ROWS policies: the exact error ("{path}" stands for the file), or the
# asset ids, dates, prices and dropped rows. The block reader must give the
# same. Each file is one block, and ``cell_loop`` is how many times
# `_parse_cells` reads it, as an (ERROR, DROP_ROWS) pair where the policies
# differ: loadtxt reads a block whose price cells are numbers, blanks or `nan`
# unless a cell raises; lines split at bare CR as csv splits them; a header
# across lines is read apart from the block; and a file that is not UTF-8 fails
# as its header is read.
HEAD = b"date,aaa,bbb\n2020-01-01,100,50\n"
TAIL = b"\n2020-01-03,102,51\n"
CLEAN = HEAD + b"2020-01-02,101,49" + TAIL
DATES = ("2020-01-01", "2020-01-02", "2020-01-03")
ROWS = [[100.0, 50.0], [101.0, 49.0], [102.0, 51.0]]
PARSED = (("aaa", "bbb"), DATES, ROWS, ())
SECOND_DROPPED = (("aaa", "bbb"), DATES[::2], ROWS[::2], ("2020-01-02",))
SECOND_SKIPPED = (("aaa", "bbb"), DATES[::2], ROWS[::2], ())


def line3(problem):
    return InvalidInputError, "{path}:3: " + problem


def with_cell(cell):
    return HEAD + b"2020-01-02,101," + cell + TAIL


def each_row_ending(suffix):
    header, *rows = CLEAN.splitlines()
    return header + b"\n" + b"".join(row + suffix + b"\n" for row in rows)


def date_at(position):
    lines = [[b"date", b"aaa", b"bbb"]] + [[d.encode(), b"%d" % a, b"%d" % b]
                                           for d, (a, b) in zip(DATES, ROWS)]
    for cells in lines:
        cells.insert(position, cells.pop(0))
    return b"".join(b",".join(cells) + b"\n" for cells in lines)


MISSING_AAA = line3("missing price in column 'aaa'")
MISSING_BBB = line3("missing price in column 'bbb'")
DIFFERENTIAL = [
    # id, file, cell_loop, ERROR result, DROP_ROWS result
    ("clean", CLEAN, False, PARSED, PARSED),
    ("blank", with_cell(b""), (True, False), MISSING_BBB, SECOND_DROPPED),
    ("na", with_cell(b"na"), True, MISSING_BBB, SECOND_DROPPED),
    ("nan", with_cell(b"nan"), (True, False), MISSING_BBB, SECOND_DROPPED),
    ("blank-first-price", HEAD + b"2020-01-02,,49" + TAIL, (True, False), MISSING_AAA,
     SECOND_DROPPED),
    ("blank-line-start", date_at(2).replace(b"101,49,", b",49,"), (True, False), MISSING_AAA,
     SECOND_DROPPED),
    ("blank-before-date", date_at(2).replace(b"101,49,", b"101,,"), (True, False),
     MISSING_BBB, SECOND_DROPPED),
    ("blank-crlf", with_cell(b"").replace(b"\n", b"\r\n"), (True, False), MISSING_BBB,
     SECOND_DROPPED),
    # A blank at the very start or end of a read block, whose line has no other hit.
    ("blank-file-start", date_at(2).replace(b"100,50,", b",50,"), (True, False),
     (InvalidInputError, "{path}:2: missing price in column 'aaa'"),
     (("aaa", "bbb"), DATES[1:], ROWS[1:], ("2020-01-01",))),
    ("blank-file-end", HEAD + b"2020-01-02,101,49\n2020-01-03,102,", (True, False),
     (InvalidInputError, "{path}:4: missing price in column 'bbb'"),
     (("aaa", "bbb"), DATES[:2], ROWS[:2], ("2020-01-03",))),
    # Only price cells read a blank as missing; a row needs its date.
    ("blank-date", HEAD + b"2020-01-02,101,49\n,102,51\n", True,
     *[(InvalidInputError, "{path}:4: missing date")] * 2),
    ("blank-prices", HEAD + b"2020-01-02,," + TAIL, (True, False), MISSING_AAA,
     SECOND_DROPPED),
    ("nan-upper", with_cell(b"NaN"), (True, False), MISSING_BBB, SECOND_DROPPED),
    ("nan-spaced", with_cell(b" nan "), (True, False), MISSING_BBB, SECOND_DROPPED),
    ("nan-minus", with_cell(b"-nan"), True,
     *[line3("non-finite price '-nan' in column 'bbb'")] * 2),
    ("nan-plus", with_cell(b"+nan"), True,
     *[line3("non-finite price '+nan' in column 'bbb'")] * 2),
    ("blank-quoted-line", HEAD + b'2020-01-02,"101",' + TAIL, True, MISSING_BBB,
     SECOND_DROPPED),
    # Errors come in file order, then column order.
    ("blank-then-negative", HEAD + b"2020-01-02,,49\n2020-01-03,-3,51\n", True,
     MISSING_AAA, (InvalidInputError, "{path}:4: nonpositive price '-3' in column 'aaa'")),
    ("negative-then-blank", HEAD + b"2020-01-02,-3,\n2020-01-03,102,51\n", True,
     *[line3("nonpositive price '-3' in column 'aaa'")] * 2),
    ("blank-and-word", HEAD + b"2020-01-02,,abc" + TAIL, True, MISSING_AAA,
     line3("unparseable price 'abc' in column 'bbb'")),
    ("inf", with_cell(b"inf"), True, *[line3("non-finite price 'inf' in column 'bbb'")] * 2),
    ("1e400", with_cell(b"1e400"), True,
     *[line3("non-finite price '1e400' in column 'bbb'")] * 2),
    ("negative", with_cell(b"-3"), True, *[line3("nonpositive price '-3' in column 'bbb'")] * 2),
    ("zero", with_cell(b"0"), True, *[line3("nonpositive price '0' in column 'bbb'")] * 2),
    ("subnormal", with_cell(b"5e-324"), False,
     *[(("aaa", "bbb"), DATES, [ROWS[0], [101.0, 5e-324], ROWS[2]], ())] * 2),
    ("word", with_cell(b"abc"), True, *[line3("unparseable price 'abc' in column 'bbb'")] * 2),
    ("underscore", with_cell(b"1_0"), True,
     *[(("aaa", "bbb"), DATES, [ROWS[0], [101.0, 10.0], ROWS[2]], ())] * 2),
    ("hex", with_cell(b"0x1p3"), True, *[line3("unparseable price '0x1p3' in column 'bbb'")] * 2),
    ("hash", with_cell(b"#49"), True, *[line3("unparseable price '#49' in column 'bbb'")] * 2),
    ("separator-byte", with_cell(b"\x1c49"), True,
     *[line3("unparseable price '\\x1c49' in column 'bbb'")] * 2),
    ("oversized-field", with_cell(b"49." + b"0" * 140_000), True,
     *[line3("field larger than field limit (131072)")] * 2),
    ("short-row", HEAD + b"2020-01-02,101" + TAIL, True, *[line3("expected 3 cells, got 2")] * 2),
    ("extra-cell", each_row_ending(b",7"), True,
     *[(InvalidInputError, "{path}:2: expected 3 cells, got 4")] * 2),
    ("trailing-delimiter", each_row_ending(b","), True,
     *[(InvalidInputError, "{path}:2: expected 3 cells, got 4")] * 2),
    ("quoted-cell", HEAD + b'2020-01-02,"101",49' + TAIL, False, PARSED, PARSED),
    ("quoted-date", HEAD + b'"2020-01-02",101,49' + TAIL, False, PARSED, PARSED),
    ("mid-field-quote", HEAD + b'2020-01-02,1"01,49' + TAIL, True,
     *[line3("unparseable price '1\"01' in column 'aaa'")] * 2),
    ("line-end-in-date", CLEAN + b'"2020-01-04\r\nx",103,52\n', True,
     *[(("aaa", "bbb"), DATES + ("2020-01-04\r\nx",), ROWS + [[103.0, 52.0]], ())] * 2),
    # Split at LF alone, this file has one line per row.
    ("line-end-in-date-cr", b'date,aaa\n2020-01-01,100\r"2020-01-02\r\nx",101\n', True,
     *[(("aaa",), ("2020-01-01", "2020-01-02\r\nx"), [[100.0], [101.0]], ())] * 2),
    ("all-blank-row", HEAD + b",," + TAIL, True, SECOND_SKIPPED, SECOND_SKIPPED),
    ("whitespace-line", HEAD + b"  \t" + TAIL, True, SECOND_SKIPPED, SECOND_SKIPPED),
    ("crlf", CLEAN.replace(b"\n", b"\r\n"), False, PARSED, PARSED),
    ("bare-cr", CLEAN.replace(b"\n", b"\r"), False, PARSED, PARSED),
    # A leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write, is dropped.
    ("bom", b"\xef\xbb\xbf" + date_at(1), False, PARSED, PARSED),
    ("bom-date-first", b"\xef\xbb\xbf" + CLEAN, False, PARSED, PARSED),
    # Python 3.10's csv.reader rejects NUL and later ones keep it; ingest rejects it on all.
    ("nul-in-date", HEAD + b"2020-01-02\x00,101,49" + TAIL, True,
     *[line3("line contains NUL")] * 2),
    ("nul-in-price", with_cell(b"4\x009"), True, *[line3("line contains NUL")] * 2),
    ("nul-in-header", CLEAN.replace(b"bbb", b"b\x00b"), False,
     *[(InvalidInputError, "{path}:1: line contains NUL")] * 2),
    ("latin-1", with_cell(b"4\xe9"), False,
     *[(InvalidInputError, "{path}: not UTF-8 text (invalid continuation byte)")] * 2),
    ("header-only", b"date,aaa,bbb\n", False,
     *[(InsufficientDataError, "{path}: 0 usable rows after drops, need at least 2")] * 2),
    ("blank-lines-only", b"date,aaa,bbb\n\n\n", True,
     *[(InsufficientDataError, "{path}: 0 usable rows after drops, need at least 2")] * 2),
    ("blank-first-line", CLEAN.replace(b"bbb\n", b"bbb\n\n"), True, PARSED, PARSED),
    # The header is the first csv record, here across two lines; read alone, line 2
    # would be a row with date 'date"' and prices 1 and 2.
    ("multi-line-header", CLEAN.replace(b"date,aaa,bbb", b'"\ndate",1,2'), False,
     *[(("1", "2"), DATES, ROWS, ())] * 2),
    ("one-row", HEAD, False,
     *[(InsufficientDataError, "{path}: 1 usable rows after drops, need at least 2")] * 2),
    ("date-last", date_at(2), False, PARSED, PARSED),
    ("date-middle", date_at(1), False, PARSED, PARSED),
]


@pytest.fixture
def cell_loop_calls(monkeypatch):
    """How many times ingest fell back to the per-cell loop."""
    calls = []
    cell_loop = ingest._parse_cells

    def counted(*args, **kwargs):
        calls.append(args)
        return cell_loop(*args, **kwargs)

    monkeypatch.setattr(ingest, "_parse_cells", counted)
    return calls


@pytest.mark.parametrize("policy", [MissingPolicy.ERROR, MissingPolicy.DROP_ROWS])
@pytest.mark.parametrize("data, cell_loop, results",
                         [pytest.param(data, cell_loop, results, id=name)
                          for name, data, cell_loop, *results in DIFFERENTIAL])
def test_differential_table(tmp_path, cell_loop_calls, data, cell_loop, results, policy):
    path = tmp_path / "prices.csv"
    path.write_bytes(data)
    spec = PriceCsvSpec(path=str(path), missing_policy=policy)
    expected = results[policy is MissingPolicy.DROP_ROWS]
    if isinstance(expected[0], type):
        with pytest.raises(expected[0]) as exc:
            ingest_prices_with_report(spec)
        assert str(exc.value) == expected[1].format(path=path)
    else:
        matrix, report = ingest_prices_with_report(spec)
        assets, dates, rows, dropped = expected
        assert (matrix.asset_ids, matrix.timestamps) == (assets, dates)
        assert matrix.prices.tobytes() == np.array(rows, dtype=float).tobytes()
        assert matrix.prices.shape == (len(dates), len(assets))
        assert matrix.prices.flags.c_contiguous
        assert (report.dropped_rows, report.dropped_assets) == (dropped, ())
    if isinstance(cell_loop, tuple):
        cell_loop = cell_loop[policy is MissingPolicy.DROP_ROWS]
    assert len(cell_loop_calls) == cell_loop


@pytest.mark.parametrize("policy", list(MissingPolicy))
@pytest.mark.parametrize("data", [HEAD + b",101,49" + TAIL, HEAD + b"  ,101,49" + TAIL,
                                  HEAD + b",,49" + TAIL,
                                  date_at(2).replace(b"2020-01-02", b"")],
                         ids=["blank", "spaces", "price-blank-too", "date-last"])
def test_blank_date_names_its_line(tmp_path, policy, data):
    path = tmp_path / "prices.csv"
    path.write_bytes(data)
    with pytest.raises(InvalidInputError) as exc:
        ingest_prices_with_report(PriceCsvSpec(path=str(path), missing_policy=policy))
    assert str(exc.value) == f"{path}:3: missing date"


@pytest.mark.parametrize("delimiter", [";", "\t", " ", "|", '"'])
def test_delimiters(tmp_path, cell_loop_calls, delimiter):
    path = tmp_path / "prices.csv"
    path.write_bytes(CLEAN.replace(b",", delimiter.encode()))
    matrix, _ = ingest_prices_with_report(PriceCsvSpec(path=str(path), delimiter=delimiter))
    assert (matrix.asset_ids, matrix.timestamps, matrix.prices.tolist()) == PARSED[:3]
    # loadtxt rejects a delimiter equal to its quote character.
    assert len(cell_loop_calls) == (delimiter == '"')


def test_clean_file_parsed_in_one_loadtxt_call(tmp_path, cell_loop_calls, monkeypatch):
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
    ingest_prices_with_report(PriceCsvSpec(path=write(tmp_path, WELL_FORMED)))
    assert len(calls) == 1
    assert cell_loop_calls == []


def test_missing_cells_parsed_in_one_loadtxt_call_per_block(tmp_path, monkeypatch):
    prices, _ = block_factor_market((5, 4, 3), 300, seed=2)
    path = tmp_path / "prices.csv"
    write_prices_csv(path, prices)
    lines = path.read_text().splitlines(keepends=True)
    for line_no, cell in ((11, ""), (151, "nan"), (152, "")):
        cells = lines[line_no].rstrip("\n").split(",")
        cells[1 + line_no % prices.n_assets] = cell
        lines[line_no] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    calls, read, rewritten = [], [], []
    loadtxt, cell_loop, blanks_to_nan = np.loadtxt, ingest._parse_cells, ingest._blanks_to_nan

    def rewrite(line, *args):
        new = blanks_to_nan(line, *args)
        if new != line:
            rewritten.append(line)
        return new

    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
    monkeypatch.setattr(ingest, "_blanks_to_nan", rewrite)

    def counted(rows, *args):
        rows = list(rows)
        read.append(len(rows))
        return cell_loop(rows, *args)

    monkeypatch.setattr(ingest, "_parse_cells", counted)
    matrix, report = ingest_prices_with_report(
        PriceCsvSpec(path=str(path), missing_policy=MissingPolicy.DROP_ROWS))
    # The file spans two 64 KiB blocks.
    assert len(calls) == 2 and sum(len(rows) for rows, *_ in calls) == prices.n_rows
    assert read == []
    # Only the two lines holding a blank are rewritten, not their whole blocks.
    assert rewritten == [lines[11], lines[152]]
    dropped = [10, 150, 151]
    assert report.dropped_rows == tuple(prices.timestamps[i] for i in dropped)
    assert matrix.prices.tobytes() == np.delete(prices.prices, dropped, axis=0).tobytes()


@pytest.mark.parametrize("cell", [b"4\x009", b"\x1d49", b"49\x1f"])
def test_control_bytes_take_the_cell_loop(tmp_path, cell_loop_calls, cell):
    path = tmp_path / "prices.csv"
    path.write_bytes(with_cell(cell))
    with pytest.raises(InvalidInputError):
        ingest_prices_with_report(PriceCsvSpec(path=str(path)))
    assert len(cell_loop_calls) == 1


def test_one_pass_and_cell_loop_agree(tmp_path, cell_loop_calls):
    prices, _ = block_factor_market((5, 4, 3), 300, seed=2)
    clean = tmp_path / "clean.csv"
    write_prices_csv(clean, prices)
    lines = clean.read_text().splitlines(keepends=True)
    padded = tmp_path / "padded.csv"
    padded.write_text("".join(lines[:150]) + "," * prices.n_assets + "\n" + "".join(lines[150:]))
    results = [ingest_prices_with_report(PriceCsvSpec(path=str(p))) for p in (clean, padded)]
    assert len(cell_loop_calls) == 1
    (fast, fast_report), (slow, slow_report) = results
    assert fast.prices.tobytes() == slow.prices.tobytes() == prices.prices.tobytes()
    assert fast.timestamps == slow.timestamps == prices.timestamps
    assert fast.asset_ids == slow.asset_ids == prices.asset_ids
    assert fast_report == slow_report


# Price cells the one-pass parser and the per-cell loop must read alike.
ODD_CELLS = ["", "nan", "NaN", "-nan", "na", "null", "inf", "-3", "0", "abc", '"12.5"']


@st.composite
def price_files(draw):
    n_assets = draw(st.integers(1, 4))
    date_idx = draw(st.integers(0, n_assets))
    cell = st.one_of(st.floats(0.01, 1e4).map(repr), st.sampled_from(ODD_CELLS))
    rows = [["aaa", "bbb", "ccc", "ddd"][:n_assets]]
    rows += [[draw(cell) for _ in range(n_assets)] for _ in range(draw(st.integers(1, 5)))]
    for t, row in enumerate(rows):
        row.insert(date_idx, draw(st.sampled_from([f"2020-01-{t:02d}", ""])) if t else "date")
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(",".join(row) + ending for row in rows)


def ingest_outcome(path, policy, ingest_with_report=ingest_prices_with_report):
    """What ingesting ``path`` gives: the matrix bytes, labels and report, or the error."""
    try:
        matrix, report = ingest_with_report(PriceCsvSpec(path=str(path), missing_policy=policy))
    except PortfolioCutError as exc:
        return type(exc), str(exc)
    return (matrix.prices.tobytes(), matrix.prices.shape, matrix.timestamps,
            matrix.asset_ids, report)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=price_files())
def test_one_pass_matches_cell_loop(tmp_path, text):
    path = tmp_path / "prices.csv"
    path.write_bytes(text.encode())
    for policy in MissingPolicy:
        assert ingest_outcome(path, policy) == ingest_outcome(path, policy, reference_ingest)


# Files of 2300 32-character lines, two 64 KiB blocks, with one odd shape just
# before, on or just after the end of the first block: its lines, given the
# date of the row it stands in for.
BLOCK = 1 << 16
ODD_SHAPES = {
    "na": lambda date: [f"{date},na,50.5\n"],
    "all-blank-row": lambda date: [",,\n"],
    "blank-line": lambda date: ["\n"],
    "bare-cr": lambda date: [f"{date}a,1.5,2.5\r", f"{date}b,1.5,2.5\r"],
    "quoted-crlf-date": lambda date: [f'"{date}\r\n', 'x",1.5,2.5\n'],
    "quoted-crlf-price": lambda date: [f'{date},1.5,"2.5\r\n', '"\n'],
    "oversized-field": lambda date: [f"{date},1.5,2.{'0' * 140_000}5\n"],
    "nul": lambda date: [f"{date},1.5,2\x005\n"],
}


def boundary_file(shape, where, late_error):
    """The file's lines and the first record number of the block holding the odd shape.

    The first row's first price is padded so that the first block ends right
    after the line after the shape ("before"), its first line ("on") or the
    line before it ("after"). A late error, if any, is a negative price in the
    last block.
    """
    lines = ["date,aaa,bbb\n"] + [
        f"d{t:06d},{1000 + t % 9000:5d}.{t % 10 ** 5:05d},"
        f"{100 + t % 900:5d}.{t * 7 % 10 ** 5:05d}\n" for t in range(2300)]
    at = 1800
    odd = ODD_SHAPES[shape](f"d{at:06d}")
    lines[at + 1:at + 2] = odd
    if late_error:
        lines[-50] = lines[-50].split(",")[0] + ",-3,1.5\n"
    last = {"before": at + len(odd) + 1, "on": at + 1, "after": at}[where]
    pad = BLOCK - sum(map(len, lines[1:last + 1]))
    if pad > 0:
        lines[1] = lines[1].replace(".", "." + "0" * pad, 1)
    sizes = list(itertools.accumulate(map(len, lines[1:])))
    assert sizes[last - 2] < BLOCK <= sizes[last - 1], "the first block must end at `last`"
    return lines, 2 if where != "after" else at + 2


@pytest.fixture
def cell_rows(monkeypatch):
    """The record numbers `_parse_cells` reads, one list per call."""
    calls, parse = [], ingest._parse_cells

    def spied(rows_in, *args):
        calls.append([])

        def numbered():
            for line_no, row in rows_in:
                calls[-1].append(line_no)
                yield line_no, row
        return parse(numbered(), *args)

    monkeypatch.setattr(ingest, "_parse_cells", spied)
    return calls


@pytest.mark.parametrize("late_error", [False, True], ids=["", "late-error"])
@pytest.mark.parametrize("policy", [MissingPolicy.ERROR, MissingPolicy.DROP_ROWS])
@pytest.mark.parametrize("shape, where", [
    (shape, where) for shape in ODD_SHAPES for where in ("before", "on", "after")
    if (shape, where) != ("oversized-field", "before")])
def test_block_boundaries(tmp_path, cell_rows, shape, where, policy, late_error):
    lines, first_record = boundary_file(shape, where, late_error)
    path = tmp_path / "prices.csv"
    path.write_bytes("".join(lines).encode())
    # A late error checks that records are numbered on past the shape.
    assert ingest_outcome(path, policy) == ingest_outcome(path, policy, reference_ingest)
    if late_error:
        return
    # The cell function reads the rows of the block holding the shape, and no other.
    assert len(cell_rows) == (shape != "bare-cr")
    if cell_rows:
        read = cell_rows[0]
        assert read == list(range(first_record, first_record + len(read)))
        assert len(read) <= BLOCK // 32 + 1


@pytest.mark.parametrize("lines_at", [
    {100: b"d000100,-3,2.5\n", 1200: b"d001200,\xe9,2.5\n"},
    {100: b"d000100,-3,2.5\n", 110: b"d000110,\xe9,2.5\n"},
    {100: b"d000100,\xe9,2.5\n", 1200: b"d001200,-3,2.5\n"},
    {600: b'd000600,"1.5\n', 601: b" " * 10_000 + b'\xe9",2.5\n'},
], ids=["row-error-chunks-before", "same-chunk", "decode-error-first", "in-a-record"])
def test_non_utf8_bytes_raise_as_the_cell_loop(tmp_path, lines_at):
    # Text is decoded 8 KiB at a time, so rows in earlier chunks are read first.
    lines = [b"date,aaa,bbb\n"] + [b"d%06d,1.5,2.5\n" % t for t in range(1, 1300)]
    for at, line in lines_at.items():
        lines[at] = line
    path = tmp_path / "prices.csv"
    path.write_bytes(b"".join(lines))
    for policy in MissingPolicy:
        assert ingest_outcome(path, policy) == ingest_outcome(path, policy, reference_ingest)
