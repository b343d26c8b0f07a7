import numpy as np
import pytest

from portcut import (
    InsufficientDataError,
    InvalidInputError,
    MissingPolicy,
    PriceCsvSpec,
    PriceMatrix,
    ingest_prices_with_report,
)


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
