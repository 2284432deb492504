import datetime as dt
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import sectorport.market_data as md
from sectorport.config import SectorUniverse
from sectorport.market_data import (
    CSV_HEADER,
    TRADING_DAYS,
    CsvFormatError,
    align,
    asset_stats,
    daily_returns,
    parse_csv,
)

from conftest import csv_text, series_csv, series_from_closes, series_on, weekdays

COLUMNS = ("dates", "closes")


# ---------------------------------------------------------------- parse_csv

def test_parse_minimal():
    text = csv_text([("2020-01-02", 1, 2, 0.5, 1.5, 100, 1.5)])
    series = parse_csv(text, "X")
    assert len(series.dates) == 1
    assert series.closes[0] == 1.5
    assert series.dates[0] == np.datetime64("2020-01-02")


def test_parse_rejects_low_above_high():
    text = csv_text([("2020-01-02", 1, 2, 3, 1.5, 100, 1.5)])
    with pytest.raises(CsvFormatError, match="line 2"):
        parse_csv(text, "X")


FLOAT_COLUMNS = {"open": 1, "high": 2, "low": 3, "close": 4, "adj_close": 6}
NON_FINITE = ["nan", "NaN", "inf", "-inf", "+inf", "Infinity", "-Infinity", "1e999"]


def _rows_with(value, column, at, n=3):
    rows = [[f"2020-01-0{2 + i}", 1, 2, 0.5, 1.5, 100, 1.5] for i in range(n)]
    rows[at][FLOAT_COLUMNS[column]] = value
    return rows


@pytest.mark.parametrize("column", sorted(FLOAT_COLUMNS))
def test_parse_rejects_nan_in_every_float_column(column):
    with pytest.raises(CsvFormatError, match=rf"line 3: invalid bar \({column} nan is not finite\)"):
        parse_csv(csv_text(_rows_with("nan", column, at=1)), "X")


@given(
    st.integers(min_value=1, max_value=6),
    st.data(),
)
@settings(max_examples=60)
def test_non_finite_value_in_any_float_column_is_rejected(n, data):
    at = data.draw(st.integers(min_value=0, max_value=n - 1), label="row")
    column = data.draw(st.sampled_from(sorted(FLOAT_COLUMNS)), label="column")
    value = data.draw(st.sampled_from(NON_FINITE), label="value")
    text = csv_text(_rows_with(value, column, at, n))
    with pytest.raises(CsvFormatError, match=rf"line {at + 2}: invalid bar \({column} "):
        parse_csv(text, "X")


def test_parse_rejects_volume_beyond_int64():
    text = csv_text([("2020-01-02", 1, 2, 0.5, 1.5, 100, 1.5), ("2020-01-03", 1, 2, 0.5, 1.5, 2**63, 1.5)])
    with pytest.raises(CsvFormatError, match="line 3: volume 9223372036854775808 is out of range"):
        parse_csv(text, "X")


def test_parse_synthetic_five_year_fixture():
    # 1258 weekday rows spanning 2016..2020, built by the test itself
    dates = [d for d in weekdays(dt.date(2016, 1, 1), 1258)]
    assert dates[-1] <= dt.date(2020, 12, 31)
    rows = [(d.isoformat(), 10, 11, 9, 10 + i % 7 * 0.1, 500, 10) for i, d in enumerate(dates)]
    series = parse_csv(csv_text(rows), "FIX")
    assert len(series.dates) == 1258


def test_parse_reports_malformed_line_number():
    text = csv_text(
        [
            ("2020-01-02", 1, 2, 0.5, 1.5, 100, 1.5),
            ("2020-01-03", 1, 2, 0.5, "oops", 100, 1.5),
        ]
    )
    with pytest.raises(CsvFormatError, match="line 3"):
        parse_csv(text, "X")


# Python 3.11's date.fromisoformat reads these (the last two as 2016-01-04); 3.10 does not.
NOT_YYYY_MM_DD = ["20160101", "2016-W01-1", "2016W011"]


@pytest.mark.parametrize("date", NOT_YYYY_MM_DD)
def test_parse_accepts_only_yyyy_mm_dd_dates(date):
    text = csv_text(
        [
            ("2015-12-31", 1, 2, 0.5, 1.5, 100, 1.5),
            (date, 1, 2, 0.5, 1.5, 100, 1.5),
        ]
    )
    with pytest.raises(CsvFormatError, match=f"line 3: malformed row: .*{date}"):
        parse_csv(text, "X")


def test_invalid_bar_above_a_malformed_line_is_reported_first():
    text = csv_text(
        [
            ("2020-01-02", 1, 2, 3, 1.5, 100, 1.5),  # low > high
            ("2020-01-03", 1, 2, 0.5, "oops", 100, 1.5),
        ]
    )
    with pytest.raises(CsvFormatError, match=r"line 2: invalid bar \(low 3.0 > high 2.0\)"):
        parse_csv(text, "X")


def test_invalid_bar_above_an_out_of_range_volume_is_reported_first():
    text = csv_text([("2020-01-02", 1, 2, 3, 1.5, 100, 1.5), ("2020-01-03", 1, 2, 0.5, 1.5, 2**63, 1.5)])
    with pytest.raises(CsvFormatError, match=r"line 2: invalid bar \(low 3.0 > high 2.0\)"):
        parse_csv(text, "X")


def test_parse_rejects_wrong_field_count():
    with pytest.raises(CsvFormatError, match="line 2"):
        parse_csv(CSV_HEADER + "\n2020-01-02,1,2\n", "X")


def test_parse_rejects_bad_header():
    with pytest.raises(CsvFormatError, match="header"):
        parse_csv("date,close\n2020-01-02,1\n", "X")


def test_parse_rejects_duplicate_dates():
    text = csv_text(
        [
            ("2020-01-02", 1, 2, 0.5, 1.5, 100, 1.5),
            ("2020-01-02", 1, 2, 0.5, 1.6, 100, 1.6),
        ]
    )
    with pytest.raises(CsvFormatError, match="duplicate date"):
        parse_csv(text, "X")


def _rows_of(closes, start=dt.date(2020, 1, 1)):
    return [(d.isoformat(), c, c, c / 2, c, 100, c) for d, c in zip(weekdays(start, len(closes)), closes)]


@given(
    st.lists(st.floats(min_value=1.0, max_value=1.9), min_size=3, max_size=12),
    st.data(),
)
@settings(max_examples=80)
def test_a_close_that_spikes_and_comes_back_is_rejected(calm, data):
    # closes within a factor of 1.9 of each other hold no spike; one interior close moved beyond a
    # factor of 2 from both neighbours, up or down, is named by its line, date, close and both neighbours
    closes = [c * 100 for c in calm]
    at = data.draw(st.integers(1, len(closes) - 2), label="row")
    factor = data.draw(st.floats(min_value=2.0, max_value=1e12, exclude_min=True), label="factor")
    up = data.draw(st.booleans(), label="up")
    neighbours = closes[at - 1], closes[at + 1]
    closes[at] = max(neighbours) * factor if up else min(neighbours) / factor
    rows = _rows_of(closes)
    assert len(parse_csv(csv_text(_rows_of(calm)), "X").dates) == len(calm)
    message = (
        rf"^X: line {at + 2}: close {re.escape(repr(closes[at]))} on {rows[at][0]} spikes against the closes "
        rf"{re.escape(repr(neighbours[0]))} and {re.escape(repr(neighbours[1]))} either side"
    )
    with pytest.raises(CsvFormatError, match=message):
        parse_csv(csv_text(rows), "X")


@given(
    st.lists(st.floats(min_value=1.0, max_value=1.9), min_size=2, max_size=12),
    st.data(),
)
@settings(max_examples=80)
def test_a_step_change_is_accepted(calm, data):
    # a jump, up or down by any factor, that does not come back is a change of level, not a spike
    at = data.draw(st.integers(1, len(calm) - 1), label="row")
    factor = data.draw(st.sampled_from([1e-12, 1e-3, 0.1, 10.0, 1e3, 1e12]), label="factor")
    closes = [c * 100 * (factor if i >= at else 1.0) for i, c in enumerate(calm)]
    series = parse_csv(csv_text(_rows_of(closes)), "X")
    assert series.closes.tolist() == closes


def test_spike_is_named_at_its_line_and_dates_are_its_neighbours():
    # the neighbours are the bars before and after in date order, not the lines above and below
    rows = _rows_of([10.0, 25.0, 11.0, 12.0])
    text = csv_text([rows[2], rows[0], rows[3], rows[1]])
    message = r"^X: line 5: close 25\.0 on 2020-01-02 spikes against the closes 10\.0 and 11\.0 either side"
    with pytest.raises(CsvFormatError, match=message):
        parse_csv(text, "X")


def test_spike_check_near_the_float64_maximum_raises_no_overflow():
    # pyproject makes a RuntimeWarning an error, so doubling 1e308 would fail here rather than report
    assert len(parse_csv(csv_text(_rows_of([1e308, 1.5e308, 1.7e308])), "X").dates) == 3
    with pytest.raises(CsvFormatError, match="line 3: close 1e\\+308 on 2020-01-02 spikes"):
        parse_csv(csv_text(_rows_of([1e300, 1e308, 1e300])), "X")


def test_parse_sorts_unordered_rows():
    text = csv_text(
        [
            ("2020-01-03", 1, 2, 0.5, 1.6, 100, 1.6),
            ("2020-01-02", 1, 2, 0.5, 1.5, 100, 1.5),
        ]
    )
    series = parse_csv(text, "X")
    assert [d.day for d in series.dates.tolist()] == [2, 3]


def test_parse_rejects_empty_document():
    with pytest.raises(CsvFormatError):
        parse_csv(CSV_HEADER + "\n", "X")


def test_parse_accepts_bytes():
    text = csv_text([("2020-01-02", 1, 2, 0.5, 1.5, 100, 1.5)])
    assert len(parse_csv(text.encode(), "X").dates) == 1


GOOD_ROW = ("2020-01-02", 1, 2, 0.5, 1.5, 100, 1.5)
BAD_DOCUMENTS = {
    "header": "date,close\n2020-01-02,1\n",
    "field count": CSV_HEADER + "\n2020-01-02,1,2\n",
    "malformed row": csv_text([GOOD_ROW, ("2020-01-03", 1, 2, 0.5, "x1", 100, 1.5)]),
    "invalid bar": csv_text([("2020-01-02", 1, 2, 3, 1.5, 100, 1.5)]),
    "volume range": csv_text([GOOD_ROW, ("2020-01-03", 1, 2, 0.5, 1.5, 2**63, 1.5)]),
    "duplicate date": csv_text([GOOD_ROW, GOOD_ROW]),
    "no rows": CSV_HEADER + "\n",
    "not utf-8": csv_text([GOOD_ROW]).encode() + b"\xff\n",
}


@pytest.mark.parametrize("document", BAD_DOCUMENTS.values(), ids=BAD_DOCUMENTS.keys())
def test_every_parse_error_starts_with_the_symbol(document):
    with pytest.raises(CsvFormatError) as exc:
        parse_csv(document, "ZZZ")
    assert str(exc.value).startswith("ZZZ: ")


@pytest.mark.parametrize("line", [1, 2, 4])
def test_undecodable_bytes_are_a_format_error_naming_symbol_and_line(line):
    rows = [GOOD_ROW, ("2020-01-03", 1, 2, 0.5, 1.5, 100, 1.5), ("2020-01-06", 1, 2, 0.5, 1.5, 100, 1.5)]
    lines = csv_text(rows).encode().split(b"\n")
    lines[line - 1] = lines[line - 1][:5] + b"\xff" + lines[line - 1][5:]
    with pytest.raises(CsvFormatError, match=rf"^ZZZ: line {line}: .*0xff"):
        parse_csv(b"\n".join(lines), "ZZZ")


# ---------------------------------------------- parse_csv: columnar fast path
#
# parse_csv converts whole columns at once (_columns_at_once) and falls back
# to the per-line loop (_columns_by_line) whenever that returns None. The
# fast path must accept exactly what the loop accepts, with equal columns.

DATE_TRAPS = [
    "20160101", "2016-W01-1", "2016W011", "NaT", "nat", "", "today", "0000-01-01", "-001-01-01",
    "+2016-01-04", " 2016-01-04", "2016-01-04T00", "2016-01", "2016-02-30", "10000-01-01",
]
PRICE_TRAPS = [
    "1_000", " 1.5", "0x1p3", "+inf", "Infinity", "-Infinity", "1e999", "nan", "-1", "١٢", "", "x1",
]
VOLUME_TRAPS = ["1_000", " 7", "1.5", "-3", "١٢", str(2**63), str(-(2**63) - 1), "0x10", ""]


@st.composite
def _row_fields(draw, prices=st.floats(min_value=0.01, max_value=1e6)):
    date = draw(st.dates(dt.date(1, 1, 1), dt.date(9999, 12, 31))).isoformat()
    price = draw(prices)
    volume = draw(st.integers(0, 2**63 - 1))
    return [date, repr(price), repr(2 * price), repr(price / 2), repr(price), str(volume), repr(price)]


@st.composite
def _trap_lines(draw):
    """One or two body lines holding one thing the fast path must not get wrong."""
    fields = draw(_row_fields())
    kind = draw(st.sampled_from(["date", "number", "blank", "realigning pair", "field count"]))
    if kind == "date":
        fields[0] = draw(st.sampled_from(DATE_TRAPS))
    elif kind == "number":
        k = draw(st.integers(1, 6))
        fields[k] = draw(st.sampled_from(VOLUME_TRAPS if k == 5 else PRICE_TRAPS))
    elif kind == "blank":
        return [draw(st.sampled_from(["", " ", "\t"]))]
    elif kind == "realigning pair":
        # A valid row plus the next row's date, then that row's other six fields:
        # splitting the body flat would realign these into two valid rows.
        second = draw(_row_fields())
        return [",".join(fields + second[:1]), ",".join(second[1:])]
    else:
        fields = fields[: draw(st.sampled_from([1, 6, 8]))]
    return [",".join(fields)]


@st.composite
def csv_documents(draw):
    """Price CSV text: valid rows with up to two trap lines among them. In half the documents the rows'
    prices lie within a factor of 1.99 of each other, so that no close spikes."""
    low = draw(st.floats(min_value=0.01, max_value=1e6))
    prices = draw(st.sampled_from([st.floats(min_value=0.01, max_value=1e6), st.floats(low, 1.99 * low)]))
    lines = [",".join(draw(_row_fields(prices))) for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = draw(_trap_lines())
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join([CSV_HEADER, *lines]) + draw(st.sampled_from([eol, ""]))


def _body(text):
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines[1:]


def _outcome(text):
    """The parsed columns, or the error message."""
    try:
        series = parse_csv(text, "D")
    except CsvFormatError as exc:
        return str(exc)
    return [getattr(series, name) for name in COLUMNS]


def _assert_same_columns(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(csv_documents())
@settings(max_examples=400)
def test_fast_path_agrees_with_the_per_line_loop(text):
    fast = md._columns_at_once(_body(text))
    event("fast path" if fast is not None else "deferred")
    if fast is not None:
        columns, linenos, malformed = md._columns_by_line(_body(text))
        assert malformed is None and list(fast[1]) == linenos
        _assert_same_columns(list(fast[0].values()), list(columns.values()))
    outcome = _outcome(text)
    with mock.patch.object(md, "_columns_at_once", return_value=None):
        reference = _outcome(text)
    if isinstance(reference, str):
        assert outcome == reference
    else:
        _assert_same_columns(outcome, reference)


def test_fast_path_takes_a_clean_document():
    series = series_from_closes("X", [1.5, 2.25, 1e-300, 7e20])
    for eol in ("\n", "\r\n"):
        body = _body(series_csv(series).replace("\n", eol))
        fast = md._columns_at_once(body)
        assert fast is not None
        _assert_same_columns(list(fast[0].values()), list(md._columns_by_line(body)[0].values()))
        _assert_same_columns([fast[0]["date"], fast[0]["close"]], [series.dates, series.closes])


TRAP_LINES = [f"{date},1,2,0.5,1.5,100,1.5" for date in DATE_TRAPS] + [
    "2020-01-06,1,2,0.5,0x1p3,100,1.5",
    "2020-01-06,1,2,0.5,1.5,1.5,1.5",
    "2020-01-06,1,2,0.5,1.5,9223372036854775808,1.5",
    "",
    " ",
    "2020-01-06,1,2,0.5,1.5,100",
    "2020-01-06,1,2,0.5,1.5,100,1.5,2020-01-07\n1,2,0.5,1.5,100,1.5",
]


@pytest.mark.parametrize("line", TRAP_LINES)
def test_fast_path_defers_on_each_trap(line):
    assert md._columns_at_once(["2020-01-02,1,2,0.5,1.5,100,1.5", *line.split("\n")]) is None


PYTHON_NUMBERS = ["1_000,2,0.5,1.5,1_000", " 1.5,2,0.5,1.5, 7", "١٢,2,0.5,+inf,١٢", "1,Infinity,0.5,1e999,100"]


@pytest.mark.parametrize("fields", PYTHON_NUMBERS)
def test_fast_path_reads_numbers_as_python_does(fields):
    body = ["2020-01-02,1,2,0.5,1.5,100,1.5", f"2020-01-03,{fields},1.5"]
    fast = md._columns_at_once(body)
    columns, _, malformed = md._columns_by_line(body)
    assert fast is not None and malformed is None
    _assert_same_columns(list(fast[0].values()), list(columns.values()))


# ----------------------------------------------------------- serialization

@st.composite
def price_series_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    start = dt.date(2018, 1, 1) + dt.timedelta(days=draw(st.integers(0, 1000)))
    prices = [draw(st.floats(min_value=0.01, max_value=1e6))]
    for _ in range(n - 1):  # a step of less than 2x either way can make no spike
        prices.append(prices[-1] * draw(st.floats(min_value=0.6, max_value=1.6)))
    return series_on("HYP", weekdays(start, n), prices)


@given(price_series_strategy())
@settings(max_examples=50)
def test_csv_round_trip(series):
    parsed = parse_csv(series_csv(series), series.symbol)
    assert parsed.symbol == series.symbol
    for name in COLUMNS:
        assert np.array_equal(getattr(parsed, name), getattr(series, name)), name


# ------------------------------------------------------------ daily_returns

@pytest.mark.parametrize(
    "closes,expected",
    [
        ([100, 110, 99], [0.10, -0.10]),
        ([5, 5, 5], [0.0, 0.0]),
        ([2, 4, 3], [1.0, -0.25]),
    ],
)
def test_daily_returns_hand_cases(closes, expected):
    assert daily_returns(np.array(closes, dtype=float)) == pytest.approx(expected)


def test_daily_returns_needs_two_bars():
    with pytest.raises(ValueError, match="at least 2"):
        daily_returns(np.array([5.0]))


def test_daily_returns_dates_align_to_second_bar():
    # return i carries bar i to bar i+1, so there is one for each bar from the second on
    closes = np.array([1.0, 2.0, 3.0])
    rets = daily_returns(closes)
    assert len(rets) == len(closes) - 1
    np.testing.assert_allclose(closes[:-1] * (1.0 + rets), closes[1:], rtol=1e-15)


def test_daily_returns_of_a_matrix_are_the_returns_of_its_columns():
    closes = np.column_stack([[100.0, 103.0, 99.0, 104.0], [7.0, 7.5, 7.25, 8.0]])
    rets = daily_returns(closes)
    assert rets.shape == (3, 2)
    for j in range(2):
        np.testing.assert_array_equal(rets[:, j], daily_returns(closes[:, j]))


@given(
    st.floats(min_value=0.1, max_value=1e4),
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=60),
)
def test_cumulative_product_recovers_price_ratio(initial, factors):
    # successive-day ratios bounded to [0.1, 10]: the identity degrades only
    # under astronomical one-day moves where 1+r cancels catastrophically
    closes = initial * np.cumprod([1.0] + factors)
    recovered = np.prod(1.0 + daily_returns(closes))
    assert recovered == pytest.approx(closes[-1] / closes[0], rel=1e-10)


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=40,
    ),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_returns_are_scale_free(closes, k):
    base = daily_returns(np.array(closes))
    scaled = daily_returns(np.array([c * k for c in closes]))
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


# -------------------------------------------------------------- asset_stats

def test_asset_stats_zero_returns():
    _, daily, annual = asset_stats(daily_returns(np.array([5.0, 5.0, 5.0, 5.0])))
    assert daily == 0.0
    assert annual == 0.0


def test_asset_stats_two_point_sample_std():
    # returns +1% then -1%: sample std = sqrt(2)*0.01, annual = sqrt(0.05)
    rets = daily_returns(np.array([100.0, 101.0, 99.99]))
    assert rets == pytest.approx([0.01, -0.01], abs=1e-12)
    mean, daily, annual = asset_stats(rets)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert daily == pytest.approx(0.014142135623730951, rel=1e-9)
    assert annual == pytest.approx(0.22360679774997896, rel=1e-9)


@given(
    st.lists(
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=50,
    )
)
def test_annualization_ratio_is_sqrt_250(returns):
    closes = 100.0 * np.cumprod([1.0] + [1.0 + r for r in returns])
    _, daily, annual = asset_stats(daily_returns(closes))
    if daily > 0:
        assert annual / daily == pytest.approx(
            math.sqrt(TRADING_DAYS), rel=1e-12
        )


def test_asset_stats_needs_two_returns():
    with pytest.raises(ValueError, match="at least 2"):
        asset_stats(daily_returns(np.array([1.0, 2.0])))


def test_asset_stats_rejects_a_variance_that_overflows():
    # every return is finite, but their squared deviations are not; the overflow warned and gave inf
    with pytest.raises(ValueError, match="^daily return mean or variance is not finite$"):
        asset_stats(daily_returns(np.array([10.0, 1e300, 10.0, 11.0])))


# -------------------------------------------------------------------- align

def test_align_identical_dates():
    a = series_from_closes("A", [1, 2, 3])
    b = series_from_closes("B", [4, 5, 6])
    aligned = align([a, b])
    assert aligned.shape == (3, 2)
    np.testing.assert_array_equal(aligned, [[1, 4], [2, 5], [3, 6]])


def test_align_intersects_dates():
    days = weekdays(dt.date(2020, 1, 1), 4)
    a = series_on("A", days[:3], [1.0, 2.0, 3.0])
    b = series_on("B", days[1:], [2.0, 3.0, 4.0])
    # days[1] and days[2], where a closes at 2 and 3 and so does b
    np.testing.assert_array_equal(align([a, b]), [[2.0, 2.0], [3.0, 3.0]])


def test_align_disjoint_dates_error():
    a = series_from_closes("A", [1, 2], start=dt.date(2020, 1, 1))
    b = series_from_closes("B", [1, 2], start=dt.date(2021, 1, 1))
    with pytest.raises(ValueError, match="no common dates"):
        align([a, b])


def test_align_needs_input():
    with pytest.raises(ValueError):
        align([])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_align_dates_are_the_intersect1d_of_every_series(data):
    # every series draws its days from one pool, so their sets are disjoint, overlap or are equal
    pool = np.arange(np.datetime64("2020-01-01"), np.datetime64("2020-03-01"))
    day_sets = st.sets(st.integers(0, len(pool) - 1), min_size=1)
    kind = data.draw(st.sampled_from(["disjoint", "partial", "identical"]))
    n = data.draw(st.integers(1, 5))
    if kind == "identical":
        picks = [sorted(data.draw(day_sets))] * n
    elif kind == "disjoint":
        slots = data.draw(st.permutations(range(len(pool))))
        picks = [sorted(slots[i::n][: data.draw(st.integers(1, 12))]) for i in range(n)]
    else:
        picks = [sorted(data.draw(day_sets)) for _ in range(n)]
    # each close is its own day number, so every column of the matrix spells the dates it kept
    series = [series_on(f"S{i}", pool[p], pool[p].astype(np.int64)) for i, p in enumerate(picks)]
    expected = series[0].dates
    for s in series[1:]:
        expected = np.intersect1d(expected, s.dates)
    event(f"{kind}, {'some' if expected.size else 'no'} common dates")
    if not expected.size:
        symbols = ", ".join(s.symbol for s in series)
        with pytest.raises(ValueError, match=f"^no common dates across {symbols}$"):
            align(series)
        return
    aligned = align(series)
    assert aligned.shape == (expected.size, n)
    for j in range(n):
        np.testing.assert_array_equal(aligned[:, j], expected.astype(np.int64))


@given(st.data())
@settings(max_examples=30)
def test_align_output_dates_subset_and_sorted(data):
    days = weekdays(dt.date(2020, 1, 1), 20)
    picks = [
        sorted(data.draw(st.sets(st.sampled_from(days), min_size=1, max_size=20), label=f"s{i}"))
        for i in range(3)
    ]
    if not set(picks[0]) & set(picks[1]) & set(picks[2]):
        return
    # closes are day numbers, so a column of the matrix lists its dates
    days_of = [np.array(p, dtype="datetime64[D]").astype(np.int64) for p in picks]
    series = [series_on(f"S{i}", p, d) for i, (p, d) in enumerate(zip(picks, days_of))]
    kept = align(series)[:, 0]
    assert list(kept) == sorted(kept)
    for d in days_of:
        assert set(kept.tolist()) <= set(d.tolist())


# ---------------------------------------------------------------- types

def test_price_series_rejects_unsorted_dates():
    days = weekdays(dt.date(2020, 1, 1), 2)
    with pytest.raises(ValueError, match="strictly increasing"):
        series_on("X", [days[1], days[0]], [1.0, 1.0])


def test_price_series_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        series_on("X", [], [])


def test_sector_universe_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        SectorUniverse("tech", (("AAA", 10.0), ("AAA", 5.0)))


def test_sector_universe_rejects_nonpositive_weight():
    with pytest.raises(ValueError, match="> 0"):
        SectorUniverse("tech", (("AAA", 0.0),))


def test_span_includes_both_end_dates():
    # 2020-01-01 is a Wednesday: the bars fall on Jan 1, 2, 3, 6 and 7
    series = series_from_closes("X", [1, 2, 3, 4, 5], start=dt.date(2020, 1, 1))
    assert series.span(dt.date(2020, 1, 2), dt.date(2020, 1, 6)) == (1, 4)
    assert series.span(dt.date(2020, 1, 4), dt.date(2020, 1, 6)) == (3, 4)
    assert series.span(dt.date(2019, 1, 1), dt.date(2030, 1, 1)) == (0, 5)


def test_span_between_two_bars_names_the_symbol_and_range():
    series = series_from_closes("X", [1, 2, 3, 4, 5], start=dt.date(2020, 1, 1))
    with pytest.raises(ValueError, match=r"^X: no bars in \[2020-01-04, 2020-01-05\]$"):
        series.span(dt.date(2020, 1, 4), dt.date(2020, 1, 5))


def test_restrict_filters_by_date():
    series = series_from_closes("X", [1, 2, 3, 4, 5], start=dt.date(2020, 1, 1))
    sub = series.restrict(series.dates[1], series.dates[3])
    np.testing.assert_array_equal(sub.dates, series.dates[1:4])
    with pytest.raises(ValueError, match="no bars"):
        series.restrict(dt.date(2030, 1, 1), dt.date(2030, 2, 1))
