"""Historical price ingestion, validation, and return/volatility statistics.

A PriceSeries holds a symbol's dates and closes as two NumPy arrays, not one
object per bar. Bars with a non-finite price, low above high, a non-positive
close or a negative volume are rejected where the CSV is parsed, and so is a
close that spikes away from both neighbours and comes back.

Everything downstream (frontier sampling, forecasting, backtesting) consumes
close prices only, so the other OHLCV columns are checked, then dropped.
Dates are aligned across symbols by intersection, never forward-filled.
"""

from __future__ import annotations

import datetime as dt
import functools
import math
from dataclasses import dataclass, field

import numpy as np

TRADING_DAYS = 250
CSV_HEADER = "date,open,high,low,close,volume,adj_close"
SPIKE_FACTOR = 2.0  # an interior close above this times both neighbours, or below 1/this of both, is a spike
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


class CsvFormatError(ValueError):
    """Raised when CSV input violates the price-file schema."""


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """One symbol's date-ordered closes: ``dates`` as ``datetime64[D]``, ``closes`` as float64."""

    symbol: str
    dates: np.ndarray = field(repr=False)
    closes: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dates", np.asarray(self.dates, dtype="datetime64[D]"))
        object.__setattr__(self, "closes", np.asarray(self.closes, dtype=float))
        if len(self.dates) == 0:
            raise ValueError(f"{self.symbol}: price series is empty")
        if self.dates.ndim != 1 or self.closes.shape != self.dates.shape:
            raise ValueError(f"{self.symbol}: dates and closes are not 1-D arrays of one length")
        if not (self.dates[1:] > self.dates[:-1]).all():
            raise ValueError(f"{self.symbol}: dates are not strictly increasing")
        if not ((0 < self.closes) & (self.closes < np.inf)).all():
            raise ValueError(f"{self.symbol}: closes are not finite and positive")

    def span(self, start: dt.date, end: dt.date) -> tuple[int, int]:
        """Row range [lo, hi) of the dates with start <= date <= end; raises when it is empty."""
        lo = int(np.searchsorted(self.dates, np.datetime64(start, "D"), side="left"))
        hi = int(np.searchsorted(self.dates, np.datetime64(end, "D"), side="right"))
        if lo >= hi:
            raise ValueError(f"{self.symbol}: no bars in [{start}, {end}]")
        return lo, hi

    def restrict(self, start: dt.date, end: dt.date) -> "PriceSeries":
        """Sub-series with start <= date <= end."""
        lo, hi = self.span(start, end)
        return PriceSeries(self.symbol, self.dates[lo:hi], self.closes[lo:hi])


# The parse's column dtypes, keyed by CSV field in header order.
_COLUMN_DTYPES = dict(zip(CSV_HEADER.split(","), ["datetime64[D]", float, float, float, float, np.int64, float]))


def parse_date(text: str) -> dt.date:
    """A YYYY-MM-DD date, the one form every supported Python reads alike.

    From 3.11 on, date.fromisoformat also reads 20160101 and the week dates
    2016-W01-1 and 2016W011, so the shape is checked first; given a dash at
    indices 4 and 7, fromisoformat takes nothing but ASCII digits elsewhere.
    """
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError(f"expected a YYYY-MM-DD date, got {text!r}")
    return dt.date.fromisoformat(text)


def parse_csv(raw_text: bytes | str, symbol: str) -> PriceSeries:
    """Parse price history CSV into a validated PriceSeries.

    The expected schema is a header line ``date,open,high,low,close,volume,
    adj_close`` followed by one row per trading day. Rows may arrive in any
    order; the result is sorted by date. Duplicate dates are always rejected.
    A bar is invalid when a price is not finite (NaN or infinite), low >
    high, the close is not positive or the volume is negative; the first
    invalid bar fails the parse. So does the earliest close that spikes: more
    than SPIKE_FACTOR times both its date-order neighbours, or less than
    1/SPIKE_FACTOR of both. Dates must be YYYY-MM-DD (parse_date).
    Errors start with the symbol and name the line, and the column of a
    non-finite price; bytes that are not UTF-8 fail on their line.
    """
    lines = (decode_utf8(raw_text, symbol) if isinstance(raw_text, bytes) else raw_text).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise CsvFormatError(f"{symbol}: line 1: expected header {CSV_HEADER!r}")
    columns, linenos, malformed = _columns_at_once(lines[1:]) or _columns_by_line(lines[1:])

    # Rows above a malformed line are checked before it is reported: the first error is on the lowest line.
    invalid = invalid_bar(columns)
    if invalid is not None:
        raise CsvFormatError(f"{symbol}: line {linenos[invalid[0]]}: invalid bar ({invalid[1]})")
    if malformed is not None:
        raise CsvFormatError(f"{symbol}: {malformed}")

    order = np.argsort(columns["date"], kind="stable")
    dates, closes = columns["date"][order], columns["close"][order]
    duplicates = np.flatnonzero(dates[1:] == dates[:-1])
    if duplicates.size:
        raise CsvFormatError(f"{symbol}: duplicate date {dates[duplicates[0]]}")
    if not order.size:
        raise CsvFormatError(f"{symbol}: no data rows")
    # Divided rather than multiplied, so that no close near the float64 maximum overflows.
    scaled = closes / SPIKE_FACTOR
    up = scaled[1:-1] > np.maximum(closes[:-2], closes[2:])
    down = np.minimum(scaled[:-2], scaled[2:]) > closes[1:-1]
    spikes = np.flatnonzero(up | down)
    if spikes.size:
        i = spikes[0] + 1
        before, close, after = closes[i - 1 : i + 2].tolist()
        raise CsvFormatError(
            f"{symbol}: line {linenos[order[i]]}: close {close!r} on {dates[i]} spikes against the closes "
            f"{before!r} and {after!r} either side (a factor beyond {SPIKE_FACTOR:g} from both)"
        )
    return PriceSeries(symbol, dates, closes)


def decode_utf8(raw: bytes, name: str) -> str:
    """raw as UTF-8 text; CsvFormatError '<name>: line N: not UTF-8: ...' at the line of the first bad byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise CsvFormatError(f"{name}: line {line}: not UTF-8: {exc}") from None


def invalid_bar(columns: dict[str, np.ndarray]) -> tuple[int, str] | None:
    """(index, problem) of the first row of columns, keyed by CSV field, that breaks a bar
    invariant, or None. Non-finite prices come first, so a NaN is named by its column."""
    prices = ("open", "high", "low", "close", "adj_close")
    checks = [(f"{name} {{{name}}} is not finite", ~np.isfinite(columns[name])) for name in prices]
    checks += [
        ("low {low} > high {high}", columns["low"] > columns["high"]),
        ("close {close} is not positive", columns["close"] <= 0),
        ("volume {volume} is negative", columns["volume"] < 0),
    ]
    invalid = np.flatnonzero(np.logical_or.reduce([mask for _, mask in checks]))
    if not invalid.size:
        return None
    i = int(invalid[0])
    message = next(message for message, mask in checks if mask[i])
    return i, message.format(**{name: column[i].item() for name, column in columns.items()})


def _columns_at_once(body: list[str]) -> tuple[dict[str, np.ndarray], range, None] | None:
    """_columns_by_line's result for a body with no malformed line, each column converted in one call.

    None defers to the loop. Numbers go through Python's float and int, as in
    the loop. Dates are taken only if every string is its own datetime64 round
    trip from year 1 on, which is the YYYY-MM-DD set parse_date accepts. A
    blank line, a line without exactly six commas or any conversion error defers.
    """
    if not body or {line.count(",") for line in body} != {6}:
        return None
    fields = ",".join(body).split(",")
    try:
        columns = {
            name: np.array(list(map(int, fields[k::7])) if name == "volume" else fields[k::7], dtype=dtype)
            for k, (name, dtype) in enumerate(_COLUMN_DTYPES.items())
        }
        round_trip = columns["date"].astype("U10").tolist()
    except (ValueError, OverflowError, RuntimeError):
        return None
    if round_trip != fields[0::7] or not (columns["date"] >= np.datetime64("0001-01-01")).all():
        return None
    return columns, range(2, len(body) + 2), None


def _columns_by_line(body: list[str]) -> tuple[dict[str, np.ndarray], list[int], str | None]:
    """Columns of the rows above the first malformed line, their line numbers, and that line's error.

    Blank lines are skipped; the error is None when no line is malformed.
    """
    # Dates are kept as day numbers since 1970-01-01, the integers of datetime64[D].
    rows, linenos, malformed = [], [], None
    for lineno, line in enumerate(body, start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 7:
            malformed = f"line {lineno}: expected 7 fields, got {len(fields)}"
            break
        try:
            day = parse_date(fields[0]).toordinal() - _EPOCH_ORDINAL
            row = (day, *map(float, fields[1:5]), int(fields[5]), float(fields[6]))
        except ValueError as exc:
            malformed = f"line {lineno}: malformed row: {exc}"
            break
        if not -(2**63) <= row[5] < 2**63:
            malformed = f"line {lineno}: volume {row[5]} is out of range"
            break
        rows.append(row)
        linenos.append(lineno)
    values = list(zip(*rows)) or [()] * len(_COLUMN_DTYPES)
    columns = {name: np.array(column, dtype=dtype) for (name, dtype), column in zip(_COLUMN_DTYPES.items(), values)}
    return columns, linenos, malformed


def daily_returns(closes: np.ndarray) -> np.ndarray:
    """Simple daily returns down the rows of a 1-D close array or a (dates, symbols)
    close matrix: r[i] = close[i+1] / close[i] - 1, so row i belongs to bar i+1."""
    if len(closes) < 2:
        raise ValueError("need at least 2 bars for returns")
    return closes[1:] / closes[:-1] - 1.0


def asset_stats(returns: np.ndarray) -> tuple[float, float, float]:
    """Mean daily return, daily volatility and annualized volatility of daily returns.

    Daily volatility is the n-1 sample standard deviation; annualization
    multiplies by sqrt(250) trading days.
    """
    if returns.size < 2:
        raise ValueError("need at least 2 returns")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        mean, daily = float(np.mean(returns)), float(np.std(returns, ddof=1))
    if not np.isfinite([mean, daily]).all():
        raise ValueError("daily return mean or variance is not finite")
    return mean, daily, daily * math.sqrt(TRADING_DAYS)


def align(series_list: list[PriceSeries]) -> np.ndarray:
    """Close matrix (n_dates, n_series) over the intersection of all series' dates,
    one column per series in series_list order."""
    if not series_list:
        raise ValueError("need at least one series to align")
    # Dates are sorted and unique, and filtering keeps them so; intersect1d would sort them again.
    dates = functools.reduce(lambda d, e: d[np.isin(d, e, assume_unique=True)], [s.dates for s in series_list])
    if not dates.size:
        symbols = ", ".join(s.symbol for s in series_list)
        raise ValueError(f"no common dates across {symbols}")
    return np.column_stack([s.closes[np.searchsorted(s.dates, dates)] for s in series_list])
