"""Historical price ingestion, validation, and return/volatility statistics.

A PriceSeries holds one NumPy array per CSV column, not one object per bar.
Bars with a non-finite price, low above high, a non-positive close or a
negative volume are rejected where the CSV is parsed.

Everything downstream (frontier sampling, forecasting, backtesting) consumes
close prices only; the other OHLCV columns are validated and stored but not
used. Dates are aligned across symbols by intersection, never forward-filled.
"""

from __future__ import annotations

import datetime as dt
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

TRADING_DAYS = 250
CSV_HEADER = "date,open,high,low,close,volume,adj_close"
_CSV_FIELDS = CSV_HEADER.split(",")
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()

# fetch_history: attempts per symbol, seconds per request, seconds between attempts.
FETCH_ATTEMPTS = 3
FETCH_TIMEOUT = 10.0
FETCH_RETRY_WAIT = 0.1


class CsvFormatError(ValueError):
    """Raised when CSV input violates the price-file schema."""


class FetchError(RuntimeError):
    """Raised when a history download fails after exhausting retries."""


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Date-ordered OHLCV columns for one symbol; row i of every column is one trading day.

    ``dates`` is ``datetime64[D]``, ``volume`` int64 and the prices float64.
    """

    symbol: str
    dates: np.ndarray = field(repr=False)
    open: np.ndarray = field(repr=False)
    high: np.ndarray = field(repr=False)
    low: np.ndarray = field(repr=False)
    closes: np.ndarray = field(repr=False)
    volume: np.ndarray = field(repr=False)
    adj_close: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name, dtype in _COLUMN_DTYPES.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len(self.dates) == 0:
            raise ValueError(f"{self.symbol}: price series is empty")
        if any(getattr(self, name).shape != (len(self.dates),) for name in _COLUMN_DTYPES):
            raise ValueError(f"{self.symbol}: columns are not 1-D arrays of one length")
        if (self.dates[1:] <= self.dates[:-1]).any():
            raise ValueError(f"{self.symbol}: dates are not strictly increasing")

    def span(self, start: dt.date, end: dt.date) -> tuple[int, int]:
        """Row range [lo, hi) of the dates with start <= date <= end."""
        lo = int(np.searchsorted(self.dates, np.datetime64(start, "D"), side="left"))
        hi = int(np.searchsorted(self.dates, np.datetime64(end, "D"), side="right"))
        return lo, hi

    def restrict(self, start: dt.date, end: dt.date) -> "PriceSeries":
        """Sub-series with start <= date <= end."""
        lo, hi = self.span(start, end)
        if lo >= hi:
            raise ValueError(f"{self.symbol}: no bars in [{start}, {end}]")
        return PriceSeries(self.symbol, *(getattr(self, name)[lo:hi] for name in _COLUMN_DTYPES))


# PriceSeries columns and their dtypes, in CSV field order.
_COLUMN_DTYPES = {
    "dates": "datetime64[D]", "open": float, "high": float, "low": float,
    "closes": float, "volume": np.int64, "adj_close": float,
}


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Daily simple returns; dates (``datetime64[D]``) align to the second through last bar."""

    symbol: str
    returns: np.ndarray
    dates: np.ndarray


@dataclass(frozen=True)
class AssetStats:
    mean_daily_return: float
    daily_volatility: float
    annual_volatility: float


@dataclass(frozen=True, eq=False)
class AlignedCloseMatrix:
    """Close prices over the common trading dates of several symbols.

    closes has shape (n_dates, n_symbols); column order follows the input
    series order. dates is ``datetime64[D]``.
    """

    symbols: tuple[str, ...]
    dates: np.ndarray
    closes: np.ndarray = field(repr=False)


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
    invalid bar fails the parse. Dates must be YYYY-MM-DD (parse_date).
    Errors name the line, and the column of a non-finite price.
    """
    if isinstance(raw_text, bytes):
        raw_text = raw_text.decode("utf-8")
    lines = raw_text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise CsvFormatError(f"line 1: expected header {CSV_HEADER!r}")

    # Dates are kept as day numbers since 1970-01-01, the integers of datetime64[D].
    rows, linenos, malformed = [], [], None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 7:
            malformed = CsvFormatError(f"line {lineno}: expected 7 fields, got {len(fields)}")
            break
        try:
            day = parse_date(fields[0]).toordinal() - _EPOCH_ORDINAL
            rows.append((day, *map(float, fields[1:5]), int(fields[5]), float(fields[6])))
        except ValueError as exc:
            malformed = CsvFormatError(f"line {lineno}: malformed row: {exc}")
            break
        linenos.append(lineno)
    values = list(zip(*rows)) or [()] * len(_CSV_FIELDS)
    try:
        columns = {
            name: np.array(column, dtype=dtype)
            for name, column, dtype in zip(_CSV_FIELDS, values, _COLUMN_DTYPES.values())
        }
    except OverflowError:
        i = next(i for i, row in enumerate(rows) if not -(2**63) <= row[5] < 2**63)
        raise CsvFormatError(f"line {linenos[i]}: volume {rows[i][5]} is out of range") from None

    # Bar invariants in check order, as (message, mask of violating rows). Non-finite
    # prices come first, so a NaN is named by its column instead of slipping through
    # a comparison. Rows above a malformed line are checked before it is reported,
    # so the first error is always the one on the lowest line.
    prices = ("open", "high", "low", "close", "adj_close")
    checks = [(f"{name} {{{name}}} is not finite", ~np.isfinite(columns[name])) for name in prices]
    checks += [
        ("low {low} > high {high}", columns["low"] > columns["high"]),
        ("close {close} is not positive", columns["close"] <= 0),
        ("volume {volume} is negative", columns["volume"] < 0),
    ]
    invalid = np.flatnonzero(np.logical_or.reduce([mask for _, mask in checks]))
    if invalid.size:
        i = invalid[0]
        message = next(message for message, mask in checks if mask[i])
        problem = message.format(**dict(zip(_CSV_FIELDS, rows[i])))
        raise CsvFormatError(f"line {linenos[i]}: invalid bar ({problem})")
    if malformed is not None:
        raise malformed

    order = np.argsort(columns["date"], kind="stable")
    dates = columns["date"][order]
    duplicates = np.flatnonzero(dates[1:] == dates[:-1])
    if duplicates.size:
        raise CsvFormatError(f"duplicate date {dates[duplicates[0]]} for {symbol}")
    if not order.size:
        raise CsvFormatError(f"{symbol}: no data rows")
    return PriceSeries(symbol, *(column[order] for column in columns.values()))


def serialize_csv(series: PriceSeries) -> str:
    """Render a PriceSeries in the exact schema parse_csv accepts.

    Floats use shortest round-trip representation, so parsing the text
    returns the same columns.
    """
    columns = zip(*(getattr(series, name).tolist() for name in _COLUMN_DTYPES))
    return "".join([CSV_HEADER + "\n", *("%s,%r,%r,%r,%r,%d,%r\n" % row for row in columns)])


def fetch_history(symbol: str, start: dt.date, end: dt.date, endpoint: str) -> PriceSeries:
    """Download price history over HTTP and parse it.

    Issues GET <endpoint>?symbol=...&start=...&end=... (joined with & when the
    endpoint already has a query) expecting the CSV schema of parse_csv in the
    body. The endpoint must be an http or https URL with a host, and so must
    any redirect target. Connection failures, timeouts (reading the body
    included) and 5xx responses are retried up to FETCH_ATTEMPTS attempts in
    all; any other status but 200, a redirect elsewhere, and an empty body
    fail immediately.
    """
    # The HTTP stack is imported here, so only the fetch subcommand pays for it.
    import http.client
    import urllib.error
    import urllib.parse
    import urllib.request

    if start >= end:
        raise ValueError(f"start {start} must precede end {end}")
    parts = urllib.parse.urlsplit(endpoint)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"fetch endpoint {endpoint!r} is not an http or https URL with a host")

    class HttpOnlyRedirects(urllib.request.HTTPRedirectHandler):
        # The default handler also follows a redirect to ftp://.
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            if urllib.parse.urlsplit(newurl).scheme not in ("http", "https"):
                fp.close()
                raise FetchError(f"{symbol}: HTTP {code} from {endpoint} redirects to {newurl!r}")
            return super().redirect_request(req, fp, code, msg, headers, newurl)

    opener = urllib.request.build_opener(HttpOnlyRedirects)
    params = {"symbol": symbol, "start": start.isoformat(), "end": end.isoformat()}
    url = endpoint + ("&" if "?" in endpoint else "?") + urllib.parse.urlencode(params)
    last_error = None
    for attempt in range(1, FETCH_ATTEMPTS + 1):
        try:
            with opener.open(url, timeout=FETCH_TIMEOUT) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:  # the opener raises on a status outside 2xx
            exc.close()
            if exc.code < 500:
                raise FetchError(f"{symbol}: HTTP {exc.code} from {endpoint}") from None
            last_error = f"server returned {exc.code}"
        except (OSError, http.client.HTTPException) as exc:
            last_error = f"connection failed: {exc}"
        else:
            if status != 200:
                raise FetchError(f"{symbol}: HTTP {status} from {endpoint}")
            if not body:
                raise FetchError(f"{symbol}: empty response body from {endpoint}")
            return parse_csv(body, symbol)
        if attempt < FETCH_ATTEMPTS:
            time.sleep(FETCH_RETRY_WAIT)
    raise FetchError(f"{symbol}: {last_error} after {FETCH_ATTEMPTS} attempts")


def daily_returns(series: PriceSeries) -> ReturnSeries:
    """Simple daily returns: r[i] = close[i+1] / close[i] - 1."""
    if len(series.dates) < 2:
        raise ValueError(f"{series.symbol}: need at least 2 bars for returns")
    closes = series.closes
    rets = closes[1:] / closes[:-1] - 1.0
    return ReturnSeries(series.symbol, rets, series.dates[1:])


def asset_stats(returns: ReturnSeries) -> AssetStats:
    """Mean daily return and daily/annualized volatility.

    Daily volatility is the n-1 sample standard deviation; annualization
    multiplies by sqrt(250) trading days.
    """
    r = np.asarray(returns.returns, dtype=float)
    if r.size < 2:
        raise ValueError(f"{returns.symbol}: need at least 2 returns")
    daily = float(np.std(r, ddof=1))
    return AssetStats(
        mean_daily_return=float(np.mean(r)),
        daily_volatility=daily,
        annual_volatility=daily * math.sqrt(TRADING_DAYS),
    )


def align(series_list: list[PriceSeries]) -> AlignedCloseMatrix:
    """Close-price matrix over the intersection of all series' dates."""
    if not series_list:
        raise ValueError("need at least one series to align")
    dates = functools.reduce(np.intersect1d, [s.dates for s in series_list])
    if not dates.size:
        symbols = ", ".join(s.symbol for s in series_list)
        raise ValueError(f"no common dates across {symbols}")
    closes = np.column_stack([s.closes[np.searchsorted(s.dates, dates)] for s in series_list])
    return AlignedCloseMatrix(tuple(s.symbol for s in series_list), dates, closes)
