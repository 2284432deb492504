import datetime as dt

import numpy as np
import pytest

from sectorport.market_data import PriceSeries, CSV_HEADER


def series_on(symbol, dates, closes) -> PriceSeries:
    return PriceSeries(symbol, np.array(dates, dtype="datetime64[D]"), np.asarray(closes, dtype=float))


def weekdays(start: dt.date, n: int) -> list[dt.date]:
    """n consecutive weekday dates from start."""
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


def series_from_closes(symbol, closes, start=dt.date(2020, 1, 1)) -> PriceSeries:
    return series_on(symbol, weekdays(start, len(closes)), closes)


def gbm_closes(n, seed, s0=100.0, drift=0.0004, vol=0.015) -> np.ndarray:
    """Synthetic geometric-Brownian close path."""
    rng = np.random.default_rng(seed)
    log_rets = rng.normal(drift, vol, size=n - 1)
    return s0 * np.exp(np.concatenate([[0.0], np.cumsum(log_rets)]))


def csv_text(rows) -> str:
    """CSV document from (date, open, high, low, close, volume, adj_close) tuples."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(str(x) for x in r))
    return "\n".join(lines) + "\n"


def series_csv(series: PriceSeries) -> str:
    """CSV document of series: each bar opens and adjusts to its close, with high and low 5% either side."""
    bars = zip(series.dates.tolist(), series.closes.tolist())
    return csv_text((day, c, c * 1.05, c * 0.95, c, 1000, c) for day, c in bars)


@pytest.fixture
def three_row_csv() -> str:
    return csv_text(
        [
            ("2020-01-02", 10, 11, 9, 10.5, 1000, 10.5),
            ("2020-01-03", 10.5, 11.5, 9.5, 11.0, 1100, 11.0),
            ("2020-01-06", 11.0, 12.0, 10.0, 10.8, 900, 10.8),
        ]
    )
