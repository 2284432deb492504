"""Fixed-capital backtest: allocate at a start date, value at an end date.

A fictitious investor puts a lump sum into a sector per the recommended
portfolio weights, holds with no rebalancing, and is valued at the end date
twice: once at actual prices and once at model-predicted prices. Per-asset
invested amounts are rounded to whole currency units (matching the published
tables); share counts stay fractional and unrounded. Internal arithmetic is
full precision; rounding is display-only.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .portfolio import PortfolioWeights


def _round_half_away(x: float) -> float:
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


@dataclass(frozen=True)
class Allocation:
    symbol: str
    amount_invested: float  # whole currency units
    buy_price: float
    shares: float  # amount / buy_price, unrounded


@dataclass(frozen=True)
class BacktestLedger:
    sector: str
    capital: float
    allocations: tuple[Allocation, ...]
    end_actual_price: dict[str, float]
    end_predicted_price: dict[str, float]
    actual_value: dict[str, float]
    predicted_value: dict[str, float]
    total_actual: float
    total_predicted: float
    roi_actual: float  # percent
    roi_predicted: float  # percent


def allocate(capital: float, weights: PortfolioWeights, start_prices: dict[str, float]) -> list[Allocation]:
    """Split capital across symbols per weights at the given buy prices.

    Per-symbol amounts are capital*weight rounded half-away-from-zero to whole
    currency units; any residual from rounding is left unallocated rather than
    redistributed. Zero-weight symbols stay in the result with zero shares.
    """
    if capital <= 0:
        raise ValueError(f"capital must be positive, got {capital}")
    allocs = []
    for symbol, weight in zip(weights.symbols, weights.weights):
        if symbol not in start_prices:
            raise ValueError(f"missing start price for {symbol}")
        price = start_prices[symbol]
        if price <= 0:
            raise ValueError(f"nonpositive start price {price} for {symbol}")
        amount = float(_round_half_away(capital * float(weight)))
        allocs.append(Allocation(symbol, amount, float(price), amount / price))
    return allocs


def value_portfolio(allocs: list[Allocation], prices: dict[str, float]) -> tuple[dict[str, float], float]:
    """Value every holding at the given prices; returns (per-symbol, total)."""
    values = {}
    for a in allocs:
        if a.symbol not in prices:
            raise ValueError(f"missing price for {a.symbol}")
        values[a.symbol] = a.shares * prices[a.symbol]
    return values, sum(values.values())


def roi(capital: float, end_value: float) -> float:
    """Rate of return in percent of the invested capital."""
    if capital <= 0:
        raise ValueError(f"capital must be positive, got {capital}")
    return (end_value - capital) / capital * 100.0


def run_backtest(
    capital: float,
    weights: PortfolioWeights,
    start_prices: dict[str, float],
    end_actual_prices: dict[str, float],
    end_predicted_prices: dict[str, float],
    sector: str = "",
) -> BacktestLedger:
    """Full ledger: allocation, end-of-period valuations, and the ROI pair."""
    allocs = allocate(capital, weights, start_prices)
    actual_values, total_actual = value_portfolio(allocs, end_actual_prices)
    predicted_values, total_predicted = value_portfolio(allocs, end_predicted_prices)
    return BacktestLedger(
        sector=sector,
        capital=capital,
        allocations=tuple(allocs),
        end_actual_price={a.symbol: float(end_actual_prices[a.symbol]) for a in allocs},
        end_predicted_price={a.symbol: float(end_predicted_prices[a.symbol]) for a in allocs},
        actual_value=actual_values,
        predicted_value=predicted_values,
        total_actual=total_actual,
        total_predicted=total_predicted,
        roi_actual=roi(capital, total_actual),
        roi_predicted=roi(capital, total_predicted),
    )


SUMMARY_HEADER = "sector,predicted_return_pct,actual_return_pct"


@dataclass(frozen=True)
class SummaryRow:
    sector: str
    predicted_return_pct: float
    actual_return_pct: float


def ledger_to_dict(ledger: BacktestLedger) -> dict:
    """JSON-ready ledger with full-precision per-symbol rows and totals."""
    rows = []
    for a in ledger.allocations:
        rows.append(
            {
                "symbol": a.symbol,
                "amount_invested": a.amount_invested,
                "buy_price": a.buy_price,
                "shares": a.shares,
                "actual_price": ledger.end_actual_price[a.symbol],
                "actual_value": ledger.actual_value[a.symbol],
                "predicted_price": ledger.end_predicted_price[a.symbol],
                "predicted_value": ledger.predicted_value[a.symbol],
            }
        )
    return {
        "sector": ledger.sector,
        "capital": ledger.capital,
        "rows": rows,
        "total_actual": ledger.total_actual,
        "total_predicted": ledger.total_predicted,
        "roi_actual_pct": ledger.roi_actual,
        "roi_predicted_pct": ledger.roi_predicted,
    }


def ledger_csv_text(ledger: BacktestLedger) -> str:
    """CSV mirror of the ledger table: display rounding, whole-unit values, 2 d.p. shares."""
    out = io.StringIO()
    out.write(
        "symbol,amount_invested,buy_price,shares,actual_price,actual_value,"
        "predicted_price,predicted_value\n"
    )
    for a in ledger.allocations:
        out.write(
            f"{a.symbol},{a.amount_invested:.0f},{a.buy_price:.12g},{a.shares:.2f},"
            f"{ledger.end_actual_price[a.symbol]:.12g},"
            f"{_round_half_away(ledger.actual_value[a.symbol]):.0f},"
            f"{ledger.end_predicted_price[a.symbol]:.12g},"
            f"{_round_half_away(ledger.predicted_value[a.symbol]):.0f}\n"
        )
    out.write(
        f"TOTAL,{sum(a.amount_invested for a in ledger.allocations):.0f},,,,"
        f"{_round_half_away(ledger.total_actual):.0f},,"
        f"{_round_half_away(ledger.total_predicted):.0f}\n"
    )
    out.write(f"ROI,,,,,{ledger.roi_actual:.2f}%,,{ledger.roi_predicted:.2f}%\n")
    return out.getvalue()


def summary_csv_text(rows: list[SummaryRow]) -> str:
    """Summary export: SUMMARY_HEADER, then one row per sector."""
    out = io.StringIO()
    out.write(SUMMARY_HEADER + "\n")
    for r in rows:
        out.write(f"{r.sector},{r.predicted_return_pct:.2f},{r.actual_return_pct:.2f}\n")
    return out.getvalue()
