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
from collections.abc import Sequence

from .portfolio import PortfolioWeights


def _round_half_away(x: float) -> float:
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def roi(capital: float, end_value: float) -> float:
    """Rate of return in percent of the invested capital, which RunConfig holds positive."""
    return (end_value - capital) / capital * 100.0


def run_backtest(
    capital: float,
    weights: PortfolioWeights,
    buy: Sequence[float],
    actual: Sequence[float],
    predicted: Sequence[float],
    sector: str,
) -> dict:
    """JSON-ready ledger: capital split per weights at the buy prices, the holding valued
    at the actual and at the predicted end prices, and the ROI pair.

    The three price sequences follow weights.symbols, one price per symbol, and one of
    another length fails zip(strict=True). Buy prices are closes, which parse_csv and
    PriceSeries hold positive. Per-symbol amounts are capital*weight rounded
    half-away-from-zero to whole currency units; any residual from rounding is left
    unallocated rather than redistributed. Zero-weight symbols stay in the ledger with
    zero shares. Each total is the left-to-right sum of its row values in symbol order.
    """
    rows = []
    for symbol, weight, *prices in zip(weights.symbols, weights.weights, buy, actual, predicted, strict=True):
        buy_price, actual_price, predicted_price = map(float, prices)
        amount = float(_round_half_away(capital * float(weight)))
        shares = amount / buy_price
        rows.append(
            {
                "symbol": symbol,
                "amount_invested": amount,
                "buy_price": buy_price,
                "shares": shares,
                "actual_price": actual_price,
                "actual_value": shares * actual_price,
                "predicted_price": predicted_price,
                "predicted_value": shares * predicted_price,
            }
        )
    total_actual = sum(r["actual_value"] for r in rows)
    total_predicted = sum(r["predicted_value"] for r in rows)
    return {
        "sector": sector,
        "capital": capital,
        "rows": rows,
        "total_actual": total_actual,
        "total_predicted": total_predicted,
        "roi_actual_pct": roi(capital, total_actual),
        "roi_predicted_pct": roi(capital, total_predicted),
    }


SUMMARY_HEADER = "sector,predicted_return_pct,actual_return_pct"


def ledger_csv_text(ledger: dict) -> str:
    """CSV mirror of a run_backtest ledger: display rounding, whole-unit values, 2 d.p. shares."""
    out = io.StringIO()
    out.write(
        "symbol,amount_invested,buy_price,shares,actual_price,actual_value,"
        "predicted_price,predicted_value\n"
    )
    for r in ledger["rows"]:
        out.write(
            f"{r['symbol']},{r['amount_invested']:.0f},{r['buy_price']:.12g},{r['shares']:.2f},"
            f"{r['actual_price']:.12g},"
            f"{_round_half_away(r['actual_value']):.0f},"
            f"{r['predicted_price']:.12g},"
            f"{_round_half_away(r['predicted_value']):.0f}\n"
        )
    out.write(
        f"TOTAL,{sum(r['amount_invested'] for r in ledger['rows']):.0f},,,,"
        f"{_round_half_away(ledger['total_actual']):.0f},,"
        f"{_round_half_away(ledger['total_predicted']):.0f}\n"
    )
    out.write(f"ROI,,,,,{ledger['roi_actual_pct']:.2f}%,,{ledger['roi_predicted_pct']:.2f}%\n")
    return out.getvalue()


def summary_csv_text(rows: list[tuple[str, float, float]]) -> str:
    """Summary export: SUMMARY_HEADER, then one row per (sector, predicted %, actual %)."""
    out = io.StringIO()
    out.write(SUMMARY_HEADER + "\n")
    for sector, predicted, actual in rows:
        out.write(f"{sector},{predicted:.2f},{actual:.2f}\n")
    return out.getvalue()
