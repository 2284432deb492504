"""Ledger arithmetic against the published sector tables and general properties."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorport.backtest import ledger_csv_text, roi, run_backtest, summary_csv_text
from sectorport.portfolio import PortfolioWeights

CAPITAL = 100_000.0

# Published IT-sector ledger: (symbol, amount, start price, end actual, end predicted)
IT_LEDGER = [
    ("IFY", 27192, 1260, 1387, 1413),
    ("TCS", 27052, 2928, 3153, 3151),
    ("WIP", 26930, 388, 543, 549),
    ("TEM", 214, 978, 1031, 1029),
    ("HCL", 18612, 951, 951, 962),
]

# (symbol, amount invested, start price, printed share count) rows from all
# seven sector ledgers; internally consistent figures only.
PUBLISHED_SHARE_ROWS = [
    ("MSZ", 73640, 7691, 9.57),
    ("MMH", 11260, 732, 15.38),
    ("TMO", 1840, 187, 9.84),
    ("BAJ", 13040, 3481, 3.75),
    ("HMC", 220, 3103, 0.07),
    ("TIT", 34682, 1559, 22.25),
    ("HVL", 2246, 910, 2.47),
    ("VLT", 2571, 831, 3.09),
    ("CRP", 11160, 378, 29.52),
    ("DIX", 49341, 2724, 18.11),
    ("SNP", 548, 596, 0.92),
    ("DRL", 14698, 5241, 2.80),
    ("DVL", 57268, 3849, 14.88),
    ("CPL", 2328, 827, 2.81),
    ("APL", 25158, 2415, 10.42),
    ("IFY", 27192, 1260, 21.58),
    ("TCS", 27052, 2928, 9.24),
    ("WIP", 26930, 388, 69.41),
    ("TEM", 214, 978, 0.22),
    ("HCL", 18612, 951, 19.57),
    ("TSL", 9220, 643, 14.34),
    ("JSW", 16750, 390, 42.95),
    ("HIN", 3890, 238, 16.34),
    ("ADE", 69350, 491, 141.24),
    ("VDN", 790, 160, 4.94),
    ("RIL", 41950, 1988, 21.10),
    ("BPC", 4270, 382, 11.18),
    ("ONG", 3790, 93, 40.75),
    ("ATG", 49680, 377, 131.78),
    ("GAI", 310, 124, 2.50),
    ("HUL", 37579, 2388, 15.74),
    ("ITC", 525, 214, 2.45),
    ("NST", 17470, 18451, 0.95),
    ("BRT", 1274, 3568, 0.36),
    ("TCP", 43152, 602, 71.68),
]


def it_weights() -> PortfolioWeights:
    symbols = tuple(r[0] for r in IT_LEDGER)
    return PortfolioWeights(symbols, np.array([r[1] for r in IT_LEDGER]) / CAPITAL)


def it_prices(idx: int) -> list[float]:
    return [float(r[idx]) for r in IT_LEDGER]


def it_ledger() -> dict:
    return run_backtest(CAPITAL, it_weights(), it_prices(2), it_prices(3), it_prices(4), "it")


def rows_at(capital: float, weights: PortfolioWeights, prices: list[float]) -> list[dict]:
    """Ledger rows of a holding bought and valued at the same prices."""
    return run_backtest(capital, weights, prices, prices, prices, "s")["rows"]


# ----------------------------------------------------------------- allocate

def test_allocate_single_asset_share_count():
    w = PortfolioWeights(("IFY",), np.array([1.0]))
    [row] = rows_at(27192.0, w, [1260.0])
    assert row["amount_invested"] == 27192.0
    assert round(row["shares"], 2) == 21.58


def test_allocate_zero_weight_symbol_retained():
    w = PortfolioWeights(("A", "B"), np.array([1.0, 0.0]))
    rows = rows_at(1000.0, w, [10.0, 20.0])
    assert [r["symbol"] for r in rows] == ["A", "B"]
    assert rows[1]["shares"] == 0.0
    assert rows[1]["amount_invested"] == 0.0


def test_allocate_even_split():
    w = PortfolioWeights(("A", "B"), np.array([0.5, 0.5]))
    assert [r["shares"] for r in rows_at(CAPITAL, w, [100.0, 200.0])] == [500.0, 250.0]


def test_allocate_rounds_amounts_to_whole_units():
    w = PortfolioWeights(("A", "B"), np.array([1 / 3, 2 / 3]))
    assert [r["amount_invested"] for r in rows_at(100.0, w, [1.0, 1.0])] == [33.0, 67.0]


def test_allocate_missing_price_names_symbol():
    w = PortfolioWeights(("A", "B"), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="missing start price for B"):
        run_backtest(CAPITAL, w, [100.0], [100.0, 200.0], [100.0, 200.0], "s")


def test_allocate_rejects_nonpositive_price():
    w = PortfolioWeights(("A",), np.array([1.0]))
    with pytest.raises(ValueError, match="nonpositive start price 0.0 for A"):
        rows_at(CAPITAL, w, [0.0])


def test_published_tables_share_counts_within_a_cent():
    for symbol, amount, price, printed in PUBLISHED_SHARE_ROWS:
        assert abs(amount / price - printed) <= 0.01, symbol


# --------------------------------------------------------------- valuation

def test_value_at_published_share_count():
    # bought at the price that gives the printed 21.58 shares, valued at 1387
    w = PortfolioWeights(("IFY",), np.array([1.0]))
    ledger = run_backtest(27192.0, w, [27192.0 / 21.58], [1387.0], [1387.0], "it")
    assert round(ledger["total_actual"]) == 29931


def test_value_zero_shares():
    # capital too small for a whole unit in either symbol: nothing is bought
    w = PortfolioWeights(("A", "B"), np.array([0.5, 0.5]))
    ledger = run_backtest(0.8, w, [10.0, 5.0], [99.0, 1.0], [99.0, 1.0], "s")
    assert ledger["total_actual"] == 0.0


def test_value_at_buy_prices_recovers_invested_amounts():
    w = PortfolioWeights(("A", "B", "C"), np.array([0.2, 0.3, 0.5]))
    ledger = run_backtest(CAPITAL, w, [17.0, 523.0, 3.3], [17.0, 523.0, 3.3], [17.0, 523.0, 3.3], "s")
    invested = sum(r["amount_invested"] for r in ledger["rows"])
    assert ledger["total_actual"] == pytest.approx(invested, abs=1e-9)


def test_value_missing_price():
    # a price list one short or one long is an error, never a silently shorter ledger
    w = PortfolioWeights(("A", "B"), np.array([0.5, 0.5]))
    full, short, long = [100.0, 200.0], [100.0], [100.0, 200.0, 300.0]
    for name, prices in (("start", (short, full, full)), ("actual", (full, short, full)), ("predicted", (full, full, short))):
        with pytest.raises(ValueError, match=f"missing {name} price for B"):
            run_backtest(CAPITAL, w, *prices, "s")
    with pytest.raises(ValueError, match="zip"):
        run_backtest(CAPITAL, w, full, full, long, "s")


def test_totals_are_left_to_right_sums_in_symbol_order():
    # np.sum adds 12 values in another order, and for one of these totals it gives
    # another float, which would change the totals in ledger_<sector>.json
    rng = np.random.default_rng(5)
    raw = rng.random(12)
    w = PortfolioWeights(tuple(f"S{i}" for i in range(12)), raw / raw.sum())
    buy, actual, predicted = (rng.uniform(10.0, 5000.0, 12).tolist() for _ in range(3))
    ledger = run_backtest(CAPITAL, w, buy, actual, predicted, "wide")
    vectorised_differs = []
    for kind in ("actual", "predicted"):
        values = [r[f"{kind}_value"] for r in ledger["rows"]]
        assert ledger[f"total_{kind}"] == sum(values)
        vectorised_differs.append(float(np.sum(values)) != sum(values))
    assert any(vectorised_differs)


# ----------------------------------------------------------------------- roi

def test_roi_published_values():
    assert roi(100_000, 115_593) == pytest.approx(15.593, abs=1e-9)
    assert roi(100_000, 99_490) == pytest.approx(-0.51, abs=1e-9)


def test_roi_flat_is_zero():
    assert roi(CAPITAL, CAPITAL) == 0.0


def test_roi_rejects_nonpositive_capital():
    with pytest.raises(ValueError):
        roi(0.0, 100.0)


@given(st.floats(1.0, 1e9), st.floats(0.0, 1e9), st.floats(0.0, 1e9))
def test_roi_monotone_in_end_value(capital, a, b):
    lo, hi = sorted((a, b))
    assert roi(capital, lo) <= roi(capital, hi)


# --------------------------------------------------------------- run_backtest

def test_it_sector_ledger_reproduces_published_totals():
    ledger = it_ledger()
    assert ledger["total_actual"] == pytest.approx(115_593, abs=10)
    assert ledger["total_predicted"] == pytest.approx(116_766, abs=10)
    assert ledger["roi_actual_pct"] == pytest.approx(15.59, abs=0.05)
    assert ledger["roi_predicted_pct"] == pytest.approx(16.77, abs=0.05)
    assert [r["amount_invested"] for r in ledger["rows"]] == [r[1] for r in IT_LEDGER]


def test_predicted_equal_actual_gives_equal_roi():
    ledger = run_backtest(CAPITAL, it_weights(), it_prices(2), it_prices(3), it_prices(3), "it")
    assert ledger["roi_predicted_pct"] == ledger["roi_actual_pct"]


def test_flat_prices_give_near_zero_roi():
    ledger = run_backtest(CAPITAL, it_weights(), it_prices(2), it_prices(2), it_prices(2), "it")
    assert ledger["roi_actual_pct"] == pytest.approx(0.0, abs=0.01)
    assert ledger["roi_predicted_pct"] == pytest.approx(0.0, abs=0.01)


def test_symbol_order_permutation_preserves_totals():
    w = it_weights()
    perm = PortfolioWeights(tuple(reversed(w.symbols)), w.weights[::-1].copy())
    a = it_ledger()
    b = run_backtest(CAPITAL, perm, it_prices(2)[::-1], it_prices(3)[::-1], it_prices(4)[::-1], "it")
    assert b["total_actual"] == pytest.approx(a["total_actual"], rel=1e-9)
    assert b["total_predicted"] == pytest.approx(a["total_predicted"], rel=1e-9)


@given(st.integers(0, 2**32), st.integers(1, 8))
@settings(max_examples=40)
def test_allocation_round_trip_within_rounding_bound(seed, n):
    rng = np.random.default_rng(seed)
    raw = rng.random(n) + 1e-9
    w = PortfolioWeights(tuple(f"S{i}" for i in range(n)), raw / raw.sum())
    prices = rng.uniform(1.0, 5000.0, n).tolist()
    total = run_backtest(CAPITAL, w, prices, prices, prices, "s")["total_actual"]
    # valuation at buy prices returns capital within total rounding: n/2 units
    assert abs(total - CAPITAL) <= n / 2 + 1e-9


# ------------------------------------------------------------------- exports

def test_ledger_json_round_numbers():
    doc = it_ledger()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["sector"] == "it"
    assert [r["symbol"] for r in doc["rows"]] == [r[0] for r in IT_LEDGER]
    row = doc["rows"][0]
    assert set(row) == {
        "symbol",
        "amount_invested",
        "buy_price",
        "shares",
        "actual_price",
        "actual_value",
        "predicted_price",
        "predicted_value",
    }
    assert doc["roi_actual_pct"] == roi(CAPITAL, doc["total_actual"])


def test_ledger_csv_mirrors_table_columns():
    lines = ledger_csv_text(it_ledger()).strip().split("\n")
    assert lines[0] == (
        "symbol,amount_invested,buy_price,shares,actual_price,actual_value,"
        "predicted_price,predicted_value"
    )
    ify = lines[1].split(",")
    assert ify[0] == "IFY"
    assert ify[1] == "27192"
    assert ify[3] == "21.58"
    assert lines[-2].startswith("TOTAL,100000")
    assert lines[-1].startswith("ROI")


def test_summary_csv_layout():
    text = summary_csv_text([("auto", -0.37, -0.51)])
    assert text == "sector,predicted_return_pct,actual_return_pct\nauto,-0.37,-0.51\n"
