"""Artifact checks: each returns a list of problems, empty when the artifact is right.

At the default seed and full size, stats, frontier and report files must match
the sha256 digests recorded in golden.json, and each final val_mae must be
within VAL_MAE_REL_TOL of the recorded value. At every seed the checks below
recompute what they can from the generated inputs with NumPy (oracles).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, Call, Inputs

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
TRADING_DAYS = 250
REL = 1e-9  # agreement of recomputed statistics with 12-significant-digit output
VAL_MAE_REL_TOL = 0.05  # trained bytes may change between versions, accuracy may not
CHECKPOINT_MAGIC = b"SPLSTMCK"


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def artifacts(call: Call) -> list[str]:
    """Files (relative to --out) that a call writes."""
    stage, target = call.stage, call.args[1] if len(call.args) > 1 else None
    return {
        "stats": ["stats.csv"],
        "frontier": [f"frontier_{target}.csv", f"report_{target}.json"],
        "train": [f"checkpoints/{target}.ckpt", f"trace_{target}.csv"],
        "backtest": [f"ledger_{target}.json", f"ledger_{target}.csv", "summary.csv"],
        "plotdata": [f"plotdata_{target}.csv"],
    }[stage]


def _close(a: float, b: float, rel: float = REL, abs_: float = 1e-12) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def _window(inputs: Inputs, symbol: str, start, end) -> np.ndarray:
    dates = inputs.dates[symbol]
    return np.array([c for d, c in zip(dates, inputs.closes[symbol]) if start <= d <= end])


def _train_closes(inputs: Inputs, symbol: str) -> np.ndarray:
    return _window(inputs, symbol, inputs.date("train_start"), inputs.date("train_end"))


def _moments(inputs: Inputs, symbols: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Annualized mean and covariance of daily returns; generated symbols share their dates."""
    closes = np.column_stack([_train_closes(inputs, s) for s in symbols])
    rets = closes[1:] / closes[:-1] - 1.0
    cov = np.atleast_2d(np.cov(rets, rowvar=False, ddof=1)) * TRADING_DAYS
    return rets.mean(axis=0) * TRADING_DAYS, cov


def _golden_digests(inputs: Inputs, call: Call, out: Path, golden: dict | None) -> list[str]:
    if golden is None:
        return []
    expected = golden["digests"].get(inputs.name, {})
    problems = []
    for name in artifacts(call):
        if name in expected and sha256(out / name) != expected[name]:
            problems.append(f"{name}: sha256 differs from the digest recorded for seed {DEFAULT_SEED}")
    return problems


def check_stats(inputs: Inputs, call: Call, out: Path) -> list[str]:
    lines = (out / "stats.csv").read_text(encoding="utf-8").splitlines()
    problems = []
    if lines[0] != "symbol,mean_daily_return,daily_volatility,annual_volatility":
        problems.append("stats.csv: wrong header")
    rows = {r.split(",")[0]: [float(v) for v in r.split(",")[1:]] for r in lines[1:]}
    symbols = [s for members in inputs.sectors.values() for s in members]
    if list(rows) != list(dict.fromkeys(symbols)):
        problems.append(f"stats.csv: symbols {list(rows)} != {symbols}")
    for sym in rows.keys() & set(symbols):
        c = _train_closes(inputs, sym)
        r = c[1:] / c[:-1] - 1.0
        daily = float(np.std(r, ddof=1))
        want = [float(np.mean(r)), daily, daily * math.sqrt(TRADING_DAYS)]
        if not all(_close(a, b) for a, b in zip(rows[sym], want)):
            problems.append(f"stats.csv: {sym} {rows[sym]} != recomputed {want}")
    return problems


def check_frontier(inputs: Inputs, call: Call, out: Path) -> list[str]:
    sector = call.args[1]
    symbols = inputs.sectors[sector]
    n_draws = inputs.config["n_draws"]
    rf = inputs.config["risk_free"]
    path = out / f"frontier_{sector}.csv"
    problems = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    if header != "draw_index,risk,return,sharpe," + ",".join(f"w_{s}" for s in symbols):
        problems.append(f"{path.name}: wrong header {header!r}")
        return problems
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (n_draws, 4 + len(symbols)):
        return problems + [f"{path.name}: shape {table.shape}, expected ({n_draws}, {4 + len(symbols)})"]
    idx, risk, ret, sharpe, w = table[:, 0], table[:, 1], table[:, 2], table[:, 3], table[:, 4:]
    mean, cov = _moments(inputs, symbols)
    if not np.array_equal(idx, np.arange(n_draws)):
        problems.append(f"{path.name}: draw_index is not 0..{n_draws - 1}")
    if (w < 0).any() or not np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-9):
        problems.append(f"{path.name}: weight rows are not nonnegative fractions summing to 1")
    if not np.allclose(ret, w @ mean, rtol=REL, atol=1e-11):
        problems.append(f"{path.name}: return column differs from w'mean")
    if not np.allclose(risk, np.sqrt(np.einsum("ij,ij->i", w @ cov, w)), rtol=REL, atol=1e-11):
        problems.append(f"{path.name}: risk column differs from sqrt(w'Cw)")
    if not np.allclose(sharpe, (ret - rf) / risk, rtol=REL, atol=1e-9):
        problems.append(f"{path.name}: sharpe column differs from (return - rf) / risk")

    report = json.loads((out / f"report_{sector}.json").read_text(encoding="utf-8"))
    if report.get("sector") != sector:
        problems.append(f"report_{sector}.json: sector {report.get('sector')!r}")
    extremes = {"min_risk": int(np.argmin(risk)), "opt_risk": int(np.argmax(sharpe))}
    for key, row in extremes.items():
        block = report[key]
        weights = np.array([block["weights"][s] for s in symbols])
        if abs(weights.sum() - 1.0) > 1e-12:
            problems.append(f"report_{sector}.json: {key} weights sum to {weights.sum()!r}")
        if not (_close(block["annual_risk"], risk[row], 1e-10) and _close(block["annual_return"], ret[row], 1e-10)):
            problems.append(f"report_{sector}.json: {key} is not the extreme row {row} of the CSV")
        if not (
            _close(block["annual_return"], float(weights @ mean))
            and _close(block["annual_risk"], math.sqrt(float(weights @ cov @ weights)))
        ):
            problems.append(f"report_{sector}.json: {key} return/risk differ from its weights")
    return problems


def _checkpoint_header(path: Path) -> dict:
    with open(path, "rb") as fh:
        head = fh.read(12)
        if head[:8] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path.name}: bad magic")
        return json.loads(fh.read(int.from_bytes(head[8:12], "little")))


def _expected_scaler(inputs: Inputs, symbol: str) -> tuple[float, float]:
    """Min and max of the closes the 90% chronological training split touches."""
    c = _train_closes(inputs, symbol)
    window, horizon = inputs.lstm("window"), inputs.lstm("horizon")
    n = c.size - window - horizon + 1
    last = max(1, int(n * 0.9)) - 1 + window + horizon - 1
    return float(c[: last + 1].min()), float(c[: last + 1].max())


def check_train(inputs: Inputs, call: Call, out: Path, golden: dict | None) -> list[str]:
    symbol = call.args[1]
    problems = []
    lines = (out / f"trace_{symbol}.csv").read_text(encoding="utf-8").splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    epochs = inputs.lstm("epochs")
    if lines[0] != "epoch,train_loss,train_mae,val_loss,val_mae" or len(rows) != epochs:
        problems.append(f"trace_{symbol}.csv: expected the header and {epochs} rows")
    elif not all(math.isfinite(v) for row in rows for v in row):
        problems.append(f"trace_{symbol}.csv: non-finite values")
    elif golden is not None:
        want = golden["val_mae"][inputs.name][symbol]
        if not abs(rows[-1][4] - want) <= VAL_MAE_REL_TOL * want:
            problems.append(f"trace_{symbol}.csv: final val_mae {rows[-1][4]!r}, recorded {want!r}")

    header = _checkpoint_header(out / "checkpoints" / f"{symbol}.ckpt")
    cfg = header["config"]
    for key in ("window", "lstm_layers", "dense_width", "epochs"):
        if cfg[key] != inputs.lstm(key):
            problems.append(f"{symbol}.ckpt: config {key}={cfg[key]!r}, expected {inputs.lstm(key)!r}")
    lo, hi = _expected_scaler(inputs, symbol)
    if (header["scaler"]["min"], header["scaler"]["max"]) != (lo, hi):
        problems.append(f"{symbol}.ckpt: scaler {header['scaler']} != training-split range [{lo}, {hi}]")
    return problems


def _round_half_away(x: float) -> float:
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def _close_on_or_after(inputs: Inputs, symbol: str, date) -> float:
    return next(c for d, c in zip(inputs.dates[symbol], inputs.closes[symbol]) if d >= date)


def _close_on_or_before(inputs: Inputs, symbol: str, date) -> float:
    return [c for d, c in zip(inputs.dates[symbol], inputs.closes[symbol]) if d <= date][-1]


def check_backtest(inputs: Inputs, call: Call, out: Path) -> list[str]:
    sector = call.args[1]
    symbols = inputs.sectors[sector]
    capital = float(inputs.config["capital"])
    ledger = json.loads((out / f"ledger_{sector}.json").read_text(encoding="utf-8"))
    problems = []
    if [r["symbol"] for r in ledger["rows"]] != symbols:
        return [f"ledger_{sector}.json: rows {[r['symbol'] for r in ledger['rows']]} != {symbols}"]

    report = out / f"report_{sector}.json"
    if report.exists():
        weights = json.loads(report.read_text(encoding="utf-8"))["opt_risk"]["weights"]
    else:
        weights = {symbols[0]: 1.0} if len(symbols) == 1 else None

    total_actual = total_predicted = 0.0
    for row in ledger["rows"]:
        sym = row["symbol"]
        if weights is not None and row["amount_invested"] != _round_half_away(capital * weights[sym]):
            problems.append(f"ledger_{sector}.json: {sym} amount {row['amount_invested']} != capital x weight")
        if row["buy_price"] != _close_on_or_after(inputs, sym, inputs.date("invest_date")):
            problems.append(f"ledger_{sector}.json: {sym} buy price is not the close on/after invest_date")
        if row["actual_price"] != _close_on_or_before(inputs, sym, inputs.date("eval_date")):
            problems.append(f"ledger_{sector}.json: {sym} actual price is not the close on/before eval_date")
        if inputs.predicted is not None:
            if row["predicted_price"] != inputs.predicted[sym]:
                problems.append(f"ledger_{sector}.json: {sym} predicted price is not the --predicted-prices value")
        else:
            scaler = _checkpoint_header(out / "checkpoints" / f"{sym}.ckpt")["scaler"]
            if not scaler["min"] <= row["predicted_price"] <= scaler["max"]:
                problems.append(f"ledger_{sector}.json: {sym} prediction outside the scaler range")
        shares = row["amount_invested"] / row["buy_price"]
        actual, predicted = shares * row["actual_price"], shares * row["predicted_price"]
        if not (_close(row["shares"], shares) and _close(row["actual_value"], actual)
                and _close(row["predicted_value"], predicted)):
            problems.append(f"ledger_{sector}.json: {sym} shares or values do not recompute")
        total_actual += actual
        total_predicted += predicted

    roi_actual = (total_actual - capital) / capital * 100.0
    roi_predicted = (total_predicted - capital) / capital * 100.0
    pairs = [
        (ledger["total_actual"], total_actual),
        (ledger["total_predicted"], total_predicted),
        (ledger["roi_actual_pct"], roi_actual),
        (ledger["roi_predicted_pct"], roi_predicted),
    ]
    if not all(_close(a, b) for a, b in pairs):
        problems.append(f"ledger_{sector}.json: totals or ROI do not recompute")

    csv_lines = (out / f"ledger_{sector}.csv").read_text(encoding="utf-8").splitlines()
    want_roi = f"ROI,,,,,{ledger['roi_actual_pct']:.2f}%,,{ledger['roi_predicted_pct']:.2f}%"
    want_total = (
        f"TOTAL,{sum(r['amount_invested'] for r in ledger['rows']):.0f},,,,"
        f"{_round_half_away(ledger['total_actual']):.0f},,{_round_half_away(ledger['total_predicted']):.0f}"
    )
    if csv_lines[-2:] != [want_total, want_roi]:
        problems.append(f"ledger_{sector}.csv: TOTAL/ROI rows do not match the ledger JSON")

    summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    want_row = f"{sector},{ledger['roi_predicted_pct']:.2f},{ledger['roi_actual_pct']:.2f}"
    if summary[0] != "sector,predicted_return_pct,actual_return_pct" or want_row not in summary[1:]:
        problems.append(f"summary.csv: no row {want_row!r}")
    return problems


def check_plotdata(inputs: Inputs, call: Call, out: Path) -> list[str]:
    symbol = call.args[1]
    start, end = inputs.plot_ranges[symbol]
    want = [(d, c) for d, c in zip(inputs.dates[symbol], inputs.closes[symbol]) if start <= d <= end]
    lines = (out / f"plotdata_{symbol}.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "date,actual_close,predicted_close" or len(lines) - 1 != len(want):
        return [f"plotdata_{symbol}.csv: expected the header and {len(want)} rows, got {len(lines) - 1}"]
    scaler = _checkpoint_header(out / "checkpoints" / f"{symbol}.ckpt")["scaler"]
    problems = []
    for line, (day, close) in zip(lines[1:], want):
        date, actual, predicted = line.split(",")
        if date != day.isoformat() or not _close(float(actual), close, 1e-11):
            problems.append(f"plotdata_{symbol}.csv: row {line!r} does not match the input close on {day}")
            break
        if not (math.isfinite(float(predicted)) and scaler["min"] <= float(predicted) <= scaler["max"]):
            problems.append(f"plotdata_{symbol}.csv: prediction {predicted} outside the scaler range")
            break
    return problems


def check_call(inputs: Inputs, call: Call, out: Path, golden: dict | None) -> list[str]:
    """Every check that applies to a call's artifacts; golden is None off the default seed."""
    missing = [name for name in artifacts(call) if not (out / name).exists()]
    if missing:
        return [f"{call.key}: missing {missing}"]
    try:
        if call.stage == "train":
            problems = check_train(inputs, call, out, golden)
        else:
            check = {
                "stats": check_stats,
                "frontier": check_frontier,
                "backtest": check_backtest,
                "plotdata": check_plotdata,
            }[call.stage]
            problems = check(inputs, call, out)
    except (ValueError, KeyError, IndexError, StopIteration) as exc:
        problems = [f"{call.key}: unreadable artifact ({type(exc).__name__}: {exc})"]
    return problems + _golden_digests(inputs, call, out, golden)
