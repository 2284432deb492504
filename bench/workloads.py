"""Seeded synthetic inputs and the subcommand sequence of each workload.

Inputs are generated here with NumPy only, so the program under test sees
nothing but price CSVs and a config file. Each price path follows the same
seeded geometric-Brownian recipe as ``scripts/make_demo_data.py``; the
``demo`` market is byte-identical to what that script writes for the seed.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

DEFAULT_SEED = 1
CSV_HEADER = "date,open,high,low,close,volume,adj_close"

DEMO_SECTORS = {
    "tech": [("AAA", 25.1), ("BBB", 18.4), ("CCC", 12.2), ("DDD", 9.7), ("EEE", 9.1)],
    "energy": [("OIL", 31.2), ("GAS", 11.2), ("PWR", 10.5)],
}
DEMO_LSTM = {
    "window": 20,
    "lstm_layers": [16],
    "dense_width": 16,
    "dropout_rate": 0.1,
    "batch_size": 64,
    "epochs": 5,
}
PAPER_LSTM = {
    "window": 50,
    "lstm_layers": [256, 256],
    "dense_width": 256,
    "dropout_rate": 0.3,
    "batch_size": 64,
    "epochs": 1,
}
TINY_LSTM = {
    "window": 10,
    "lstm_layers": [4],
    "dense_width": 4,
    "dropout_rate": 0.1,
    "batch_size": 32,
    "epochs": 1,
}

INVEST_DATE = dt.date(2021, 1, 1)
EVAL_DATE = dt.date(2021, 6, 1)
TRAIN_END = dt.date(2020, 12, 31)


def weekdays(start: dt.date, count: int) -> list[dt.date]:
    """The first `count` weekdays on or after `start`."""
    days = []
    day = start
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


def gbm_csv(seed: int, dates: list[dt.date]) -> tuple[np.ndarray, str]:
    """One symbol's closes and its price CSV text.

    Draws follow ``scripts/make_demo_data.py`` call for call, and floats are
    written as their shortest round-trip repr, as ``serialize_csv`` does.
    """
    rng = np.random.default_rng(seed)
    s0 = rng.uniform(50.0, 2000.0)
    n = len(dates)
    closes = s0 * np.exp(np.concatenate([[0.0], np.cumsum(rng.normal(4e-4, 0.015, n - 1))]))
    lines = [CSV_HEADER]
    for day, close in zip(dates, closes):
        close = float(close)
        spread = abs(float(rng.normal(0.0, 0.01))) * close
        open_ = close * (1 + float(rng.normal(0, 0.003)))
        volume = int(rng.integers(10_000, 1_000_000))
        lines.append(
            f"{day.isoformat()},{open_!r},{close + spread!r},{close - spread!r},"
            f"{close!r},{volume},{close!r}"
        )
    return closes, "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its stage and the arguments after the global options."""

    stage: str
    args: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.args)


@dataclass
class Inputs:
    """Everything a workload run needs: files on disk plus what the checks know."""

    name: str
    root: Path
    config: dict
    calls: list[Call]
    dates: dict[str, list[dt.date]] = field(default_factory=dict)
    closes: dict[str, np.ndarray] = field(default_factory=dict)
    predicted: dict[str, float] | None = None
    plot_ranges: dict[str, tuple[dt.date, dt.date]] = field(default_factory=dict)

    @property
    def config_path(self) -> Path:
        return self.root / "config.yaml"

    @property
    def data_dir(self) -> Path:
        return self.root / "data"

    @property
    def sectors(self) -> dict[str, list[str]]:
        return {s["name"]: [m[0] for m in s["members"]] for s in self.config["sectors"]}

    def lstm(self, key: str):
        """A key of the config's lstm block; horizon defaults to one day."""
        return self.config["lstm"].get(key, 1 if key == "horizon" else None)

    def date(self, key: str) -> dt.date:
        """A config date, or the program's default when the config leaves it out."""
        defaults = {
            "train_start": dt.date(2016, 1, 1),
            "train_end": TRAIN_END,
            "invest_date": INVEST_DATE,
            "eval_date": EVAL_DATE,
        }
        return self.config.get(key, defaults[key])

    def add_symbol(self, symbol: str, seed: int, dates: list[dt.date]):
        closes, text = gbm_csv(seed, dates)
        self.dates[symbol] = dates
        self.closes[symbol] = closes
        (self.data_dir / f"{symbol}.csv").write_text(text, encoding="utf-8")

    def write_config(self):
        self.config_path.write_text(yaml.safe_dump(self.config, sort_keys=False), encoding="utf-8")


def _market(name: str, root: Path, config: dict) -> Inputs:
    (root / "data").mkdir(parents=True, exist_ok=True)
    return Inputs(name, root, config, calls=[])


def build_demo(seed: int, root: Path, size: str = "full") -> Inputs:
    """The quick-start market of scripts/make_demo_data.py and the run_demo.py sequence."""
    config = {
        "data_dir": "data",
        "seed": seed,
        "capital": 100_000,
        "n_draws": 10_000 if size == "full" else 500,
        "risk_free": 0.01,
        "sectors": [
            {"name": name, "members": [[s, w] for s, w in members]}
            for name, members in DEMO_SECTORS.items()
        ],
        "lstm": dict(DEMO_LSTM) if size == "full" else {**DEMO_LSTM, "epochs": 1},
    }
    inputs = _market("demo", root, config)
    dates = weekdays(dt.date(2016, 1, 1), 1440)
    symbols = [s for members in DEMO_SECTORS.values() for s, _ in members]
    for i, symbol in enumerate(symbols):
        inputs.add_symbol(symbol, seed * 1000 + i, dates)
    inputs.write_config()

    lead = symbols[0]
    start, end = dt.date(2021, 1, 1), dt.date(2021, 5, 31)
    inputs.plot_ranges[lead] = (start, end)
    calls = [Call("stats", ("stats",))]
    calls += [Call("frontier", ("frontier", name)) for name in DEMO_SECTORS]
    calls += [Call("train", ("train", s)) for s in symbols]
    calls += [Call("backtest", ("backtest", name)) for name in DEMO_SECTORS]
    calls.append(Call("plotdata", ("plotdata", lead, "--start", start.isoformat(), "--end", end.isoformat())))
    inputs.calls = calls
    return inputs


def build_frontier_wide(seed: int, root: Path, size: str = "full") -> Inputs:
    """One wide sector over about twenty years, a large frontier and no LSTM."""
    n_symbols, n_days, n_draws, start = 12, 5087, 200_000, dt.date(2002, 1, 1)
    if size != "full":
        n_symbols, n_days, n_draws, start = 3, 1440, 1_000, dt.date(2016, 1, 1)
    symbols = [f"W{i:02d}" for i in range(n_symbols)]
    config = {
        "data_dir": "data",
        "seed": seed,
        "capital": 100_000,
        "n_draws": n_draws,
        "risk_free": 0.01,
        "train_start": start,
        "train_end": TRAIN_END,
        "invest_date": INVEST_DATE,
        "eval_date": EVAL_DATE,
        "sectors": [{"name": "wide", "members": [[s, float(10 + i)] for i, s in enumerate(symbols)]}],
    }
    inputs = _market("frontier_wide", root, config)
    dates = weekdays(start, n_days)
    for i, symbol in enumerate(symbols):
        inputs.add_symbol(symbol, seed * 1000 + 500 + i, dates)
    inputs.write_config()

    # Predicted end prices: the actual close at eval_date, perturbed by a seeded 5% error.
    rng = np.random.default_rng([seed, 500])
    eval_idx = max(k for k, d in enumerate(dates) if d <= EVAL_DATE)
    inputs.predicted = {
        s: float(inputs.closes[s][eval_idx] * (1.0 + rng.normal(0.0, 0.05))) for s in symbols
    }
    pred_path = root / "predicted.csv"
    pred_path.write_text(
        "symbol,price\n" + "".join(f"{s},{p!r}\n" for s, p in inputs.predicted.items()),
        encoding="utf-8",
    )
    inputs.calls = [
        Call("stats", ("stats",)),
        Call("frontier", ("frontier", "wide")),
        Call("backtest", ("backtest", "wide", "--predicted-prices", str(pred_path))),
    ]
    return inputs


def build_train_paper(seed: int, root: Path, size: str = "full") -> Inputs:
    """The paper-scale LSTM on one symbol: train, a one-member backtest, long plotdata."""
    n_train, n_plot = 1258, 1350
    lstm = dict(PAPER_LSTM) if size == "full" else dict(TINY_LSTM)
    if size != "full":
        n_train, n_plot = 300, 40
    dates = weekdays(dt.date(2016, 1, 1), 1440)
    in_window = [k for k, d in enumerate(dates) if d <= TRAIN_END]
    train_start = dates[len(in_window) - n_train]
    symbol = "PAPR"
    config = {
        "data_dir": "data",
        "seed": seed,
        "capital": 100_000,
        "n_draws": 10_000 if size == "full" else 500,
        "risk_free": 0.01,
        "train_start": train_start,
        "train_end": TRAIN_END,
        "invest_date": INVEST_DATE,
        "eval_date": EVAL_DATE,
        "sectors": [{"name": "paper", "members": [[symbol, 1.0]]}],
        "lstm": lstm,
    }
    inputs = _market("train_paper", root, config)
    inputs.add_symbol(symbol, seed * 1000 + 900, dates)
    inputs.write_config()

    first = lstm["window"] + 10
    start, end = dates[first], dates[first + n_plot - 1]
    inputs.plot_ranges[symbol] = (start, end)
    inputs.calls = [
        Call("train", ("train", symbol)),
        Call("backtest", ("backtest", "paper")),
        Call("plotdata", ("plotdata", symbol, "--start", start.isoformat(), "--end", end.isoformat())),
    ]
    return inputs


WORKLOADS = {
    "demo": build_demo,
    "frontier_wide": build_frontier_wide,
    "train_paper": build_train_paper,
}
