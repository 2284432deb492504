#!/usr/bin/env python3
"""Generate a synthetic market (price CSVs + config.yaml) for demo runs.

Five "tech" symbols and three "energy" symbols follow seeded geometric
Brownian paths over weekdays from 2016-01-01 through 2021-06-30, long enough
to cover the default train/invest/eval dates.
"""

import argparse
import datetime as dt
from pathlib import Path

import numpy as np
import yaml

from sectorport.market_data import CSV_HEADER

SECTORS = {
    "tech": [("AAA", 25.1), ("BBB", 18.4), ("CCC", 12.2), ("DDD", 9.7), ("EEE", 9.1)],
    "energy": [("OIL", 31.2), ("GAS", 11.2), ("PWR", 10.5)],
}
N_DAYS = 1440  # weekdays from 2016-01-01, ends past 2021-06-01


def gbm_csv(seed: int, start: dt.date) -> str:
    """N_DAYS weekday bars from start in the schema parse_csv reads, floats in their shortest round-trip form."""
    rng = np.random.default_rng(seed)
    s0 = rng.uniform(50.0, 2000.0)
    closes = s0 * np.exp(np.concatenate([[0.0], np.cumsum(rng.normal(4e-4, 0.015, N_DAYS - 1))]))
    lines, day = [CSV_HEADER + "\n"], start
    for close in closes.tolist():
        while day.weekday() >= 5:
            day += dt.timedelta(days=1)
        spread = abs(float(rng.normal(0.0, 0.01))) * close
        open_ = close * (1 + float(rng.normal(0, 0.003)))
        volume = int(rng.integers(10_000, 1_000_000))
        lines.append("%s,%r,%r,%r,%r,%d,%r\n" % (day, open_, close + spread, close - spread, close, volume, close))
        day += dt.timedelta(days=1)
    return "".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default="demo", help="target directory (default: demo)")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    root = Path(args.dir)
    data = root / "data"
    data.mkdir(parents=True, exist_ok=True)
    for i, (symbol, _) in enumerate(w for members in SECTORS.values() for w in members):
        (data / f"{symbol}.csv").write_text(gbm_csv(args.seed * 1000 + i, dt.date(2016, 1, 1)), encoding="utf-8")
        print(f"wrote {data / f'{symbol}.csv'} ({N_DAYS} bars)")

    config = {
        "data_dir": "data",
        "seed": args.seed,
        "capital": 100_000,
        "n_draws": 10_000,
        "risk_free": 0.01,
        "sectors": [
            {"name": name, "members": [[s, w] for s, w in members]}
            for name, members in SECTORS.items()
        ],
        # desk-scale network so the demo trains in seconds
        "lstm": {
            "window": 20,
            "lstm_layers": [16],
            "dense_width": 16,
            "dropout_rate": 0.1,
            "batch_size": 64,
            "epochs": 5,
        },
    }
    (root / "config.yaml").write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    print(f"wrote {root / 'config.yaml'}")


if __name__ == "__main__":
    main()
