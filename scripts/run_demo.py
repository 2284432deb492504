#!/usr/bin/env python3
"""Run the full pipeline on the synthetic demo market.

stats -> frontier -> train -> backtest -> plotdata for every sector and
symbol in the demo config; prints each artifact path and the final summary.
"""

import argparse
import datetime as dt
from pathlib import Path

from sectorport.cli import cmd_backtest, cmd_frontier, cmd_plotdata, cmd_stats, cmd_train
from sectorport.config import load_config


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default="demo", help="demo directory from make_demo_data.py")
    args = parser.parse_args()

    root = Path(args.dir)
    config = load_config(root / "config.yaml")
    out = root / "out"

    print(cmd_stats(config, out))
    for sector in config.sectors:
        for path in cmd_frontier(config, sector.name, out):
            print(path)
    for symbol in config.all_symbols():
        for path in cmd_train(config, symbol, out):
            print(path)
    summary = None
    for sector in config.sectors:
        ledger_json, ledger_csv, summary = cmd_backtest(config, sector.name, out)
        print(ledger_json)
        print(ledger_csv)
    lead = config.sectors[0].symbols[0]
    print(cmd_plotdata(config, lead, dt.date(2021, 1, 1), dt.date(2021, 5, 31), out))

    print(f"\n{summary}:")
    print(summary.read_text(), end="")


if __name__ == "__main__":
    main()
