"""The demo market script writes the same bytes for the same seed, the
README's quick start runs on what it writes, and the README's subcommand
table, config example and CSV schema are the program's."""

import argparse
import datetime as dt
import hashlib
import importlib.util
import shlex
import sys
from pathlib import Path

import sectorport.market_data as md
from sectorport.cli import _build_parser, main
from sectorport.config import load_config

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "make_demo_data.py"

# sha256 of the AAA file the script writes at its default seed 11.
AAA_SHA256 = "83b08859fc0903f64d01680a7edb8fdc9e5f7d7d989f0cd8c7370de92eb7f715"


def load_script():
    spec = importlib.util.spec_from_file_location("make_demo_data", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def readme_section(title: str) -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def quick_start_commands() -> list[list[str]]:
    """The arguments of each `sectorport ...` line in the README's Quick start section."""
    section = readme_section("Quick start")
    return [shlex.split(line)[1:] for line in section.splitlines() if line.startswith("sectorport ")]


def test_demo_series_bytes_are_pinned():
    script = load_script()
    text = script.gbm_csv(11000, dt.date(2016, 1, 1))
    assert len(md.parse_csv(text, "AAA").dates) == script.N_DAYS
    assert hashlib.sha256(text.encode()).hexdigest() == AAA_SHA256


def test_readme_quick_start_runs_on_fresh_demo_data(tmp_path, monkeypatch, capsys):
    # the quick start used to train AAA only, so `backtest tech` found no checkpoint for BBB
    commands = quick_start_commands()
    assert {argv[4] for argv in commands} == {"stats", "frontier", "train", "backtest", "plotdata"}
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--dir", "demo"])
    load_script().main()
    for argv in commands:
        assert main(argv) == 0, f"sectorport {shlex.join(argv)}: {capsys.readouterr().err}"
    assert (tmp_path / "demo" / "out" / "ledger_tech.json").exists()


def test_each_demo_csv_is_parsed_once_across_stats_frontier_and_backtest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--dir", "demo"])
    load_script().main()
    symbols = sorted(p.stem for p in (tmp_path / "demo" / "data").glob("*.csv"))
    (tmp_path / "prices.csv").write_text("symbol,price\n" + "".join(f"{s},100\n" for s in symbols))
    parsed, real = [], md.parse_csv
    monkeypatch.setattr(md, "parse_csv", lambda raw, symbol: parsed.append(symbol) or real(raw, symbol))
    for args in (
        ["stats"],
        ["frontier", "tech"],
        ["frontier", "energy"],
        ["backtest", "tech", "--predicted-prices", "prices.csv"],
        ["backtest", "energy", "--predicted-prices", "prices.csv"],
    ):
        assert main(["--config", "demo/config.yaml", "--out", "demo/out", *args]) == 0
    assert sorted(parsed) == symbols
    entries = sorted(p.name for p in (tmp_path / "demo" / "out" / ".cache").iterdir())
    assert entries == sorted([*(f"{s}.cols" for s in symbols), "tech.pick", "energy.pick"])


def test_readme_subcommand_table_lists_exactly_the_subcommands():
    rows = [line for line in readme_section("CLI").splitlines() if line.startswith("| `")]
    documented = [row.split("`")[1].split()[0] for row in rows]
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert documented == list(sub.choices)


def test_readme_config_example_loads(tmp_path):
    # the example is the one a user copies; a key the loader no longer knows would fail here first
    block = readme_section("Configuration").split("```yaml\n", 1)[1].split("```", 1)[0]
    (tmp_path / "c.yaml").write_text(block, encoding="utf-8")
    config = load_config(tmp_path / "c.yaml")
    assert config.data_dir == tmp_path / "data"
    assert (config.seed, config.n_draws, config.lstm.lstm_layers) == (11, 10000, (256, 256))
    assert config.sector("tech").symbols == ("AAA", "BBB")


def test_readme_csv_schema_is_the_parsed_header():
    assert f"header `{md.CSV_HEADER}`" in readme_section("Configuration")
