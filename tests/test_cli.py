"""End-to-end subcommand behavior on synthetic data environments."""

import argparse
import ast
import datetime as dt
import fcntl
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings

from sectorport.cli import (
    _COLS_TAG,
    _build_parser,
    _load_series,
    _read_predicted_prices,
    cmd_backtest,
    cmd_frontier,
    cmd_plotdata,
    cmd_stats,
    cmd_train,
    main,
)
import sectorport
from sectorport import market_data as md
from sectorport import portfolio as po
from sectorport.config import RunConfig, SectorUniverse, derive_seed, load_config
from sectorport.lstm import load_checkpoint
from sectorport.market_data import CsvFormatError, parse_csv

from conftest import gbm_closes, series_csv, series_from_closes, series_on
from test_market_data import csv_documents

SYMBOLS = ["AAA", "BBB", "CCC", "DDD", "EEE"]
N_DAYS = 1440  # weekdays from 2016-01-01 passing 2021-06-01


def write_series(data_dir, symbol, closes, start=dt.date(2016, 1, 1)):
    series = series_from_closes(symbol, closes, start=start)
    (data_dir / f"{symbol}.csv").write_text(series_csv(series), encoding="utf-8")
    return series


def base_doc(**overrides):
    doc = {
        "data_dir": "data",
        "seed": 11,
        "n_draws": 300,
        "sectors": [
            {"name": "tech", "members": [[s, float(10 - i)] for i, s in enumerate(SYMBOLS)]},
            {"name": "twin", "members": [["TW1", 5.0], ["TW2", 5.0]]},
        ],
        "lstm": {
            "window": 10,
            "lstm_layers": [8],
            "dense_width": 8,
            "dropout_rate": 0.0,
            "batch_size": 64,
            "epochs": 1,
        },
    }
    doc.update(overrides)
    return doc


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """Synthetic five-symbol market plus a twin sector, 2016 through mid-2021."""
    root = tmp_path_factory.mktemp("cli-env")
    data = root / "data"
    data.mkdir()
    for i, sym in enumerate(SYMBOLS):
        write_series(data, sym, gbm_closes(N_DAYS, seed=100 + i))
    tw1 = gbm_closes(N_DAYS, seed=200)
    write_series(data, "TW1", tw1)
    write_series(data, "TW2", 2.0 * tw1)  # scaled prices, identical returns
    config_path = root / "config.yaml"
    config_path.write_text(yaml.safe_dump(base_doc()), encoding="utf-8")
    return root


@pytest.fixture
def config(env):
    return load_config(env / "config.yaml")


# -------------------------------------------------------------------- stats

def test_stats_rows_in_config_order(config, tmp_path):
    path = cmd_stats(config, tmp_path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "symbol,mean_daily_return,daily_volatility,annual_volatility"
    assert [l.split(",")[0] for l in lines[1:]] == SYMBOLS + ["TW1", "TW2"]
    for line in lines[1:]:
        _, mean, daily, annual = line.split(",")
        assert float(annual) == pytest.approx(float(daily) * np.sqrt(250), rel=1e-9)


def test_stats_constant_series_has_zero_volatility(env, tmp_path):
    root = tmp_path / "flat"
    (root / "data").mkdir(parents=True)
    write_series(root / "data", "FLT", np.full(300, 42.0))
    cfg_path = root / "c.yaml"
    doc = base_doc(sectors=[{"name": "flat", "members": [["FLT", 1.0]]}])
    cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    path = cmd_stats(load_config(cfg_path), tmp_path / "out")
    row = path.read_text().strip().split("\n")[1].split(",")
    assert float(row[2]) == 0.0 and float(row[3]) == 0.0


@pytest.mark.parametrize("bars, message", [(1, "need at least 2 bars for returns"), (2, "need at least 2 returns")])
def test_stats_too_few_training_bars_names_the_symbol(env, tmp_path, capsys, bars, message):
    # FEW starts on a weekday `bars` weekdays before the training window ends on 2020-12-31
    (tmp_path / "data").mkdir()
    write_series(tmp_path / "data", "FEW", gbm_closes(5, seed=1), start=dt.date(2020, 12, 32 - bars))
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(base_doc(sectors=[{"name": "few", "members": [["FEW", 1.0]]}])))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "stats"]) == 1
    assert capsys.readouterr().err == f"error: FEW: {message}\n"


def test_stats_missing_file_names_symbol_and_path(env, tmp_path):
    doc = base_doc(sectors=[{"name": "ghost", "members": [["ZZZ", 1.0]]}])
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump({**doc, "data_dir": str(env / "data")}), encoding="utf-8")
    with pytest.raises(FileNotFoundError, match="ZZZ") as exc:
        cmd_stats(load_config(cfg_path), tmp_path)
    assert "ZZZ.csv" in str(exc.value)


@pytest.fixture
def overflowing(env, tmp_path):
    """Config of a copy of env's market whose AAA bars from 2019-06-03 on, in the training window,
    have every price at 1e300 but the low, at 1e299: a step, not a spike that parse_csv rejects."""
    data = tmp_path / "data"
    data.mkdir()
    for csv in (env / "data").glob("*.csv"):
        text = csv.read_text()
        if csv.name == "AAA.csv":
            lines = text.split("\n")
            at = next(k for k, line in enumerate(lines) if line.startswith("2019-06-03,"))
            for k in range(at, len(lines) - 1):  # the last line is the empty one after the final newline
                volume = lines[k].split(",")[5]
                lines[k] = ",".join([lines[k][:10], "1e300", "1e300", "1e299", "1e300", volume, "1e300"])
            text = "\n".join(lines)
        (data / csv.name).write_text(text)
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(base_doc(data_dir=str(data))))
    return cfg_path


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stats"], "AAA: daily return mean or variance is not finite"),
        (["frontier", "tech"], "tech: AAA: annualized return mean or variance is not finite"),
        (["backtest", "tech"], "tech: AAA: annualized return mean or variance is not finite"),
        (["train", "AAA"], "AAA: daily return mean or variance is not finite"),
    ],
    ids=["stats", "frontier", "backtest", "train"],
)
def test_overflowing_return_moments_name_the_symbol(overflowing, tmp_path, capsys, argv, message):
    # the CSV parses, since 1e300 is finite, but AAA's return moments overflow: each subcommand fails
    # naming AAA and writes no artifact, neither a stats row nor a checkpoint scaled to that close
    out = tmp_path / "out"
    assert main(["--config", str(overflowing), "--out", str(out), *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in out.iterdir()] == [".cache"]


def test_a_close_that_spikes_and_comes_back_fails_stats_naming_its_line(env, tmp_path, capsys):
    # one AAA bar in the training window at 1e10 used to parse, and stats wrote AAA's annual volatility as
    # about 2e6; the CSV is edited after a first run, so its entry is there and the edit is what a miss sees
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    for csv in (env / "data").glob("*.csv"):
        (data / csv.name).write_bytes(csv.read_bytes())
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(base_doc(data_dir=str(data))))
    assert main(["--config", str(cfg_path), "--out", str(out), "stats"]) == 0
    lines = (data / "AAA.csv").read_text().split("\n")
    at = next(k for k, line in enumerate(lines) if line.startswith("2019-06-03,"))
    before, after = (float(lines[k].split(",")[4]) for k in (at - 1, at + 1))
    lines[at] = f"2019-06-03,1e10,1e10,1e9,1e10,{lines[at].split(',')[5]},1e10"
    (data / "AAA.csv").write_text("\n".join(lines))
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "--out", str(out), "stats"]) == 1
    assert capsys.readouterr().err == (
        f"error: AAA: line {at + 1}: close 10000000000.0 on 2019-06-03 spikes against the closes {before!r} and "
        f"{after!r} either side (a factor beyond 2 from both)\n"
    )


# --------------------------------------------------------------- price cache

COLUMNS = ("dates", "closes")


def assert_same_series(got, want):
    assert got.symbol == want.symbol
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.fixture
def parses(monkeypatch):
    """The symbols parse_csv is called with from here on."""
    seen, real = [], md.parse_csv

    def spy(raw_text, symbol):
        seen.append(symbol)
        return real(raw_text, symbol)

    monkeypatch.setattr(md, "parse_csv", spy)
    return seen


@pytest.fixture
def solo(tmp_path):
    """A config listing only AAA, which has 60 rows under tmp_path/data, and AAA's CSV path."""
    data = tmp_path / "data"
    data.mkdir()
    write_series(data, "AAA", gbm_closes(60, seed=3))
    return RunConfig(data, (SectorUniverse("solo", (("AAA", 1.0),)),)), data / "AAA.csv"


@pytest.fixture
def cached(solo, tmp_path):
    """solo after one load into tmp_path/out: (config, csv, out, cache entry)."""
    cfg, csv = solo
    out = tmp_path / "out"
    _load_series(cfg, "AAA", out)
    return cfg, csv, out, out / ".cache" / "AAA.cols"


def parsed(csv):
    return parse_csv(csv.read_bytes(), "AAA")


# A cache entry: sha256(_COLS_TAG + the row count + the CSV), these columns one after another, then the sha256
# of all of that.
ENTRY_COLUMNS = {"date": "<M8[D]", "close": "<f8"}


def sealed(digest: bytes, columns: dict) -> bytes:
    """The entry holding digest and columns, whatever their dtypes and lengths, and its trailer."""
    body = digest + b"".join(np.asarray(c).tobytes() for c in columns.values())
    return body + hashlib.sha256(body).digest()


def unsealed(entry: bytes) -> tuple[bytes, dict]:
    """The CSV digest and the columns of a well-formed entry."""
    rows = (len(entry) - 64) // 16
    columns = {
        name: np.frombuffer(entry, dtype, rows, 32 + 8 * rows * k).copy()
        for k, (name, dtype) in enumerate(ENTRY_COLUMNS.items())
    }
    return entry[:32], columns


@pytest.mark.parametrize("rows", [1, 2, 3, 60, 1440])
def test_entry_is_the_tagged_csv_digest_the_columns_and_a_sha256_trailer(tmp_path, rows):
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    write_series(data, "AAA", gbm_closes(rows, seed=3))
    csv = data / "AAA.csv"
    _load_series(RunConfig(data, (SectorUniverse("solo", (("AAA", 1.0),)),)), "AAA", out)
    good = (out / ".cache" / "AAA.cols").read_bytes()
    assert len(good) == 64 + 16 * rows
    assert good[-32:] == hashlib.sha256(good[:-32]).digest()
    digest, columns = unsealed(good)
    assert digest == hashlib.sha256(_COLS_TAG + rows.to_bytes(8, "little") + csv.read_bytes()).digest()
    assert_same_series(md.PriceSeries("AAA", columns["date"], columns["close"]), parsed(csv))
    assert sealed(digest, columns) == good


def seven_column_entry(csv) -> bytes:
    """The entry older versions wrote for csv: keyed by the CSV's bare sha256, its seven columns in field order."""
    rows = [line.split(",") for line in csv.read_text(encoding="utf-8").splitlines()[1:]]
    dtypes = ["<M8[D]", "<f8", "<f8", "<f8", "<f8", "<i8", "<f8"]
    columns = {k: np.array([row[k] for row in rows]).astype(t) for k, t in enumerate(dtypes)}
    return sealed(hashlib.sha256(csv.read_bytes()).digest(), columns)


def test_seven_column_entry_of_an_older_version_is_a_miss_that_is_rewritten(cached, parses):
    # 56 bytes a row over 60 rows divides by 16 as well: only the key's tag tells the two layouts apart
    cfg, csv, out, entry = cached
    good = entry.read_bytes()
    entry.write_bytes(seven_column_entry(csv))
    assert (len(entry.read_bytes()) - 64) % 16 == 0
    assert_same_series(_load_series(cfg, "AAA", out)[0], parsed(csv))
    assert parses == ["AAA"]
    assert entry.read_bytes() == good


@given(csv_documents())
@settings(max_examples=60, deadline=None)
def test_a_hit_returns_the_cold_load_bit_for_bit_and_parses_nothing(text):
    try:
        want = parse_csv(text, "AAA")
    except CsvFormatError:
        assume(False)
    with tempfile.TemporaryDirectory() as root:
        data, out = Path(root, "data"), Path(root, "out")
        data.mkdir()
        (data / "AAA.csv").write_bytes(text.encode())
        cfg = RunConfig(data, (SectorUniverse("solo", (("AAA", 1.0),)),))
        with mock.patch.object(md, "parse_csv", wraps=md.parse_csv) as spy:
            cold, cold_key = _load_series(cfg, "AAA", out)
            assert spy.call_count == 1
            hit, hit_key = _load_series(cfg, "AAA", out)
            assert spy.call_count == 1
            assert cold_key == hit_key == (out / ".cache" / "AAA.cols").read_bytes()[:32]
    for series in (cold, hit):
        assert series.symbol == "AAA"
        for name in COLUMNS:
            a, b = getattr(series, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_cache_hit_returns_the_parsed_columns_without_parsing(cached, parses):
    cfg, csv, out, entry = cached
    before = entry.read_bytes()
    series, key = _load_series(cfg, "AAA", out)
    assert_same_series(series, parsed(csv))
    assert key == before[:32]  # a hit hands back its entry's key
    assert parses == []
    assert entry.read_bytes() == before


def test_editing_one_close_invalidates_the_entry(cached, parses):
    cfg, csv, out, entry = cached
    lines = csv.read_text(encoding="utf-8").split("\n")
    fields = lines[30].split(",")
    fields[4] = repr(float(fields[4]) * 1.001)
    lines[30] = ",".join(fields)
    csv.write_text("\n".join(lines), encoding="utf-8")
    for _ in range(2):  # a miss that rewrites the entry, then a hit on it
        series = _load_series(cfg, "AAA", out)[0]
        assert series.closes[29] == float(fields[4])
        assert_same_series(series, parsed(csv))
    assert parses == ["AAA"]


def with_value(column, value):
    column = column.copy()
    column[7] = value
    return column


def npz_entry(good: bytes) -> bytes:
    """The .npz entry that older versions wrote for the same CSV."""
    digest, columns = unsealed(good)
    buf = io.BytesIO()
    np.savez(buf, sha256=digest.hex(), **columns)
    return buf.getvalue()


BYTE_DAMAGE = {
    "empty": lambda good: b"",
    "truncated": lambda good: good[: len(good) // 2],
    "one byte short": lambda good: good[:-1],
    "one byte extra": lambda good: good + b"\0",
    "an .npz entry": npz_entry,
}
# Each re-sealed with a valid trailer, so that it reaches the checks after it: (digest, columns) -> the
# digest or columns to replace; None drops one.
COLUMN_DAMAGE = {
    "another digest": lambda d, c: {"digest": bytes(32)},
    "hex digest": lambda d, c: {"digest": d.hex().encode()},
    "no digest": lambda d, c: {"digest": b""},
    "missing column": lambda d, c: {"close": None},  # 60 dates read as 30 dates and 30 tiny positive closes
    "extra column": lambda d, c: {"extra": np.zeros(60)},
    "one value extra": lambda d, c: {"extra": np.zeros(1)},  # the columns are where a hit reads them
    "short close": lambda d, c: {"close": c["close"][:-1]},
    "NaN close": lambda d, c: {"close": with_value(c["close"], np.nan)},
    "zero close": lambda d, c: {"close": with_value(c["close"], 0.0)},
    "reversed dates": lambda d, c: {"date": c["date"][::-1]},
}


def damaged(good: bytes, damage: str) -> bytes:
    if damage in BYTE_DAMAGE:
        return BYTE_DAMAGE[damage](good)
    digest, columns = unsealed(good)
    parts = {"digest": digest, **columns}
    parts.update(COLUMN_DAMAGE[damage](digest, columns))
    digest = parts.pop("digest")
    return sealed(digest, {k: v for k, v in parts.items() if v is not None})


@pytest.mark.parametrize("damage", [*BYTE_DAMAGE, *COLUMN_DAMAGE])
def test_damaged_entry_is_a_miss_that_parses_and_rewrites_it(cached, parses, damage):
    # the column cases keep the entry's digest unless they name it
    cfg, csv, out, entry = cached
    good = entry.read_bytes()
    entry.write_bytes(damaged(good, damage))
    assert_same_series(_load_series(cfg, "AAA", out)[0], parsed(csv))
    assert parses == ["AAA"]
    assert entry.read_bytes() == good


def test_no_single_byte_flip_yields_other_columns(cached, parses):
    # the trailer covers every byte before it, and a flip in the trailer breaks it; every third byte,
    # 3 being prime to 8, flips each byte place of an 8-byte value in some row
    cfg, csv, out, entry = cached
    good, want = entry.read_bytes(), parsed(csv)
    for i in range(0, len(good), 3):
        entry.write_bytes(good[:i] + bytes([good[i] ^ 0xFF]) + good[i + 1 :])
        parses.clear()
        assert_same_series(_load_series(cfg, "AAA", out)[0], want)
        assert parses == ["AAA"] and entry.read_bytes() == good, i


def test_csv_that_fails_to_parse_raises_as_before_and_writes_no_entry(solo, tmp_path):
    cfg, csv = solo
    lines = csv.read_text(encoding="utf-8").split("\n")
    lines[12] = lines[12].replace(",", ",x", 1)
    csv.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(CsvFormatError, match="^AAA: line 13: malformed row: could not convert"):
        _load_series(cfg, "AAA", tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_and_entries_take_their_mode_from_the_umask(config, tmp_path, umask, mode):
    # mkstemp creates its file 0600 and os.replace kept that mode, whatever the umask
    old = os.umask(umask)
    try:
        cmd_frontier(config, "twin", tmp_path)
    finally:
        os.umask(old)
    files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert files == [".cache/TW1.cols", ".cache/TW2.cols", ".cache/twin.pick", "frontier_twin.csv", "report_twin.json"]
    assert {oct((tmp_path / f).stat().st_mode & 0o777) for f in files} == {oct(mode)}


# ------------------------------------------------------------------ frontier

def test_frontier_outputs_are_byte_identical_across_runs(config, tmp_path):
    a1, b1 = cmd_frontier(config, "tech", tmp_path / "r1")
    a2, b2 = cmd_frontier(config, "tech", tmp_path / "r2")
    assert a1.read_bytes() == a2.read_bytes()
    assert b1.read_bytes() == b2.read_bytes()


def test_frontier_report_weights_complete_and_normalized(config, tmp_path):
    _, report_path = cmd_frontier(config, "tech", tmp_path)
    report = json.loads(report_path.read_text())
    assert report["sector"] == "tech"
    for block in (report["min_risk"], report["opt_risk"]):
        assert sorted(block["weights"]) == sorted(SYMBOLS)
        assert sum(block["weights"].values()) == pytest.approx(1.0, abs=1e-9)


def test_frontier_identical_assets_collapse(config, tmp_path):
    _, report_path = cmd_frontier(config, "twin", tmp_path)
    report = json.loads(report_path.read_text())
    assert report["min_risk"]["annual_risk"] == pytest.approx(
        report["opt_risk"]["annual_risk"], rel=1e-9
    )
    assert report["min_risk"]["annual_return"] == pytest.approx(
        report["opt_risk"]["annual_return"], rel=1e-9
    )


def test_frontier_csv_row_count_honors_draw_override(config, tmp_path):
    csv_path, _ = cmd_frontier(replace(config, n_draws=37), "tech", tmp_path)
    assert len(csv_path.read_text().strip().split("\n")) == 38


def test_frontier_unknown_sector(config, tmp_path):
    with pytest.raises(ValueError, match="unknown sector 'oil'"):
        cmd_frontier(config, "oil", tmp_path)


def test_interrupted_frontier_export_leaves_the_old_file(config, tmp_path, monkeypatch):
    csv_path, report_path = cmd_frontier(config, "tech", tmp_path)
    before = csv_path.read_bytes(), report_path.read_bytes()
    blocks = po.frontier_csv_blocks

    def interrupted(cloud):
        yield from itertools.islice(blocks(cloud), 2)  # the header and the first rows
        raise RuntimeError("export interrupted")

    monkeypatch.setattr(po, "frontier_csv_blocks", interrupted)
    with pytest.raises(RuntimeError, match="export interrupted"):
        cmd_frontier(replace(config, n_draws=50), "tech", tmp_path)
    assert (csv_path.read_bytes(), report_path.read_bytes()) == before
    assert not list(tmp_path.glob(".frontier_*"))


# The export forks from four draw blocks up; small blocks let small clouds take that path.
SPLIT_BLOCK_ROWS = 64


@pytest.mark.parametrize("n_draws", [255, 256, 257, 461, 1000])
def test_split_frontier_export_writes_the_serial_bytes(config, tmp_path, monkeypatch, n_draws):
    # 256 = 4 blocks is the smallest cloud that forks; 461 and 1000 end in a partial block.
    # cmd_frontier builds the cloud before the export, so BLAS threads exist when it forks.
    monkeypatch.setattr(po, "_BLOCK_ROWS", SPLIT_BLOCK_ROWS)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    config = replace(config, n_draws=n_draws)
    split = [p.read_bytes() for p in cmd_frontier(config, "tech", tmp_path / "split")]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = [p.read_bytes() for p in cmd_frontier(config, "tech", tmp_path / "serial")]
    assert len(forks) == (n_draws >= 4 * SPLIT_BLOCK_ROWS)
    assert split == serial
    assert len(split[0].splitlines()) == n_draws + 1
    assert not list(tmp_path.glob("*/.frontier_*"))


@pytest.mark.parametrize("side", ["child", "parent"])
def test_failed_split_frontier_export_leaves_the_old_files_and_no_child(
    config, tmp_path, monkeypatch, side
):
    monkeypatch.setattr(po, "_BLOCK_ROWS", SPLIT_BLOCK_ROWS)
    config = replace(config, n_draws=1000)  # the child writes draws [448, 1000)
    csv_path, report_path = cmd_frontier(replace(config, seed=12), "tech", tmp_path)
    before = csv_path.read_bytes(), report_path.read_bytes()
    blocks = po.frontier_csv_blocks

    def failing(cloud, start=0, stop=None):
        if (start > 0) == (side == "child"):
            yield from itertools.islice(blocks(cloud, start, stop), 2)
            raise RuntimeError(f"{side} export failed")
        if side == "parent":
            time.sleep(60)  # in the child, which the failing parent must kill
        yield from blocks(cloud, start, stop)

    monkeypatch.setattr(po, "frontier_csv_blocks", failing)
    match = r"draws \[448, 1000\): child exited with 1" if side == "child" else "parent export failed"
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=match):
        cmd_frontier(config, "tech", tmp_path)
    assert time.monotonic() - started < 30
    assert (csv_path.read_bytes(), report_path.read_bytes()) == before
    assert not list(tmp_path.glob(".frontier_*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_frontier_export_memory_is_bounded_by_a_block(config, tmp_path, monkeypatch):
    # the cloud is built and the prices are cached beforehand, so the traced peak is the export's
    cov = po.CovarianceMatrix(tuple(SYMBOLS), np.diag([0.04, 0.05, 0.06, 0.07, 0.08]))
    mean = np.array([0.08, 0.10, 0.12, 0.14, 0.16])
    cloud = po.build_frontier(mean, cov, n_draws=100_000, risk_free=0.01, seed=3)
    cmd_frontier(replace(config, n_draws=10), "tech", tmp_path)
    monkeypatch.setattr(po, "build_frontier", lambda *args, **kwargs: cloud)
    # on one usable CPU no child takes the second half, so every block is formatted where it is traced
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    tracemalloc.start()
    try:
        csv_path, _ = cmd_frontier(config, "tech", tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = csv_path.stat().st_size
    assert len(csv_path.read_text().splitlines()) == 100_001
    # the text is 12.6 MB; a 1024-row block with its floats and % arguments peaks near 0.6 MB, an 8192-row one near 4.7
    assert peak < 1.5e6, f"peak {peak / 1e6:.2f} MB for {size / 1e6:.1f} MB of CSV"


# --------------------------------------------------------------------- train

def test_train_writes_checkpoint_and_single_row_trace(config, tmp_path):
    ckpt, trace = cmd_train(config, "AAA", tmp_path)
    assert ckpt.exists()
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,train_mae,val_loss,val_mae"
    assert len(lines) == 2
    assert lines[1].startswith("1,")


def test_train_seeds_the_model_from_the_config_seed_and_the_symbol(config, tmp_path):
    # the checkpoint header records the seed that train gave the model
    configs = [config, replace(config, seed=config.seed + 1)]
    seeds = [load_checkpoint(cmd_train(cfg, "AAA", tmp_path / str(cfg.seed))[0]).config.seed for cfg in configs]
    assert seeds == [derive_seed(cfg.seed, "train:AAA") for cfg in configs]
    assert seeds[0] != seeds[1]


def test_train_reruns_are_byte_identical(config, tmp_path):
    c1, t1 = cmd_train(config, "BBB", tmp_path / "r1")
    c2, t2 = cmd_train(config, "BBB", tmp_path / "r2")
    assert c1.read_bytes() == c2.read_bytes()
    assert t1.read_bytes() == t2.read_bytes()


def solo_config(root, closes, **lstm):
    """A config under root whose one sector holds AAA with the given closes, lstm keys overridden."""
    (root / "data").mkdir(parents=True)
    write_series(root / "data", "AAA", closes)
    doc = base_doc(sectors=[{"name": "solo", "members": [["AAA", 1.0]]}])
    doc["lstm"].update(lstm)
    (root / "c.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")
    return load_config(root / "c.yaml")


@pytest.mark.parametrize(
    "closes, lstm, error, message",
    [
        pytest.param(
            gbm_closes(14, seed=1), {"window": 20}, ValueError,
            "series of length 14 too short for window 20 + horizon 1", id="too-short",
        ),
        pytest.param(
            np.full(300, 42.0), {}, ValueError,
            "need at least 2 distinct values to fit a scaler", id="constant",
        ),
        pytest.param(
            gbm_closes(300, seed=2), {"learning_rate": 1e38}, RuntimeError,
            "non-finite loss at epoch 1, batch ", id="non-finite-loss",
        ),
    ],
)
def test_train_errors_name_the_symbol(tmp_path, closes, lstm, error, message):
    cfg = solo_config(tmp_path, closes, **lstm)
    with pytest.raises(error, match=f"^AAA: {re.escape(message)}"):
        cmd_train(cfg, "AAA", tmp_path / "out")
    assert not (tmp_path / "out" / "checkpoints").exists()


@pytest.mark.parametrize(
    "args",
    [["backtest", "twin"], ["plotdata", "TW2", "--start", "2021-01-04", "--end", "2021-01-08"]],
    ids=["backtest", "plotdata"],
)
def test_corrupt_checkpoint_error_names_the_file(config, env, tmp_path, capsys, args):
    for sym in ("TW1", "TW2"):
        ckpt, _ = cmd_train(config, sym, tmp_path)
    blob = bytearray(ckpt.read_bytes())
    blob[len(blob) // 2] ^= 1  # a payload byte, which only the digest catches
    ckpt.write_bytes(bytes(blob))
    rc = main(["--config", str(env / "config.yaml"), "--out", str(tmp_path), *args])
    assert rc == 1
    message = "checkpoint digest mismatch: the file is corrupt or truncated"
    assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"


def test_corrupt_checkpoint_is_rejected_on_reload(config, tmp_path):
    ckpt, _ = cmd_train(config, "CCC", tmp_path)
    blob = bytearray(ckpt.read_bytes())
    blob[:8] = b"GARBAGE!"
    ckpt.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="magic"):
        cmd_plotdata(config, "CCC", dt.date(2021, 1, 4), dt.date(2021, 1, 8), tmp_path)


# ------------------------------------------------------------------ backtest

def test_backtest_with_predicted_equal_actual(config, env, tmp_path):
    # predicted prices overridden with the actual eval-date closes
    prices = {}
    for sym in SYMBOLS:
        series = parse_csv((env / "data" / f"{sym}.csv").read_bytes(), sym)
        eligible = [c for d, c in zip(series.dates.tolist(), series.closes.tolist()) if d <= config.eval_date]
        prices[sym] = eligible[-1]
    override = tmp_path / "pred.csv"
    override.write_text("symbol,price\n" + "".join(f"{s},{p!r}\n" for s, p in prices.items()))
    json_path, csv_path, summary = cmd_backtest(config, "tech", tmp_path, predicted_prices=override)
    doc = json.loads(json_path.read_text())
    assert doc["roi_predicted_pct"] == pytest.approx(doc["roi_actual_pct"], abs=1e-9)
    assert summary.read_text().startswith("sector,predicted_return_pct,actual_return_pct\n")


def test_backtest_published_it_ledger_via_override_files(tmp_path):
    rows = [
        ("IFY", 27192, 1260, 1387, 1413),
        ("TCS", 27052, 2928, 3153, 3151),
        ("WIP", 26930, 388, 543, 549),
        ("TEM", 214, 978, 1031, 1029),
        ("HCL", 18612, 951, 951, 962),
    ]
    data = tmp_path / "data"
    data.mkdir()
    for sym, _, start_price, end_price, _ in rows:
        # pin the exact invest/eval dates
        series = series_on(sym, [dt.date(2021, 1, 1), dt.date(2021, 6, 1)], [start_price, end_price])
        (data / f"{sym}.csv").write_text(series_csv(series), encoding="utf-8")
    doc = base_doc(
        sectors=[{"name": "it", "members": [[r[0], 10.0] for r in rows]}],
        data_dir=str(data),
    )
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")

    weights_file = tmp_path / "weights.json"
    weights_file.write_text(json.dumps({r[0]: r[1] / 100_000 for r in rows}))
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("symbol,price\n" + "".join(f"{r[0]},{r[4]}\n" for r in rows))

    json_path, _, _ = cmd_backtest(
        load_config(cfg_path), "it", tmp_path / "out",
        predicted_prices=pred_file, weights_file=weights_file,
    )
    ledger = json.loads(json_path.read_text())
    assert ledger["total_actual"] == pytest.approx(115_593, abs=10)
    assert ledger["roi_actual_pct"] == pytest.approx(15.59, abs=0.05)
    assert ledger["roi_predicted_pct"] == pytest.approx(16.77, abs=0.05)


def test_backtest_missing_checkpoint_names_symbol(config, tmp_path):
    with pytest.raises(FileNotFoundError, match="AAA") as info:
        cmd_backtest(config, "tech", tmp_path)
    assert str(tmp_path / "checkpoints" / "AAA.ckpt") in str(info.value)


def test_seven_sector_summary(env, tmp_path):
    sectors = [
        {"name": f"s{i}", "members": [[SYMBOLS[i % 5], 1.0], [SYMBOLS[(i + 1) % 5], 1.0]]}
        for i in range(7)
    ]
    doc = base_doc(sectors=sectors, data_dir=str(env / "data"))
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    cfg = load_config(cfg_path)
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("symbol,price\n" + "".join(f"{s},100.0\n" for s in SYMBOLS))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({s: 0.5 for s in SYMBOLS}))
    out = tmp_path / "out"
    for i in range(7):
        _, _, summary = cmd_backtest(
            cfg, f"s{i}", out, predicted_prices=pred_file, weights_file=weights
        )
    lines = summary.read_text().strip().split("\n")
    assert len(lines) == 8
    assert [l.split(",")[0] for l in lines[1:]] == [f"s{i}" for i in range(7)]


@pytest.mark.parametrize(
    "line", ["BBB", "BBB,abc", "BBB,1.0,2.0", "BBB,nan", "BBB,inf", "BBB,0", "AAA,101.0"]
)
def test_backtest_malformed_predicted_price_names_file_and_line(config, tmp_path, line):
    pred_file = tmp_path / "pred.csv"
    rest = "".join(f"{s},100.0\n" for s in SYMBOLS[2:])
    pred_file.write_text(f"symbol,price\nAAA,100.0\n{line}\n{rest}")
    with pytest.raises(ValueError, match=rf"pred\.csv: line 3"):
        cmd_backtest(config, "tech", tmp_path / "out", predicted_prices=pred_file)
    assert not (tmp_path / "out").exists()  # the file is read before the price cache is written


@pytest.mark.parametrize(
    "text, message",
    [
        # a JSON string or bool is not a weight even where float() takes it, nor is a NaN
        pytest.param(json.dumps({"TW1": "0.5", "TW2": 0.5}), "TW1: expected a finite number", id="0.5-0.5"),
        pytest.param(json.dumps({"TW1": True, "TW2": 0.0}), "TW1: expected a finite number", id="True-0.0"),
        pytest.param(json.dumps({"TW1": float("nan"), "TW2": 1.0}), "TW1: expected a finite number", id="nan-1.0"),
        # these used to fail naming neither the file nor the option
        pytest.param('{"TW1": 0.5,', "not valid JSON", id="truncated-json"),
        pytest.param(json.dumps(["TW1", "TW2"]), "expected a JSON object", id="json-list"),
    ],
)
def test_backtest_weights_file_value_must_be_a_finite_number(config, tmp_path, text, message):
    weights = tmp_path / "w.json"
    weights.write_text(text)
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("symbol,price\nTW1,100.0\nTW2,200.0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(weights))}: {message}"):
        cmd_backtest(config, "twin", tmp_path / "out", predicted_prices=pred_file, weights_file=weights)
    assert not list((tmp_path / "out").glob("ledger_*"))


def test_backtest_weights_file_with_a_repeated_key_is_rejected_before_anything_is_written(config, tmp_path, prices):
    # json keeps the last of two equal keys, so this file used to invest 0.2 in TW1
    weights = tmp_path / "w.json"
    weights.write_text('{"TW1": 0.9, "TW1": 0.2, "TW2": 0.8}')
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^{re.escape(str(weights))}: duplicate key 'TW1'$"):
        cmd_backtest(config, "twin", out, predicted_prices=prices, weights_file=weights)
    assert not out.exists()


def test_backtest_weights_file_that_is_not_utf8_names_file_and_line(config, tmp_path, prices):
    # the codec's error named neither the line nor the byte's place in it, only an offset into the file
    weights = tmp_path / "w.json"
    weights.write_bytes(b'{"TW1": 0.5,\n "TW2": 0.\xff5}')
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^{re.escape(str(weights))}: line 2: not UTF-8: "):
        cmd_backtest(config, "twin", out, predicted_prices=prices, weights_file=weights)
    assert not out.exists()


@pytest.mark.parametrize(
    "weights, message",
    [
        ({"TW1": 0.4, "TW2": 0.5}, "weights sum to 0.9, not 1"),
        ({"TW1": -0.5, "TW2": 1.5}, "weights must be nonnegative"),
    ],
    ids=["sum-0.9", "negative"],
)
def test_backtest_invalid_weights_file_error_names_the_file(config, env, tmp_path, capsys, weights, message):
    weights_file = tmp_path / "w.json"
    weights_file.write_text(json.dumps(weights))
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("symbol,price\nTW1,100.0\nTW2,200.0\n")
    argv = ["--config", str(env / "config.yaml"), "--out", str(tmp_path / "out"), "backtest", "twin"]
    rc = main(argv + ["--predicted-prices", str(pred_file), "--weights-file", str(weights_file)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {weights_file}: {message}\n"


def tree(root: Path) -> dict[str, bytes | None]:
    """Every path under root, with a file's bytes and None for a directory."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def test_backtest_predicted_prices_without_header_names_file_and_line(config, tmp_path):
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("TW1,100.0\nTW2,200.0\n")
    expected = f"{pred_file}: line 1: expected header 'symbol,price', got 'TW1,100.0'"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        cmd_backtest(config, "twin", tmp_path / "out", predicted_prices=pred_file)
    assert not list((tmp_path / "out").glob("ledger_*"))


@pytest.mark.parametrize(
    "body, error",
    [
        (b"\n\nsymbol,price\nAAA,abc\n", "line 4: expected 'symbol,price' columns, got 'AAA,abc'"),
        (b"\n\nsymbol,price\nAAA,1\xff\n", "line 4: not UTF-8: "),
        (b" \r\n\t\nsymbol,price\nTW1,100.0\nTW1,100.0\n", "line 5: TW1 is listed twice"),
        (b"\n\nsym,price\nTW1,100.0\n", "line 3: expected header 'symbol,price', got 'sym,price'"),
    ],
    ids=["columns", "utf-8", "twice", "header"],
)
def test_rows_file_errors_number_lines_as_the_file_does(tmp_path, body, error):
    # lines were numbered after the text was stripped, so leading blank lines shifted every number but the UTF-8 one
    path = tmp_path / "pred.csv"
    path.write_bytes(body)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {error}')}"):
        _read_predicted_prices(path, ("TW1",))


def test_backtest_predicted_prices_missing_a_member_names_file_and_member(config, tmp_path):
    # TW3 is not a twin member, so it is ignored; TW2 is, so its missing price is named before anything is written
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("symbol,price\nTW1,100.0\nTW3,300.0\n")
    expected = f"{pred_file}: missing predicted prices for ['TW2']"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        cmd_backtest(config, "twin", tmp_path / "out", predicted_prices=pred_file)
    assert not (tmp_path / "out").exists()


def test_rows_file_around_blank_lines_and_spaces_is_read(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_bytes(b"\n \n  symbol,price \r\nTW1, 100.0\r\nTW2,200\n\n \n")
    assert _read_predicted_prices(path, ("TW2", "TW1")) == [200.0, 100.0]


def test_rows_file_that_is_not_utf8_names_file_and_line(config, tmp_path):
    # it used to fail as "'utf-8' codec can't decode byte 0xff in position N", naming neither file nor line
    out = tmp_path / "out"
    pred_file = tmp_path / "pred.csv"
    pred_file.write_bytes(b"symbol,price\nTW1,100.0\nTW2,2\xff00.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(pred_file))}: line 3: not UTF-8: "):
        cmd_backtest(config, "twin", out, predicted_prices=pred_file)
    assert not list(out.glob("ledger_*"))


def test_backtest_member_without_bars_from_invest_to_eval_date(env, tmp_path):
    # BBB has no bars from 2021-01-01 to 2021-06-15: it used to be bought at the
    # 2021-06-16 close, after the eval date, and valued at the 2020-12-31 close
    data = tmp_path / "data"
    data.mkdir()
    for sym in SYMBOLS:
        lines = (env / "data" / f"{sym}.csv").read_text().splitlines(keepends=True)
        if sym == "BBB":
            lines = [l for l in lines if not "2021-01-01" <= l[:10] <= "2021-06-15"]
        (data / f"{sym}.csv").write_text("".join(lines))
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(base_doc(data_dir=str(data))), encoding="utf-8")
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("symbol,price\n" + "".join(f"{s},100.0\n" for s in SYMBOLS))
    with pytest.raises(ValueError, match=r"^BBB: no bars in \[2021-01-01, 2021-06-01\]"):
        cmd_backtest(load_config(cfg_path), "tech", tmp_path / "out", predicted_prices=pred_file)
    assert not list((tmp_path / "out").glob("ledger_*"))


def test_backtest_parses_each_member_once(config, tmp_path, monkeypatch):
    import sectorport.market_data as md

    parsed = []
    real = md.parse_csv

    def spy(raw_text, symbol):
        parsed.append(symbol)
        return real(raw_text, symbol)

    monkeypatch.setattr(md, "parse_csv", spy)
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("symbol,price\n" + "".join(f"{s},100.0\n" for s in SYMBOLS))
    cmd_backtest(config, "tech", tmp_path / "out", predicted_prices=pred_file)
    assert sorted(parsed) == sorted(SYMBOLS)


def test_backtest_prediction_is_the_plotdata_row_at_eval_date(config, tmp_path):
    # both subcommands forecast through lstm.forecast; plotdata prints 12 digits
    for sym in ("TW1", "TW2"):
        cmd_train(config, sym, tmp_path)
    json_path, _, _ = cmd_backtest(config, "twin", tmp_path)
    for row in json.loads(json_path.read_text())["rows"]:
        start = config.eval_date - dt.timedelta(days=7)
        plot = cmd_plotdata(config, row["symbol"], start, config.eval_date, tmp_path)
        _, actual, predicted = plot.read_text().strip().split("\n")[-1].split(",")
        assert float(actual) == pytest.approx(row["actual_price"], rel=1e-11)
        assert float(predicted) == pytest.approx(row["predicted_price"], rel=1e-6)


# ---------------------------------------------------------------- pick cache

@pytest.fixture
def prices(tmp_path):
    """A --predicted-prices file for every env symbol, so that a backtest needs no checkpoint."""
    path = tmp_path / "pred.csv"
    path.write_text("symbol,price\n" + "".join(f"{s},100.0\n" for s in [*SYMBOLS, "TW1", "TW2"]))
    return path


@pytest.fixture
def clouds(monkeypatch):
    """The n_draws of each cloud that build_frontier draws from here on."""
    seen, real = [], po.build_frontier
    monkeypatch.setattr(po, "build_frontier", lambda *args: seen.append(args[2]) or real(*args))
    return seen


@pytest.fixture
def moments(monkeypatch):
    """The calls from here on to each of PriceSeries.restrict, md.align and po.mean_and_covariance, by name."""
    seen = Counter()
    for owner, name in [(md.PriceSeries, "restrict"), (md, "align"), (po, "mean_and_covariance")]:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, real=real: seen.update([name]) or real(*args))
    return seen


def moments_of(clouds: int) -> Counter:
    """The calls that taking tech's moments for clouds clouds makes, a restrict for each of its members."""
    return Counter(restrict=len(SYMBOLS) * clouds, align=clouds, mean_and_covariance=clouds)


def backtested(config, out, prices, sector="tech") -> dict[str, bytes]:
    """The ledgers, summary.csv and .pick entry in out after backtest sector."""
    cmd_backtest(config, sector, out, predicted_prices=prices)
    names = [f"ledger_{sector}.json", f"ledger_{sector}.csv", "summary.csv", f".cache/{sector}.pick"]
    return {name: (out / name).read_bytes() for name in names}


def resealed(entry: bytes, payload: bytes) -> bytes:
    """entry's key with payload and their sha256 trailer."""
    return entry[:32] + payload + hashlib.sha256(entry[:32] + payload).digest()


# What runs before the backtest under test, then how its .pick entry is damaged, and whether the backtest
# then draws the cloud.
PICK_SETUPS = {
    "no entry": ([], None, True),
    "entry from frontier": (["frontier"], None, False),
    "entry from backtest": (["backtest"], None, False),
    "a flipped byte": (["frontier"], lambda e: e[:40] + bytes([e[40] ^ 1]) + e[41:], True),
    "truncated": (["frontier"], lambda e: e[:-8], True),
    "a weight short": (["frontier"], lambda e: resealed(e, e[32:-40]), True),
    "a byte short": (["frontier"], lambda e: resealed(e, e[32:-33]), True),
    "a negative weight": (["frontier"], lambda e: resealed(e, np.array([1.5, -0.5, 0, 0, 0]).tobytes()), True),
    "a NaN weight": (["frontier"], lambda e: resealed(e, np.array([np.nan, 1, 0, 0, 0]).tobytes()), True),
}


@pytest.mark.parametrize("runs, damage, drawn", PICK_SETUPS.values(), ids=PICK_SETUPS.keys())
def test_backtest_bytes_do_not_depend_on_the_pick_entry(
    config, tmp_path, prices, clouds, moments, runs, damage, drawn
):
    # a hit takes no moments: its key is the members' .cols keys and the settings, not the mean and covariance
    cold = backtested(config, tmp_path / "cold", prices)
    out, entry = tmp_path / "out", tmp_path / "out" / ".cache" / "tech.pick"
    for run in runs:
        if run == "frontier":
            cmd_frontier(config, "tech", out)
        else:
            cmd_backtest(config, "tech", out, predicted_prices=prices)
    if damage:
        entry.write_bytes(damage(entry.read_bytes()))
    assert moments == moments_of(1 + len(runs))  # the cold backtest's miss, then each run's, frontier's too
    clouds.clear()
    moments.clear()
    assert backtested(config, out, prices) == cold
    assert clouds == [config.n_draws] * drawn
    assert moments == moments_of(drawn)


@pytest.mark.parametrize("n_draws", [300, 20_000])  # one block, and three
def test_pick_entry_is_the_key_the_weights_and_a_sha256_trailer(config, env, tmp_path, prices, n_draws):
    # frontier writes the entry that a cold backtest writes: its opt_risk draw, from the cloud it builds
    config = replace(config, n_draws=n_draws)
    csv_path, report_path = cmd_frontier(config, "tech", tmp_path / "frontier")
    entry = (tmp_path / "frontier" / ".cache" / "tech.pick").read_bytes()
    assert entry == backtested(config, tmp_path / "backtest", prices)[".cache/tech.pick"]
    cols_keys = [(tmp_path / "frontier" / ".cache" / f"{s}.cols").read_bytes()[:32] for s in SYMBOLS]
    for s, cols_key in zip(SYMBOLS, cols_keys):  # each the key of the member's .cols entry, named by its CSV
        csv = (env / "data" / f"{s}.csv").read_bytes()
        rows = len(parse_csv(csv, s).dates)
        assert cols_key == hashlib.sha256(_COLS_TAG + rows.to_bytes(8, "little") + csv).digest()
    seed = derive_seed(config.seed, "frontier:tech")
    settings = (tuple(SYMBOLS), config.train_start, config.train_end, n_draws, config.risk_free, seed)
    key = hashlib.sha256(po._CLOUD_TAG + repr(settings).encode() + b"".join(cols_keys)).digest()
    weights = json.loads(report_path.read_text())["opt_risk"]["weights"]
    payload = np.array([weights[s] for s in SYMBOLS], "<f8").tobytes()
    assert entry == key + payload + hashlib.sha256(key + payload).digest()
    assert len(entry) == 64 + 8 * len(SYMBOLS)


def with_aaa(config, tmp_path, closes):
    """config on a copy of its data whose AAA.csv holds closes."""
    data = tmp_path / "data"
    data.mkdir()
    for csv in config.data_dir.glob("*.csv"):
        (data / csv.name).write_bytes(csv.read_bytes())
    write_series(data, "AAA", closes)
    return replace(config, data_dir=data)


def other_csv(config, tmp_path):
    """config on a copy of its data whose AAA.csv holds another price path."""
    return with_aaa(config, tmp_path, gbm_closes(N_DAYS, seed=999))


def csv_edited_after_train_end(config, tmp_path):
    """config on a copy of its data whose AAA.csv holds 5% higher closes after train_end, the same bytes up to it."""
    closes = gbm_closes(N_DAYS, seed=100)  # AAA's, as env writes it
    after = series_from_closes("AAA", closes, start=dt.date(2016, 1, 1)).dates > np.datetime64(config.train_end)
    new = with_aaa(config, tmp_path, np.where(after, closes * 1.05, closes))
    old, edited = ((c.data_dir / "AAA.csv").read_text().splitlines() for c in (config, new))
    kept = len(after) - after.sum() + 1  # the header and every row up to train_end
    assert old[:kept] == edited[:kept] and old[kept:] != edited[kept:] and len(old) == len(edited)
    return new


STALE = {
    "n_draws": lambda config, tmp_path: replace(config, n_draws=2000),
    "seed": lambda config, tmp_path: replace(config, seed=12),
    "risk_free": lambda config, tmp_path: replace(config, risk_free=0.2),
    "train_start": lambda config, tmp_path: replace(config, train_start=dt.date(2018, 1, 1)),
    "train_end": lambda config, tmp_path: replace(config, train_end=dt.date(2020, 6, 30)),
    "an edited csv": other_csv,
    "a csv edited only after train_end": csv_edited_after_train_end,
}


@pytest.mark.parametrize("change", STALE.values(), ids=STALE.keys())
def test_stale_pick_entry_is_a_miss_that_is_rewritten(config, tmp_path, prices, clouds, moments, change):
    out = tmp_path / "out"
    old = backtested(config, out, prices)[".cache/tech.pick"]
    new = change(config, tmp_path)
    clouds.clear()
    moments.clear()
    assert backtested(new, out, prices) == backtested(new, tmp_path / "cold", prices)
    assert clouds == [new.n_draws] * 2
    assert moments == moments_of(2)
    entry = (out / ".cache" / "tech.pick").read_bytes()
    assert entry[:32] != old[:32]
    # the picks differ, so a hit on the stale entry would have changed the ledger; an edit after train_end
    # leaves the moments, and so the pick, as they were, and draws the cloud once more all the same
    assert (entry[32:-32] == old[32:-32]) == (change is csv_edited_after_train_end)


def test_pick_entry_copied_from_another_sector_is_a_miss(env, tmp_path, prices, clouds):
    # two sectors of two symbols each, so the copied payload has the right length
    doc = base_doc(
        sectors=[
            {"name": "a", "members": [["AAA", 1.0], ["BBB", 1.0]]},
            {"name": "b", "members": [["CCC", 1.0], ["DDD", 1.0]]},
        ],
        data_dir=str(env / "data"),
    )
    (tmp_path / "c.yaml").write_text(yaml.safe_dump(doc))
    config, out = load_config(tmp_path / "c.yaml"), tmp_path / "out"
    other = backtested(config, out, prices, "b")[".cache/b.pick"]
    (out / ".cache" / "a.pick").write_bytes(other)
    clouds.clear()
    got, cold = backtested(config, out, prices, "a"), backtested(config, tmp_path / "cold", prices, "a")
    assert {**got, "summary.csv": None} == {**cold, "summary.csv": None}  # out's summary also holds b's row
    assert clouds == [config.n_draws] * 2
    assert (out / ".cache" / "a.pick").read_bytes()[32:-32] != other[32:-32]


# ------------------------------------------------------------------- summary

def summary_after(config, out, prices, *sectors) -> bytes:
    """summary.csv after a backtest of each of sectors in turn on out."""
    for sector in sectors:
        cmd_backtest(config, sector, out, predicted_prices=prices)
    return (out / "summary.csv").read_bytes()


def sectors_of(summary: bytes) -> list[str]:
    return [line.split(",")[0] for line in summary.decode().splitlines()[1:]]


def test_backtest_rerun_leaves_summary_byte_identical(config, tmp_path, prices):
    # after another sector's backtest, the rerun's row used to move to the end, after twin's
    first = summary_after(config, tmp_path, prices, "tech", "twin")
    assert summary_after(config, tmp_path, prices, "tech") == first
    assert sectors_of(first) == ["tech", "twin"]


def test_summary_bytes_do_not_depend_on_backtest_order(config, tmp_path, prices):
    first = summary_after(config, tmp_path / "a", prices, "twin", "tech")
    assert first == summary_after(config, tmp_path / "b", prices, "tech", "twin")


def test_summary_drops_the_row_of_a_sector_no_longer_configured(config, tmp_path, prices):
    summary_after(config, tmp_path, prices, "tech", "twin")
    only_tech = replace(config, sectors=config.sectors[:1])
    cold = summary_after(only_tech, tmp_path / "cold", prices, "tech")
    assert summary_after(only_tech, tmp_path, prices, "tech") == cold
    assert sectors_of(cold) == ["tech"]


# Each of these summary.csv texts used to be rejected when backtest read the file back.
SUMMARY_HEADER = b"sector,predicted_return_pct,actual_return_pct"
BAD_SUMMARIES = {
    **{f"line {line!r}": SUMMARY_HEADER + b"\ntwin,1.00,2.00\n" + line + b"\n" for line in (
        b"tech,1.0", b"tech,abc,1.0", b"tech,1.0,2.0,3.0",
        b"tech,nan,1.0", b"tech,1.0,inf", b"tech,-inf,1.0", b"tech,NaN,-Infinity",
    )},
    "no header": b"energy,1.00,2.00\ntech,3.00,4.00\n",
    "not UTF-8": SUMMARY_HEADER + b"\ntwin,1.00,2.00\ntech,1.\xff00,2.00\n",
}


@pytest.mark.parametrize("body", BAD_SUMMARIES.values(), ids=BAD_SUMMARIES.keys())
def test_backtest_rebuilds_a_bad_summary_from_the_ledgers(config, tmp_path, prices, body):
    out = tmp_path / "out"
    summary_after(config, out, prices, "tech")
    (out / "summary.csv").write_bytes(body)
    cold = summary_after(config, tmp_path / "cold", prices, "tech", "twin")
    assert summary_after(config, out, prices, "twin") == cold
    assert sectors_of(cold) == ["tech", "twin"]


BAD_LEDGERS = {
    "not JSON": (b'{"roi_predicted_pct": 1.0,', "not valid JSON"),
    "not UTF-8": (b'{"roi_predicted_pct": 1.0,\n "roi_actual_pct": 2.\xff0}', "line 2: not UTF-8: "),
    "a key missing": (b'{"roi_predicted_pct": 1.0}', "missing the keys ['roi_actual_pct']"),
    "a key repeated": (
        b'{"roi_predicted_pct": 1.0, "roi_actual_pct": 2.0, "roi_predicted_pct": 3.0}',
        "duplicate key 'roi_predicted_pct'",
    ),
    "NaN": (b'{"roi_predicted_pct": 1.0, "roi_actual_pct": NaN}', "roi_actual_pct: expected a finite number, got nan"),
    "a string": (
        b'{"roi_predicted_pct": "1.0", "roi_actual_pct": 2.0}',
        "roi_predicted_pct: expected a finite number, got '1.0'",
    ),
}


@pytest.mark.parametrize("body, error", BAD_LEDGERS.values(), ids=BAD_LEDGERS.keys())
def test_bad_ledger_of_another_sector_is_named_before_anything_is_written(config, tmp_path, prices, body, error):
    # twin's first backtest: a late check would have written its .cols and .pick entries by then
    out = tmp_path / "out"
    summary_after(config, out, prices, "tech")
    ledger = out / "ledger_tech.json"
    ledger.write_bytes(body)
    before = tree(out)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{ledger}: {error}')}"):
        cmd_backtest(config, "twin", out, predicted_prices=prices)
    assert tree(out) == before


def test_backtest_waits_for_the_lock_on_out_then_keeps_both_rows(env, config, tmp_path, prices):
    # two backtests started together used to lose a row now and then
    out = tmp_path / "out"
    summary_after(config, out, prices, "twin")
    code = "import sys\nfrom sectorport.cli import main\nprint('imported', flush=True)\nsys.exit(main(sys.argv[1:]))\n"
    argv = ["--config", str(env / "config.yaml"), "--out", str(out), "backtest", "tech"]
    src = str(Path(sectorport.__file__).parents[1])
    lock = os.open(out, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        before = tree(out)
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *argv, "--predicted-prices", str(prices)],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline() == "imported\n"
        with pytest.raises(subprocess.TimeoutExpired):  # it would take a fraction of this
            proc.wait(timeout=1.0)
        assert tree(out) == before
    finally:
        os.close(lock)
    proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert sectors_of((out / "summary.csv").read_bytes()) == ["tech", "twin"]


def test_concurrent_backtests_on_one_out_keep_every_row(env, tmp_path, prices):
    # more processes than CPUs, started together on a fresh out/: a row used to be lost in about 1 of 6 runs
    sectors = [*base_doc()["sectors"], {"name": "duo", "members": [["AAA", 1.0], ["BBB", 1.0]]}]
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(base_doc(sectors=sectors, data_dir=str(env / "data"))))
    out = tmp_path / "out"
    src = str(Path(sectorport.__file__).parents[1])
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "sectorport.cli", "--config", str(cfg_path), "--out", str(out),
             "backtest", s["name"], "--predicted-prices", str(prices)],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.DEVNULL,
        )
        for s in sectors
    ]
    assert [proc.wait(timeout=60) for proc in procs] == [0, 0, 0]
    assert sectors_of((out / "summary.csv").read_bytes()) == ["tech", "twin", "duo"]


# ------------------------------------------------------------------ plotdata

def test_plotdata_single_day_range(config, env, tmp_path):
    cmd_train(config, "AAA", tmp_path)
    series = parse_csv((env / "data" / "AAA.csv").read_bytes(), "AAA")
    day = [d for d in series.dates.tolist() if d >= dt.date(2021, 2, 1)][0]
    path = cmd_plotdata(config, "AAA", day, day, tmp_path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "date,actual_close,predicted_close"
    assert len(lines) == 2
    date_str, actual, predicted = lines[1].split(",")
    assert date_str == day.isoformat()
    idx = series.dates.tolist().index(day)
    assert float(actual) == pytest.approx(series.closes[idx], rel=1e-11)
    assert float(predicted) > 0 and np.isfinite(float(predicted))


def test_plotdata_actual_column_is_passthrough(config, env, tmp_path):
    cmd_train(config, "BBB", tmp_path)
    series = parse_csv((env / "data" / "BBB.csv").read_bytes(), "BBB")
    start, end = dt.date(2021, 1, 1), dt.date(2021, 1, 31)
    path = cmd_plotdata(config, "BBB", start, end, tmp_path)
    lines = path.read_text().strip().split("\n")[1:]
    expect = [(d, c) for d, c in zip(series.dates.tolist(), series.closes.tolist()) if start <= d <= end]
    assert len(lines) == len(expect)
    for line, (d, close) in zip(lines, expect):
        fields = line.split(",")
        assert fields[0] == d.isoformat()
        assert float(fields[1]) == pytest.approx(close, rel=1e-11)


def test_plotdata_range_longer_than_batch_size(config, env, tmp_path):
    # inference runs in blocks of batch_size windows; every day still gets a row
    cmd_train(config, "CCC", tmp_path)
    series = parse_csv((env / "data" / "CCC.csv").read_bytes(), "CCC")
    start, end = dt.date(2020, 6, 1), dt.date(2021, 5, 31)
    days = [d for d in series.dates.tolist() if start <= d <= end]
    assert len(days) > 2 * config.lstm.batch_size
    path = cmd_plotdata(config, "CCC", start, end, tmp_path)
    lines = path.read_text().strip().split("\n")[1:]
    assert [line.split(",")[0] for line in lines] == [d.isoformat() for d in days]
    predicted = np.array([float(line.split(",")[2]) for line in lines])
    assert np.isfinite(predicted).all() and (predicted > 0).all()


@pytest.mark.parametrize("option", ["--start", "--end"])
@pytest.mark.parametrize("date", ["20210104", "2021-W01-1", "2021W011"])
def test_plotdata_accepts_only_yyyy_mm_dd_dates(env, tmp_path, capsys, option, date):
    dates = {"--start": "2021-01-04", "--end": "2021-03-01", option: date}
    argv = ["--config", str(env / "config.yaml"), "--out", str(tmp_path), "plotdata", "AAA"]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--start", dates["--start"], "--end", dates["--end"]])
    assert info.value.code == 2
    assert f"argument {option}" in capsys.readouterr().err


def test_plotdata_range_outside_data(config, tmp_path):
    cmd_train(config, "DDD", tmp_path)
    with pytest.raises(ValueError, match=r"^DDD: no bars in \[2030-01-01, 2030-02-01\]$"):
        cmd_plotdata(config, "DDD", dt.date(2030, 1, 1), dt.date(2030, 2, 1), tmp_path)
    with pytest.raises(ValueError, match="history"):
        cmd_plotdata(config, "DDD", dt.date(2016, 1, 4), dt.date(2016, 1, 8), tmp_path)


def test_plotdata_input_out_of_float32_range_names_symbol_and_date(tmp_path):
    # 1e300 is finite, so the CSV parses, but scaled it is beyond float32 range. The error
    # names the symbol, the bar's date and its close, not the range's first date.
    closes = gbm_closes(N_DAYS, seed=100)
    dates = series_from_closes("AAA", closes, start=dt.date(2016, 1, 1)).dates
    closes[np.searchsorted(dates, np.datetime64("2021-02-01")) :] = 1e300  # a step: parse_csv rejects a spike
    (tmp_path / "data").mkdir()
    write_series(tmp_path / "data", "AAA", closes)
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(base_doc(sectors=[{"name": "solo", "members": [["AAA", 1.0]]}])))
    config, out = load_config(cfg_path), tmp_path / "out"
    cmd_train(config, "AAA", out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from a float32 cast on the way
        with pytest.raises(ValueError, match=r"^AAA on 2021-02-01: close 1e\+300 is beyond float32 range once scaled"):
            cmd_plotdata(config, "AAA", dt.date(2021, 1, 4), dt.date(2021, 3, 1), out)
    assert not (out / "plotdata_AAA.csv").exists()


# ------------------------------------------------------------------ start-up

def test_startup_loads_no_http_stack(env):
    # No subcommand needs the HTTP stack; this guards against one pulling it in at start-up.
    code = (
        "import sys\n"
        "import sectorport.cli\n"
        "from sectorport.config import load_config\n"
        "load_config(sys.argv[1])\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    src = str(Path(sectorport.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, str(env / "config.yaml")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "sectorport.cli" in loaded
    heavy = {"requests", "urllib3", "urllib.request", "http.client", "ssl"}
    assert heavy & loaded == set()
    # the frontier export forks by hand; a process pool would cost every subcommand its import
    assert {"multiprocessing", "concurrent.futures"} & loaded == set()


# ------------------------------------------------------------- full pipeline

def test_full_pipeline_from_one_config(env, tmp_path):
    doc = base_doc(
        sectors=[{"name": "duo", "members": [["AAA", 2.0], ["BBB", 1.0]]}],
        data_dir=str(env / "data"),
        n_draws=150,
    )
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    cfg = load_config(cfg_path)
    out = tmp_path / "out"

    stats = cmd_stats(cfg, out)
    frontier_csv, report = cmd_frontier(cfg, "duo", out)
    for sym in ("AAA", "BBB"):
        cmd_train(cfg, sym, out)
    ledger_json, ledger_csv, summary = cmd_backtest(cfg, "duo", out)
    plot = cmd_plotdata(cfg, "AAA", dt.date(2021, 1, 1), dt.date(2021, 1, 31), out)

    for path in (stats, frontier_csv, report, ledger_json, ledger_csv, summary, plot):
        assert path.exists()
    ledger = json.loads(ledger_json.read_text())
    assert {r["symbol"] for r in ledger["rows"]} == {"AAA", "BBB"}
    assert np.isfinite(ledger["roi_predicted_pct"])


# ------------------------------------------------------- symbols outside config

@pytest.fixture
def outside(tmp_path):
    """Config under tmp_path/run listing only AAA; ZZZ sits in data_dir, EVIL two levels above it."""
    run = tmp_path / "run"
    data = run / "data"
    data.mkdir(parents=True)
    closes = gbm_closes(N_DAYS, seed=100)
    for sym in ("AAA", "ZZZ"):
        write_series(data, sym, closes)
    write_series(tmp_path, "EVIL", closes)
    path = run / "config.yaml"
    path.write_text(yaml.safe_dump(base_doc(sectors=[{"name": "solo", "members": [["AAA", 1.0]]}])))
    return load_config(path), run / "out"


@pytest.mark.parametrize("symbol", ["../../EVIL", "ZZZ"])
def test_train_rejects_symbol_the_config_does_not_list(outside, tmp_path, symbol):
    # "../../EVIL" used to read EVIL.csv above data_dir and write EVIL.ckpt outside --out
    cfg, out = outside
    with pytest.raises(ValueError, match=re.escape(f"unknown symbol {symbol!r}")):
        cmd_train(cfg, symbol, out)
    assert not list(tmp_path.rglob("*.ckpt"))


@pytest.mark.parametrize("symbol", ["../../EVIL", "ZZZ"])
def test_plotdata_rejects_symbol_the_config_does_not_list(outside, tmp_path, symbol):
    cfg, out = outside
    ckpt, _ = cmd_train(cfg, "AAA", out)
    # a loadable checkpoint where the unchecked symbol would look for one
    (out / "checkpoints" / f"{symbol}.ckpt").write_bytes(ckpt.read_bytes())
    with pytest.raises(ValueError, match=re.escape(f"unknown symbol {symbol!r}")):
        cmd_plotdata(cfg, symbol, dt.date(2021, 1, 4), dt.date(2021, 1, 8), out)
    assert sorted(p.name for p in out.iterdir()) == [".cache", "checkpoints", "trace_AAA.csv"]
    assert sorted(p.name for p in (out / ".cache").iterdir()) == ["AAA.cols"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["EVIL.csv", "run"]


def test_main_train_outside_config_exits_nonzero_naming_symbol(outside, tmp_path, capsys):
    cfg, out = outside
    rc = main(["--config", str(tmp_path / "run" / "config.yaml"), "--out", str(out), "train", "../../EVIL"])
    assert rc == 1
    assert "'../../EVIL'" in capsys.readouterr().err


# ----------------------------------------------------------------- main/exit

@pytest.mark.parametrize(
    "bad, message", [(b"x1824.70", "malformed row: could not convert"), (b"\xff", "not UTF-8")]
)
def test_main_price_csv_error_names_symbol_and_line(outside, tmp_path, capsys, bad, message):
    cfg, out = outside
    path = tmp_path / "run" / "data" / "AAA.csv"
    lines = path.read_bytes().split(b"\n")
    lines[5] = lines[5].replace(b",", b"," + bad, 1)
    path.write_bytes(b"\n".join(lines))
    rc = main(["--config", str(tmp_path / "run" / "config.yaml"), "--out", str(out), "stats"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: AAA: line 6: {message}")


def test_main_success_exit_zero(env, tmp_path, capsys):
    rc = main(["--config", str(env / "config.yaml"), "--out", str(tmp_path), "stats"])
    assert rc == 0
    assert "stats.csv" in capsys.readouterr().out


def test_main_calls_the_cmd_function_the_module_holds_when_it_runs(env, tmp_path, capsys, monkeypatch):
    # bench/tracing.py times each stage by replacing cli.cmd_<stage> after the module is imported
    calls = []

    def spy(config, out_dir):
        calls.append((config, out_dir))
        return out_dir / "spied.csv"

    monkeypatch.setattr("sectorport.cli.cmd_stats", spy)
    assert main(["--config", str(env / "config.yaml"), "--out", str(tmp_path), "stats"]) == 0
    assert [(type(config), out_dir) for config, out_dir in calls] == [(RunConfig, tmp_path)]
    assert capsys.readouterr().out == f"{tmp_path / 'spied.csv'}\n"


def test_main_error_exit_nonzero_names_entity(env, tmp_path, capsys):
    rc = main(["--config", str(env / "config.yaml"), "--out", str(tmp_path), "frontier", "oil"])
    assert rc == 1
    assert "oil" in capsys.readouterr().err


def test_main_seed_override_changes_frontier(env, tmp_path, capsys):
    # the seed comes from the config file alone: two files that differ only in it
    for seed in (1, 2):
        cfg_path = tmp_path / f"seed{seed}.yaml"
        doc = base_doc(seed=seed, n_draws=50, data_dir=str(env / "data"))
        cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / str(seed)), "frontier", "tech"]) == 0
    a = (tmp_path / "1" / "frontier_tech.csv").read_bytes()
    b = (tmp_path / "2" / "frontier_tech.csv").read_bytes()
    assert len(a.splitlines()) == 51
    assert a != b


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed=1", "stats"],
        ["frontier", "tech", "--draws=50"],
        ["frontier", "tech", "--risk-free=0.02"],
        ["backtest", "tech", "--draws=50"],
        ["backtest", "tech", "--risk-free=0.02"],
    ],
    ids=" ".join,
)
def test_main_rejects_flags_that_would_shadow_config_keys(env, tmp_path, capsys, argv):
    # seed, n_draws and risk_free are set in the config file only, so the
    # portfolio that frontier reports is the one that backtest invests in
    flag = next(arg for arg in argv if arg.startswith("--"))
    with pytest.raises(SystemExit) as info:
        main(["--config", str(env / "config.yaml"), "--out", str(tmp_path)] + argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_main_has_no_fetch_subcommand(env, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["--config", str(env / "config.yaml"), "--out", str(out), "fetch"])
    assert info.value.code == 2
    assert "invalid choice: 'fetch'" in capsys.readouterr().err
    assert not out.exists()


def test_subcommands_are_the_benchmark_stages():
    # bench/tracing.py spans cli.cmd_<stage> for each of its STAGES and reports cli.<stage>.s;
    # a subcommand added or deleted without its stage would go untimed or read 0
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    stages = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["STAGES"]
    )
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == stages


# The commands that make each subcommand's inputs, then the subcommand, on the env's twin sector.
SUBCOMMAND_RUNS = {
    "stats": [["stats"]],
    "frontier": [["frontier", "twin"]],
    "train": [["train", "TW1"]],
    "backtest": [["train", "TW1"], ["train", "TW2"], ["backtest", "twin"]],
    "plotdata": [["train", "TW1"], ["plotdata", "TW1", "--start", "2021-01-04", "--end", "2021-03-01"]],
}


@pytest.mark.parametrize("runs", SUBCOMMAND_RUNS.values(), ids=SUBCOMMAND_RUNS.keys())
def test_no_subcommand_loads_the_http_stack_while_it_runs(env, tmp_path, runs):
    # test_startup_loads_no_http_stack sees only the imports; this sees what each command loads later
    code = (
        "import json, sys\n"
        "from sectorport.cli import main\n"
        "for argv in json.loads(sys.argv[3]):\n"
        "    assert main(['--config', sys.argv[1], '--out', sys.argv[2], *argv]) == 0, argv\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    src = str(Path(sectorport.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, str(env / "config.yaml"), str(tmp_path / "out"), json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "sectorport.cli" in loaded
    assert {"requests", "urllib3", "urllib.request", "http.client", "ssl"} & loaded == set()


@pytest.mark.parametrize(
    "argv",
    [["stats"], ["frontier", "ghost"], ["train", "ZZZ"], ["backtest", "ghost"],
     ["plotdata", "ZZZ", "--start", "2021-01-04", "--end", "2021-03-01"]],
    ids=lambda argv: argv[0],
)
def test_every_subcommand_names_a_missing_price_file(tmp_path, capsys, argv):
    # data_dir is filled by hand, so a symbol without its <SYMBOL>.csv is the first error a user meets
    (tmp_path / "data").mkdir()
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(base_doc(sectors=[{"name": "ghost", "members": [["ZZZ", 1.0]]}])))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), *argv]) == 1
    assert capsys.readouterr().err == f"error: no data file for ZZZ: expected {tmp_path / 'data' / 'ZZZ.csv'}\n"
    assert not out.exists()


@pytest.mark.parametrize("close", [1e45, 1e300], ids=["1e45", "1e300"])
def test_backtest_input_out_of_float32_range_names_symbol_and_date(tmp_path, close):
    # both closes are finite, so the CSV parses, but in float32 the scaled window holding one is inf
    closes = gbm_closes(N_DAYS, seed=200)
    dates = series_from_closes("TW1", closes, start=dt.date(2016, 1, 1)).dates
    (tmp_path / "data").mkdir()
    write_series(tmp_path / "data", "TW2", closes)
    closes[np.searchsorted(dates, np.datetime64("2021-05-27")) :] = close  # a step: parse_csv rejects a spike
    write_series(tmp_path / "data", "TW1", closes)
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(base_doc(sectors=[{"name": "twin", "members": [["TW1", 5.0], ["TW2", 5.0]]}])))
    config, out = load_config(cfg_path), tmp_path / "out"
    cmd_train(config, "TW1", out)
    cmd_train(config, "TW2", out)
    # eval_date 2021-06-01 is a bar, so TW1's forecast is for that row, from a window holding 2021-05-27
    expected = rf"^TW1 on 2021-05-27: close {re.escape(repr(close))} is beyond float32 range once scaled"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=expected):
            cmd_backtest(config, "twin", out)
    assert not list(out.glob("ledger_*")) and not (out / "summary.csv").exists()


@pytest.mark.parametrize("close", [1e45, 1e300], ids=["1e45", "1e300"])
def test_train_input_out_of_float32_range_names_symbol_and_date(tmp_path, close):
    # the scaler is fit on the training split, so a close on a validation bar
    # (2020-12-15, among the last tenth of 2016-2020's windows) can overflow float32 once scaled
    closes = gbm_closes(N_DAYS, seed=200)
    dates = series_from_closes("AAA", closes, start=dt.date(2016, 1, 1)).dates
    closes[np.searchsorted(dates, np.datetime64("2020-12-15")) :] = close  # a step: parse_csv rejects a spike
    cfg, out = solo_config(tmp_path, closes), tmp_path / "out"
    expected = rf"^AAA on 2020-12-15: close {re.escape(repr(close))} is beyond float32 range once scaled$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=expected):
            cmd_train(cfg, "AAA", out)
    assert not (out / "checkpoints").exists() and not (out / "trace_AAA.csv").exists()
