"""End-to-end subcommand behavior on synthetic data environments."""

import argparse
import ast
import datetime as dt
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from sectorport.cli import (
    _build_parser,
    _load_series,
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
from sectorport.config import RunConfig, SectorUniverse, load_config
from sectorport.market_data import CsvFormatError, parse_csv, serialize_csv

from conftest import gbm_closes, series_from_closes, series_on

SYMBOLS = ["AAA", "BBB", "CCC", "DDD", "EEE"]
N_DAYS = 1440  # weekdays from 2016-01-01 passing 2021-06-01


def write_series(data_dir, symbol, closes, start=dt.date(2016, 1, 1)):
    series = series_from_closes(symbol, closes, start=start)
    (data_dir / f"{symbol}.csv").write_text(serialize_csv(series), encoding="utf-8")
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


# --------------------------------------------------------------- price cache

COLUMNS = ("dates", "open", "high", "low", "closes", "volume", "adj_close")


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


# A cache entry: the CSV's sha256, these columns one after another, then the sha256 of all of that.
ENTRY_COLUMNS = {
    "date": "<M8[D]", "open": "<f8", "high": "<f8", "low": "<f8", "close": "<f8", "volume": "<i8", "adj_close": "<f8",
}


def sealed(digest: bytes, columns: dict) -> bytes:
    """The entry holding digest and columns, whatever their dtypes and lengths, and its trailer."""
    body = digest + b"".join(np.asarray(c).tobytes() for c in columns.values())
    return body + hashlib.sha256(body).digest()


def unsealed(entry: bytes) -> tuple[bytes, dict]:
    """The CSV digest and the columns of a well-formed entry."""
    rows = (len(entry) - 64) // 56
    columns = {
        name: np.frombuffer(entry, dtype, rows, 32 + 8 * rows * k).copy()
        for k, (name, dtype) in enumerate(ENTRY_COLUMNS.items())
    }
    return entry[:32], columns


def test_entry_is_the_csv_digest_the_columns_and_a_sha256_trailer(cached):
    cfg, csv, out, entry = cached
    good = entry.read_bytes()
    assert len(good) == 64 + 56 * 60
    assert good[-32:] == hashlib.sha256(good[:-32]).digest()
    digest, columns = unsealed(good)
    assert digest == hashlib.sha256(csv.read_bytes()).digest()
    assert_same_series(md.series_from_columns("AAA", columns), parsed(csv))
    assert sealed(digest, columns) == good


def test_cache_hit_returns_the_parsed_columns_without_parsing(cached, parses):
    cfg, csv, out, entry = cached
    before = entry.read_bytes()
    assert_same_series(_load_series(cfg, "AAA", out), parsed(csv))
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
        series = _load_series(cfg, "AAA", out)
        assert series.closes[29] == float(fields[4])
        assert_same_series(series, parsed(csv))
    assert parses == ["AAA"]


def with_nan(column):
    column = column.copy()
    column[7] = np.nan
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
    "missing column": lambda d, c: {"volume": None},
    "extra column": lambda d, c: {"extra": np.zeros(60)},
    "one value extra": lambda d, c: {"extra": np.zeros(1)},  # the columns are where a hit reads them
    "short close": lambda d, c: {"close": c["close"][:-1]},
    "NaN close": lambda d, c: {"close": with_nan(c["close"])},
    "NaN open": lambda d, c: {"open": with_nan(c["open"])},
    "low above high": lambda d, c: {"low": c["high"] * 2},
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
    assert_same_series(_load_series(cfg, "AAA", out), parsed(csv))
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
        assert_same_series(_load_series(cfg, "AAA", out), want)
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
    assert files == [".cache/TW1.cols", ".cache/TW2.cols", "frontier_twin.csv", "report_twin.json"]
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


# The export forks from four blocks up; small blocks let small clouds take that path.
SPLIT_BLOCK_ROWS = 64


@pytest.mark.parametrize("n_draws", [255, 256, 257, 461, 1000])
def test_split_frontier_export_writes_the_serial_bytes(config, tmp_path, monkeypatch, n_draws):
    # 256 = 4 blocks is the smallest cloud that forks; 461 and 1000 end in a partial block.
    # cmd_frontier builds the cloud before the export, so BLAS threads exist when it forks.
    monkeypatch.setattr(po, "_CSV_BLOCK_ROWS", SPLIT_BLOCK_ROWS)
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
    monkeypatch.setattr(po, "_CSV_BLOCK_ROWS", SPLIT_BLOCK_ROWS)
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
    # the cloud is built beforehand, so the traced peak is the export's
    cov = po.CovarianceMatrix(tuple(SYMBOLS), np.diag([0.04, 0.05, 0.06, 0.07, 0.08]))
    mean = np.array([0.08, 0.10, 0.12, 0.14, 0.16])
    cloud = po.build_frontier(mean, cov, n_draws=100_000, risk_free=0.01, seed=3)
    monkeypatch.setattr(po, "build_frontier", lambda *args, **kwargs: cloud)
    tracemalloc.start()
    try:
        csv_path, _ = cmd_frontier(config, "tech", tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = csv_path.stat().st_size
    assert len(csv_path.read_text().splitlines()) == 100_001
    # holding the whole text once already reaches the file size
    assert peak < size, f"peak {peak / 1e6:.1f} MB for {size / 1e6:.1f} MB of CSV"


# --------------------------------------------------------------------- train

def test_train_writes_checkpoint_and_single_row_trace(config, tmp_path):
    ckpt, trace = cmd_train(config, "AAA", tmp_path)
    assert ckpt.exists()
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,train_mae,val_loss,val_mae"
    assert len(lines) == 2
    assert lines[1].startswith("1,")


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
        (data / f"{sym}.csv").write_text(serialize_csv(series), encoding="utf-8")
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
    assert not list((tmp_path / "out").glob("ledger_*"))


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


SUMMARY_HEADER = "sector,predicted_return_pct,actual_return_pct"


def assert_summary_rejected_before_any_write(config, tmp_path, line, expected, summary=None):
    """cmd_backtest twin on an out/ whose summary.csv has line as its line 3 raises expected on
    line 3, or, given the whole summary text, raises expected on line 1; either way it writes
    no ledger_twin.* and leaves out/ as it was, every file byte-unchanged."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.csv").write_text(summary or f"{SUMMARY_HEADER}\ntwin,1.00,2.00\n{line}\n")
    (out / "ledger_tech.json").write_text('{"sector": "tech"}\n')
    before = tree(out)
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("symbol,price\nTW1,100.0\nTW2,200.0\n")
    expected = f"{out / 'summary.csv'}: line {3 if summary is None else 1}: {expected}"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        cmd_backtest(config, "twin", out, predicted_prices=pred_file)
    assert not list(out.glob("ledger_twin.*"))
    assert tree(out) == before


@pytest.mark.parametrize("line", ["tech,1.0", "tech,abc,1.0", "tech,1.0,2.0,3.0"])
def test_backtest_malformed_summary_names_file_and_line(config, tmp_path, line):
    expected = f"expected 'sector,predicted_return_pct,actual_return_pct' columns, got {line!r}"
    assert_summary_rejected_before_any_write(config, tmp_path, line, expected)


@pytest.mark.parametrize("line", ["tech,nan,1.0", "tech,1.0,inf", "tech,-inf,1.0", "tech,NaN,-Infinity"])
def test_backtest_nonfinite_summary_return_names_file_and_line(config, tmp_path, line):
    # float() reads these, so they used to pass the column check and be written back
    assert_summary_rejected_before_any_write(config, tmp_path, line, f"tech: expected finite numbers, got {line!r}")


def test_backtest_summary_without_header_names_file_and_line(config, tmp_path):
    # line 1 used to be skipped unread, so the energy row was lost on the next backtest
    summary = "energy,1.00,2.00\ntech,3.00,4.00\n"
    expected = f"expected header {SUMMARY_HEADER!r}, got 'energy,1.00,2.00'"
    assert_summary_rejected_before_any_write(config, tmp_path, None, expected, summary=summary)


def test_backtest_predicted_prices_without_header_names_file_and_line(config, tmp_path):
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("TW1,100.0\nTW2,200.0\n")
    expected = f"{pred_file}: line 1: expected header 'symbol,price', got 'TW1,100.0'"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        cmd_backtest(config, "twin", tmp_path / "out", predicted_prices=pred_file)
    assert not list((tmp_path / "out").glob("ledger_*"))


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


def test_backtest_rerun_leaves_summary_byte_identical(config, env, tmp_path):
    pred_file = tmp_path / "pred.csv"
    pred_file.write_text("symbol,price\n" + "".join(f"{s},100.0\n" for s in SYMBOLS))
    out = tmp_path / "out"
    _, _, summary = cmd_backtest(config, "tech", out, predicted_prices=pred_file)
    first = summary.read_bytes()
    cmd_backtest(config, "tech", out, predicted_prices=pred_file)
    assert summary.read_bytes() == first


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
    closes[np.searchsorted(dates, np.datetime64("2021-02-01"))] = 1e300
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
    closes[np.searchsorted(dates, np.datetime64("2021-05-27"))] = close
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
    closes[np.searchsorted(dates, np.datetime64("2020-12-15"))] = close
    cfg, out = solo_config(tmp_path, closes), tmp_path / "out"
    expected = rf"^AAA on 2020-12-15: close {re.escape(repr(close))} is beyond float32 range once scaled$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=expected):
            cmd_train(cfg, "AAA", out)
    assert not (out / "checkpoints").exists() and not (out / "trace_AAA.csv").exists()
