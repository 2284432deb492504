"""Command-line pipeline: stats, frontier, train, backtest, plotdata.

Every subcommand reads one YAML config, derives any randomness it needs from
the config seed and a purpose tag, and writes its artifacts atomically under
--out, so reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import datetime as dt
import fcntl
import hashlib
import json
import os
import sys
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import backtest as bt
from . import lstm as fc
from . import market_data as md
from . import portfolio as po
from .config import RunConfig, _as_number, derive_seed, load_config


@contextmanager
def _atomic_file(path: Path, mode: str):
    """A temporary file beside path, open in mode; it replaces path when the block
    exits cleanly and is removed when the block raises, so path is never partial."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        os.umask(umask := os.umask(0))  # reading the umask means setting it
        os.fchmod(fd, 0o666 & ~umask)  # the mode open() would give, not mkstemp's 0o600
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: Path, data: str | bytes):
    with _atomic_file(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read_entry(path: Path, key) -> memoryview | None:
    """The payload of the .cache entry at path, key + payload + sha256(key + payload), or None for a missing or
    unreadable file, a broken trailer or a key other than key(the payload's length in bytes)."""
    with suppress(OSError):
        entry = memoryview(path.read_bytes())
        sealed = len(entry) >= 64 and entry[-32:] == hashlib.sha256(entry[:-32]).digest()
        if sealed and entry[:32] == key(len(entry) - 64):
            return entry[32:-32]
    return None


def _write_entry(path: Path, key: bytes, payload: bytes):
    _atomic_write(path, key + payload + hashlib.sha256(key + payload).digest())


# Names the .cols payload and the parse that makes it; a new tag turns every entry written before it into a miss.
_COLS_TAG = b"sectorport.cols: dates <M8[D], closes <f8, spikes rejected\n"


def _load_series(config: RunConfig, symbol: str, out_dir: Path) -> md.PriceSeries:
    """symbol's prices, parsed once per out_dir. <out_dir>/.cache/<symbol>.cols is an entry keyed by
    sha256(_COLS_TAG + rows as 8 little-endian bytes + the CSV's bytes) whose payload is the dates as little-endian
    datetime64[D], then the closes as little-endian float64. A payload of 16 * rows bytes that makes a PriceSeries
    is a hit; anything else is a miss, which parses the CSV and rewrites the entry."""
    path = Path(config.data_dir) / f"{symbol}.csv"
    if not path.exists():
        raise FileNotFoundError(f"no data file for {symbol}: expected {path}")
    raw = path.read_bytes()

    def key(size: int) -> bytes:  # the row count is keyed, so a payload of the wrong rows or columns is a miss
        return hashlib.sha256(_COLS_TAG + (size // 16).to_bytes(8, "little") + raw).digest()

    cache = Path(out_dir) / ".cache" / f"{symbol}.cols"
    payload = _read_entry(cache, key)
    if payload is not None and len(payload) % 16 == 0:
        half = len(payload) // 2
        with suppress(ValueError):
            return md.PriceSeries(symbol, np.frombuffer(payload[:half], "<M8[D]"), np.frombuffer(payload[half:], "<f8"))
    series = md.parse_csv(raw, symbol)
    payload = series.dates.astype("<M8[D]").tobytes() + series.closes.astype("<f8").tobytes()
    _write_entry(cache, key(len(payload)), payload)
    return series


def cmd_stats(config: RunConfig, out_dir: Path) -> Path:
    """Per-symbol mean daily return and daily/annual volatility over the training window."""
    lines = ["symbol,mean_daily_return,daily_volatility,annual_volatility"]
    for symbol in config.all_symbols():
        series = _load_series(config, symbol, out_dir).restrict(config.train_start, config.train_end)
        try:
            mean, daily, annual = md.asset_stats(md.daily_returns(series.closes))
        except ValueError as exc:  # too few bars in the training window, or an overflow
            raise ValueError(f"{symbol}: {exc}") from None
        lines.append(f"{symbol},{mean:.12g},{daily:.12g},{annual:.12g}")
    path = Path(out_dir) / "stats.csv"
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def _load_members(config: RunConfig, sector_name: str, out_dir: Path) -> dict[str, md.PriceSeries]:
    return {sym: _load_series(config, sym, out_dir) for sym in config.sector(sector_name).symbols}


def _sector_cloud(config: RunConfig, sector_name: str, members: dict[str, md.PriceSeries], out_dir: Path):
    """(args, path, key) of the sector's cloud over the training window of its loaded member series: args are
    build_frontier's (mean, covariance, n_draws, risk_free, seed), and <out_dir>/.cache/<sector>.pick is the
    entry of the cloud's max-Sharpe weights, k little-endian float64 values, keyed by the sha256 of the cloud's
    tag, repr((symbols, n_draws, risk_free, seed)) and the mean and covariance as little-endian float64 values."""
    series = [s.restrict(config.train_start, config.train_end) for s in members.values()]
    try:
        mean, cov = po.mean_and_covariance(tuple(members), md.align(series))
    except ValueError as exc:
        raise ValueError(f"{sector_name}: {exc}") from None
    args = mean, cov, config.n_draws, config.risk_free, derive_seed(config.seed, f"frontier:{sector_name}")
    key = po._CLOUD_TAG + repr((cov.symbols, *args[2:])).encode() + mean.astype("<f8").tobytes()
    key += cov.entries.astype("<f8").tobytes()
    return args, Path(out_dir) / ".cache" / f"{sector_name}.pick", hashlib.sha256(key).digest()


def _write_frontier_csv(fh, cloud: po.FrontierCloud, path: Path):
    """Write cloud's export to fh. On two or more usable CPUs, for a cloud of four
    draw blocks or more, a forked child formats the second half into a tail file
    beside path while this process writes the first; the tail is then appended by a
    kernel copy. A failure on either side raises, removes the tail and leaves no child."""
    mid = cloud.n_draws // (2 * po._BLOCK_ROWS) * po._BLOCK_ROWS
    # Every platform that has sched_getaffinity also has fork.
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(cpus) < 2 or mid < 2 * po._BLOCK_ROWS:
        fh.writelines(po.frontier_csv_blocks(cloud))
        return
    fd, tail = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as out:
            pid = os.fork()
            if pid == 0:  # the child leaves by os._exit, so it runs none of the parent's cleanup
                try:
                    out.writelines(po.frontier_csv_blocks(cloud, mid))
                    out.flush()
                except BaseException:
                    os._exit(1)
                os._exit(0)
        try:
            fh.writelines(po.frontier_csv_blocks(cloud, 0, mid))
        except BaseException:
            import signal
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status:
            raise RuntimeError(f"frontier export of draws [{mid}, {cloud.n_draws}): child exited with {status}")
        fh.flush()
        with open(tail, "rb") as src:
            while os.sendfile(fh.fileno(), src.fileno(), None, 1 << 30):
                pass
    finally:
        os.unlink(tail)


def cmd_frontier(config: RunConfig, sector_name: str, out_dir: Path) -> tuple[Path, Path]:
    """Write the frontier cloud CSV and the two-portfolio report JSON for a sector.

    The CSV is the same bytes however it is written: serially on one usable CPU,
    where os.fork does not exist, or for a cloud of fewer than four draw
    blocks, and otherwise by two processes (see _write_frontier_csv), during
    which a .frontier_<sector>.csv.* tail file exists beside the output.
    """
    args, pick, key = _sector_cloud(config, sector_name, _load_members(config, sector_name, out_dir), out_dir)
    cloud = po.build_frontier(*args)
    best = po.max_sharpe_portfolio(cloud)
    report = po.portfolio_report(sector_name, cloud, po.min_variance_portfolio(cloud), best)
    csv_path = Path(out_dir) / f"frontier_{sector_name}.csv"
    json_path = Path(out_dir) / f"report_{sector_name}.json"
    with _atomic_file(csv_path, "w") as fh:
        _write_frontier_csv(fh, cloud, csv_path)
    _atomic_write(json_path, _json_text(report))
    _write_entry(pick, key, cloud.weights[best].astype("<f8").tobytes())
    return csv_path, json_path


def cmd_train(config: RunConfig, symbol: str, out_dir: Path) -> tuple[Path, Path]:
    """Train the forecaster on a symbol's training-window closes; write checkpoint and trace."""
    config.require_symbol(symbol)
    series = _load_series(config, symbol, out_dir).restrict(config.train_start, config.train_end)
    lstm_config = replace(config.lstm, seed=derive_seed(config.seed, f"train:{symbol}"))
    try:
        model, trace = fc.train(lstm_config, series.closes)
        md.asset_stats(md.daily_returns(series.closes))  # stats' check, after train's so that its errors come first
    except fc.InputRangeError as exc:  # named at the bar that holds the close
        raise ValueError(f"{symbol} on {series.dates[exc.row]}: {exc}") from None
    except (ValueError, RuntimeError) as exc:  # too short, constant, a non-finite loss, or overflowing return moments
        raise type(exc)(f"{symbol}: {exc}") from None
    ckpt_path = Path(out_dir) / "checkpoints" / f"{symbol}.ckpt"
    trace_path = Path(out_dir) / f"trace_{symbol}.csv"
    _atomic_write(ckpt_path, fc.checkpoint_bytes(model))
    _atomic_write(trace_path, fc.trace_csv_text(trace))
    return ckpt_path, trace_path


def _read_predicted_prices(path: Path) -> dict[str, float]:
    """A --predicted-prices CSV: a first non-blank line 'symbol,price', then a positive price per symbol, each
    symbol listed once; every error names path and the file's line."""
    header = "symbol,price"
    text = md.decode_utf8(path.read_bytes(), str(path))
    first = text[: len(text) - len(text.lstrip())].count("\n") + 1  # the header's line number
    lines = text.strip().split("\n")
    if lines[0].strip() != header:
        raise ValueError(f"{path}: line {first}: expected header {header!r}, got {lines[0]!r}")
    prices = {}
    for lineno, line in enumerate(lines[1:], start=first + 1):
        sym, *fields = [field.strip() for field in line.split(",")]
        try:
            (price,) = [float(f) for f in fields]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: expected '{header}' columns, got {line!r}") from None
        if not np.isfinite(price):
            raise ValueError(f"{path}: line {lineno}: {sym}: expected a finite price, got {line!r}")
        if sym in prices:
            raise ValueError(f"{path}: line {lineno}: {sym} is listed twice")
        if price <= 0:
            raise ValueError(f"{path}: line {lineno}: {sym}: price {price:g} is not positive")
        prices[sym] = price
    return prices


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict, rejecting a key repeated in one object, where json keeps the last value."""
    mapping = {}
    for key, value in pairs:
        if key in mapping:
            raise ValueError(f"duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _read_json(path: Path, keys: tuple[str, ...], build=list):
    """build(the finite numbers at keys of the JSON object in the file at path); its errors and build's name path."""
    text = md.decode_utf8(Path(path).read_bytes(), str(path))
    try:
        mapping = json.loads(text, object_pairs_hook=_unique_keys)
        if not isinstance(mapping, dict):
            raise ValueError(f"expected a JSON object with the keys {list(keys)}")
        missing = [k for k in keys if k not in mapping]
        if missing:
            raise ValueError(f"missing the keys {missing}")
        return build([_as_number(mapping[k], k) for k in keys])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _forecast(series: md.PriceSeries, out_dir: Path, lo: int, hi: int) -> np.ndarray:
    """Predicted closes for rows [lo, hi) of series, from its symbol's checkpoint under out_dir."""
    ckpt = Path(out_dir) / "checkpoints" / f"{series.symbol}.ckpt"
    if not ckpt.exists():
        raise FileNotFoundError(f"no checkpoint for {series.symbol}: expected {ckpt}")
    try:
        model = fc.load_checkpoint(ckpt)
    except ValueError as exc:
        raise ValueError(f"{ckpt}: {exc}") from None
    try:
        return fc.forecast(model, series.closes, lo, hi)
    except fc.InputRangeError as exc:  # named at the bar that holds the close
        raise ValueError(f"{series.symbol} on {series.dates[exc.row]}: {exc}") from None
    except (ValueError, FloatingPointError) as exc:  # too little history, or a parameter blow-up
        raise type(exc)(f"{series.symbol} on {series.dates[lo]}: {exc}") from None


def cmd_backtest(
    config: RunConfig,
    sector_name: str,
    out_dir: Path,
    predicted_prices: Path | None = None,
    weights_file: Path | None = None,
) -> tuple[Path, Path, Path]:
    """Invest the configured capital per the sector's max-Sharpe weights and value it.

    Each member is bought at its first close in [invest_date, eval_date] and
    valued at its last close in that range. Predicted end prices come from the
    per-symbol checkpoints unless a --predicted-prices CSV overrides them; a
    --weights-file JSON (symbol -> fraction) overrides the frontier-recommended
    weights. summary.csv is rebuilt from the ledgers: a row for each configured
    sector that has a ledger_<sector>.json, in config order. The command holds
    an exclusive flock on the out_dir directory itself, so backtests on one
    out_dir run one at a time and no lock file is made; an out_dir that it
    made and left empty is removed when it fails.
    """
    out_dir = Path(out_dir)
    made = not out_dir.is_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = os.open(out_dir, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        roi_keys = ("roi_predicted_pct", "roi_actual_pct")
        rois = {  # these and the two files below are read before anything, the price cache too, is written
            s.name: _read_json(path, roi_keys)
            for s in config.sectors
            if s.name != sector_name and (path := out_dir / f"ledger_{s.name}.json").exists()
        }
        symbols = config.sector(sector_name).symbols
        weights = None if weights_file is None else _read_json(
            weights_file, symbols, lambda w: po.PortfolioWeights(symbols, np.array(w))
        )
        end_predicted = None
        if predicted_prices is not None:
            end_predicted = _read_predicted_prices(predicted_prices)
            missing = [s for s in symbols if s not in end_predicted]
            if missing:
                raise ValueError(f"{predicted_prices}: missing predicted prices for {missing}")
        members = _load_members(config, sector_name, out_dir)
        if weights is None:
            args, pick, key = _sector_cloud(config, sector_name, members, out_dir)
            payload = _read_entry(pick, lambda size: key)
            with suppress(ValueError):  # a payload of another length, or weights that are not a portfolio, is a miss
                weights = None if payload is None else po.PortfolioWeights(symbols, np.frombuffer(payload, "<f8"))
            if weights is None:  # frontier's cloud and pick, so the entry is the one frontier writes
                cloud = po.build_frontier(*args)
                weights = po.PortfolioWeights(symbols, cloud.weights[po.max_sharpe_portfolio(cloud)])
                _write_entry(pick, key, weights.weights.astype("<f8").tobytes())

        buy, actual, predicted = [], [], []
        for sym, series in members.items():
            lo, hi = series.span(config.invest_date, config.eval_date)
            buy.append(float(series.closes[lo]))
            actual.append(float(series.closes[hi - 1]))
            if end_predicted is None:
                predicted.append(float(_forecast(series, out_dir, hi - 1, hi)[0]))
            else:
                predicted.append(end_predicted[sym])

        ledger = bt.run_backtest(config.capital, weights, buy, actual, predicted, sector_name)
        json_path = out_dir / f"ledger_{sector_name}.json"
        csv_path = out_dir / f"ledger_{sector_name}.csv"
        summary_path = out_dir / "summary.csv"
        _atomic_write(json_path, _json_text(ledger))
        _atomic_write(csv_path, bt.ledger_csv_text(ledger))
        rois[sector_name] = [ledger[k] for k in roi_keys]
        _atomic_write(summary_path, bt.summary_csv_text(
            [(s.name, *rois[s.name]) for s in config.sectors if s.name in rois]
        ))
        return json_path, csv_path, summary_path
    except BaseException:
        if made:  # a failure before any write leaves no --out behind
            with suppress(OSError):
                out_dir.rmdir()
        raise
    finally:
        os.close(lock)  # which releases the flock


def cmd_plotdata(
    config: RunConfig, symbol: str, start: dt.date, end: dt.date, out_dir: Path
) -> Path:
    """Actual vs one-day-ahead predicted closes over a date range.

    Each prediction consumes the trailing window of *actual* closes, matching
    day-by-day tracking rather than recursive multi-step forecasting.
    """
    config.require_symbol(symbol)
    series = _load_series(config, symbol, out_dir)
    lo, hi = series.span(start, end)
    predicted = _forecast(series, out_dir, lo, hi)

    lines = ["date,actual_close,predicted_close"]
    rows = zip(series.dates[lo:hi].tolist(), series.closes[lo:hi].tolist(), predicted.tolist())
    for day, actual, pred in rows:
        lines.append(f"{day.isoformat()},{actual:.12g},{pred:.12g}")
    path = Path(out_dir) / f"plotdata_{symbol}.csv"
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def _build_parser() -> argparse.ArgumentParser:
    """The sectorport parser. Each subcommand's run(args, config) calls its cmd_*, looked up when called."""
    parser = argparse.ArgumentParser(prog="sectorport", description=__doc__)
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--out", default="out", type=Path, help="output directory (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="per-symbol return/volatility table")
    p.set_defaults(run=lambda args, config: [cmd_stats(config, args.out)])

    p = sub.add_parser("frontier", help="Monte-Carlo frontier and portfolio report")
    p.add_argument("sector")
    p.set_defaults(run=lambda args, config: cmd_frontier(config, args.sector, args.out))

    p = sub.add_parser("train", help="train the forecaster for one symbol")
    p.add_argument("symbol")
    p.set_defaults(run=lambda args, config: cmd_train(config, args.symbol, args.out))

    p = sub.add_parser("backtest", help="allocate at invest_date, value at eval_date")
    p.add_argument("sector")
    p.add_argument("--predicted-prices", type=Path, help="CSV 'symbol,price' overriding model predictions")
    p.add_argument("--weights-file", type=Path, help="JSON {symbol: fraction} overriding frontier weights")
    p.set_defaults(run=lambda args, config: cmd_backtest(
        config, args.sector, args.out, args.predicted_prices, args.weights_file
    ))

    p = sub.add_parser("plotdata", help="actual vs predicted close series")
    p.add_argument("symbol")
    p.add_argument("--start", required=True, type=md.parse_date, help="YYYY-MM-DD")
    p.add_argument("--end", required=True, type=md.parse_date, help="YYYY-MM-DD")
    p.set_defaults(run=lambda args, config: [cmd_plotdata(config, args.symbol, args.start, args.end, args.out)])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for path in args.run(args, load_config(args.config)):
            print(path)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
