"""Run configuration: a YAML file with flat keys, sector blocks, and an lstm block.

load_config is one build call. build types each value where it enters by its field's
annotation (_CHECKS), here, in the sector and lstm blocks and in a checkpoint header, and
rejects unknown keys (catches typos): an integer key rejects 2.7 rather than truncating it,
a numeric key rejects a bool or a string and is stored as a float, and a date key takes a
YAML date or a YYYY-MM-DD string and nothing else. A sector name or symbol, which becomes a
CSV field and part of file names, rejects a comma, a line break, a path separator, and the
names "", "." and "..". Errors name the key. All randomness in a run flows from the single
`seed` via derive_seed, so each subcommand is independently reproducible; the lstm block
has no seed of its own.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import io
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import yaml

from .market_data import decode_utf8, parse_date


@dataclass(frozen=True)
class SectorUniverse:
    """Named sector with member symbols and their index weights.

    Index weights are metadata from the sectoral-index construction; they do
    not constrain portfolio weights.
    """

    name: str
    members: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("members is empty")
        symbols = self.symbols
        for i, (sym, w) in enumerate(self.members):
            if sym in symbols[:i]:
                raise ValueError(f"members: duplicate symbol {sym}")
            if w <= 0:
                raise ValueError(f"members: index weight for {sym} must be > 0")

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.members)


@dataclass(frozen=True)
class LstmConfig:
    """Architecture and training hyperparameters of the forecaster.

    Defaults are the full-scale configuration: a 50-day window feeding two
    256-unit LSTM layers with 30% dropout, a 256-unit dense layer, batch
    size 64, 100 epochs, one-day forecast horizon.
    """

    window: int = 50
    horizon: int = 1
    lstm_layers: tuple[int, ...] = (256, 256)
    dropout_rate: float = 0.3
    dense_width: int = 256
    batch_size: int = 64
    epochs: int = 100
    learning_rate: float = 1e-3
    huber_delta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.window < 1 or self.horizon < 1:
            raise ValueError("window and horizon must be >= 1")
        if not self.lstm_layers or any(w < 1 for w in self.lstm_layers):
            raise ValueError("lstm_layers must be a non-empty list of positive widths")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.dense_width < 1 or self.batch_size < 1:
            raise ValueError("dense_width and batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        for name in ("learning_rate", "huber_delta"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name}: must be positive, got {value}")


@dataclass(frozen=True)
class RunConfig:
    data_dir: Path
    sectors: tuple[SectorUniverse, ...]
    train_start: dt.date = dt.date(2016, 1, 1)
    train_end: dt.date = dt.date(2020, 12, 31)
    invest_date: dt.date = dt.date(2021, 1, 1)
    eval_date: dt.date = dt.date(2021, 6, 1)
    capital: float = 100_000.0
    n_draws: int = 10_000
    risk_free: float = 0.01
    lstm: LstmConfig = field(default_factory=LstmConfig)
    seed: int = 0

    def __post_init__(self):
        if not (self.train_start < self.train_end <= self.invest_date < self.eval_date):
            raise ValueError(
                "need train_start < train_end <= invest_date < eval_date, got "
                f"{self.train_start} / {self.train_end} / {self.invest_date} / {self.eval_date}"
            )
        if self.capital <= 0:
            raise ValueError(f"capital must be positive, got {self.capital}")
        if self.n_draws < 1:
            raise ValueError(f"n_draws: must be >= 1, got {self.n_draws}")
        for i, s in enumerate(self.sectors):
            if s.name in (earlier.name for earlier in self.sectors[:i]):
                raise ValueError(f"sector {s.name}: named again in sectors[{i}]")

    def sector(self, name: str) -> SectorUniverse:
        for s in self.sectors:
            if s.name == name:
                return s
        known = ", ".join(s.name for s in self.sectors)
        raise ValueError(f"unknown sector {name!r} (configured: {known})")

    def require_symbol(self, symbol: str):
        """Reject a symbol no sector lists: it may name a file outside data_dir or --out."""
        if symbol not in self.all_symbols():
            known = ", ".join(self.all_symbols())
            raise ValueError(f"unknown symbol {symbol!r} (configured: {known})")

    def all_symbols(self) -> tuple[str, ...]:
        """Member symbols in config order, first occurrence wins."""
        return tuple(dict.fromkeys(sym for s in self.sectors for sym in s.symbols))


def derive_seed(seed: int, tag: str) -> int:
    """Purpose-specific substream seed: seed XOR first 8 bytes of sha256(tag)."""
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return (seed ^ int.from_bytes(digest[:8], "little")) & (2**63 - 1)


def _as_date(value, key: str) -> dt.date:
    if isinstance(value, dt.date) and not isinstance(value, dt.datetime):
        return value
    if isinstance(value, str):
        try:
            return parse_date(value)
        except ValueError:
            pass
    raise ValueError(f"{key}: expected an ISO date, got {value!r}")


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key}: expected an integer, got {value!r}")
    return value


def _as_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{key}: expected a finite number, got {value!r}{_exponent_hint(value)}")
    return float(value)


def _exponent_hint(value) -> str:
    """Why a number such as 1e5 arrives as a string, and a form that YAML reads as a number:
    YAML 1.1 needs a dot in the mantissa and a sign on the exponent. '' for other values."""
    if not isinstance(value, str) or "e" not in value.lower():
        return ""
    try:
        number = float(value)
    except ValueError:
        return ""
    if not math.isfinite(number):
        return ""
    mantissa, e, exponent = repr(number).partition("e")
    if e and "." not in mantissa:
        mantissa += ".0"
    return f" (YAML 1.1 reads {value} as a string; write {mantissa}{e}{exponent})"


def _as_widths(value, key: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key}: expected a list of integers, got {value!r}")
    return tuple(_as_int(w, key) for w in value)


def _as_name(value, key: str) -> str:
    """A sector name or symbol: a string that is written into CSV files and makes
    file names (<symbol>.csv, <symbol>.ckpt, frontier_<sector>.csv), so it holds
    no comma, line break or path separator and is not empty, "." or ".."."""
    if not isinstance(value, str):
        raise ValueError(f"{key}: expected a string, got {value!r}")
    if any(ch in value for ch in ",\r\n"):
        raise ValueError(f"{key}: {value!r} contains a comma or a line break")
    if value in ("", ".", "..") or any(ch in value for ch in "/\\"):
        raise ValueError(f"{key}: {value!r} is not a file name (empty, '.', '..' or a path separator)")
    return value


def _as_dir(value, key: str) -> Path:
    """A non-empty string: Path('') is '.', which would read the CSVs beside the config."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{key}: expected a directory, got {value!r}")
    return Path(value)


def _as_members(value, key: str) -> tuple[tuple[str, float], ...]:
    if not isinstance(value, list) or not all(isinstance(m, list) and len(m) == 2 for m in value):
        raise ValueError(f"{key}: expected [symbol, index_weight] pairs, got {value!r}")
    return tuple(
        (_as_name(sym, f"{key}[{j}] symbol"), _as_number(weight, f"{key}[{j}] index weight"))
        for j, (sym, weight) in enumerate(value)
    )


def _as_sectors(value, key: str) -> tuple[SectorUniverse, ...]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{key}: expected a non-empty list of sector blocks, got {value!r}")
    return tuple(build(SectorUniverse, block, f"{key}[{i}]") for i, block in enumerate(value))


def _as_lstm(value, key: str) -> LstmConfig:
    """The lstm block, or the defaults where it is null. No seed: train derives each model's from `seed`."""
    return build(LstmConfig, {} if value is None else value, key, seed=0)


# build's check of a value for a field, by the field's annotation: a string, under `from __future__ import annotations`.
_CHECKS = {
    "int": _as_int, "float": _as_number, "str": _as_name, "Path": _as_dir, "dt.date": _as_date,
    "tuple[int, ...]": _as_widths, "tuple[tuple[str, float], ...]": _as_members,
    "tuple[SectorUniverse, ...]": _as_sectors, "LstmConfig": _as_lstm,
}


def build(cls, mapping, context: str, **given):
    """A cls from mapping, read from outside the program, and the fields in given. A key that names no field
    or a field that given fixes is an error, and so is a field without a default that neither sets. Each value
    passes its field's check in _CHECKS, which stores a float field's value as a float. Every error starts
    with context, and a value's error names its key after it."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{context}: expected a mapping, got {mapping!r}")
    settable = {f.name: f for f in fields(cls) if f.name not in given}
    unknown = set(mapping) - set(settable)
    if unknown:
        raise ValueError(f"{context}: unknown keys {sorted(unknown, key=str)}")
    try:
        values = {key: _CHECKS[settable[key].type](value, key) for key, value in mapping.items()}
        required = [k for k, f in settable.items() if f.default is f.default_factory is MISSING]
        missing = sorted(set(required) - set(values))
        if missing:
            raise ValueError(f"missing the keys {missing}")
        return cls(**given, **values)
    except ValueError as exc:
        raise ValueError(f"{context}: {exc}") from None


def _unique_key_loader(base: type) -> type:
    """base (SafeLoader, or CSafeLoader where PyYAML has libyaml) rejecting a key repeated in one mapping,
    where PyYAML keeps the last value, and naming the file and line of an impossible date such as
    2016-02-30. The file is the node mark's: both parsers set it, and CSafeLoader has no self.name."""

    class Loader(base):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                    key = self.construct_object(key_node)
                    if key in seen:
                        mark = key_node.start_mark
                        raise ValueError(f"{mark.name}: line {mark.line + 1}: duplicate key {key!r}")
                    seen.add(key)
            return super().construct_mapping(node, deep)

        def construct_yaml_timestamp(self, node):
            try:
                return super().construct_yaml_timestamp(node)
            except ValueError as exc:
                mark, value = node.start_mark, node.value
                raise ValueError(f"{mark.name}: line {mark.line + 1}: expected a date, got {value!r}: {exc}") from None

    Loader.add_constructor("tag:yaml.org,2002:timestamp", Loader.construct_yaml_timestamp)
    return Loader


_UniqueKeyLoader = _unique_key_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_config(path) -> RunConfig:
    """Load and validate a YAML run configuration; data_dir is relative to the file's directory."""
    path = Path(path)
    stream = io.StringIO(decode_utf8(path.read_bytes(), str(path)))
    stream.name = str(path)  # the file that both parsers' marks name, as they would for an open file
    config = build(RunConfig, yaml.load(stream, Loader=_UniqueKeyLoader), str(path))
    return replace(config, data_dir=path.parent / config.data_dir)
