import datetime as dt
import importlib.util
import json
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorport import config as config_module
from sectorport.config import LstmConfig, RunConfig, SectorUniverse, build, derive_seed, load_config
from sectorport.lstm import Scaler

ROOT = Path(__file__).resolve().parent.parent


def write_config(path, **overrides):
    doc = {
        "data_dir": "data",
        "seed": 11,
        "n_draws": 250,
        "risk_free": 0.01,
        "capital": 100000,
        "sectors": [
            {"name": "tech", "members": [["AAA", 10.0], ["BBB", 5.0]]},
        ],
        "lstm": {"window": 10, "lstm_layers": [8], "dense_width": 8, "epochs": 1},
    }
    doc.update(overrides)
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def test_load_config_basics(tmp_path):
    cfg = load_config(write_config(tmp_path / "c.yaml"))
    assert cfg.seed == 11
    assert cfg.n_draws == 250
    assert cfg.capital == 100000.0
    assert cfg.data_dir == tmp_path / "data"
    assert cfg.sectors[0].name == "tech"
    assert cfg.sectors[0].symbols == ("AAA", "BBB")
    assert cfg.lstm.window == 10
    assert cfg.train_start == dt.date(2016, 1, 1)
    assert cfg.eval_date == dt.date(2021, 6, 1)


def test_unknown_top_level_key_rejected(tmp_path):
    path = write_config(tmp_path / "c.yaml", n_drawz=10)
    with pytest.raises(ValueError, match="n_drawz"):
        load_config(path)


def test_endpoint_is_an_unknown_key_naming_the_file(tmp_path):
    # the fetch subcommand, its only reader, is gone; a config that still sets it fails at load
    path = write_config(tmp_path / "c.yaml", endpoint="http://x")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unknown keys \\['endpoint'\\]$"):
        load_config(path)


@pytest.mark.parametrize("key", ["wndow", "seed"])  # train derives the model's seed from the top-level seed
def test_unknown_lstm_key_rejected(tmp_path, key):
    path = write_config(tmp_path / "c.yaml", lstm={"window": 10, key: 5})
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: lstm: unknown keys \\['{key}'\\]$"):
        load_config(path)


@pytest.mark.parametrize("value", [0, [], False, ""], ids=["zero", "empty-list", "false", "empty-string"])
def test_lstm_block_that_is_not_a_mapping_is_rejected_naming_the_file(tmp_path, value):
    path = write_config(tmp_path / "c.yaml", lstm=value)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: lstm: expected a mapping, got {value!r}')}$"):
        load_config(path)


def test_empty_data_dir_is_rejected_naming_the_file(tmp_path):
    # Path('') joined to the config's directory read the price CSVs from beside the config
    path = write_config(tmp_path / "c.yaml", data_dir="")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: data_dir: expected a directory, got ''$"):
        load_config(path)


def test_data_dir_is_relative_to_the_config_unless_absolute(tmp_path):
    assert load_config(write_config(tmp_path / "c.yaml", data_dir=".")).data_dir == tmp_path
    elsewhere = tmp_path.parent / "elsewhere"
    assert load_config(write_config(tmp_path / "c.yaml", data_dir=str(elsewhere))).data_dir == elsewhere


def test_null_or_missing_lstm_block_loads_the_defaults(tmp_path):
    doc = yaml.safe_load(write_config(tmp_path / "c.yaml").read_text(encoding="utf-8"))
    del doc["lstm"]
    missing = tmp_path / "missing.yaml"
    missing.write_text(yaml.safe_dump(doc), encoding="utf-8")
    for path in (write_config(tmp_path / "null.yaml", lstm=None), missing):
        assert load_config(path).lstm == LstmConfig()


def test_unknown_sector_key_rejected(tmp_path):
    path = write_config(
        tmp_path / "c.yaml",
        sectors=[{"name": "x", "members": [["A", 1.0]], "color": "red"}],
    )
    with pytest.raises(ValueError, match="color"):
        load_config(path)


def test_bad_date_ordering_rejected(tmp_path):
    path = write_config(tmp_path / "c.yaml", train_start="2021-01-01", train_end="2020-01-01")
    with pytest.raises(ValueError, match="train_start"):
        load_config(path)


def test_dates_accepted_as_strings_and_yaml_dates(tmp_path):
    path = write_config(
        tmp_path / "c.yaml", train_start="2017-02-03", train_end=dt.date(2019, 5, 6),
        invest_date="2019-06-01", eval_date="2019-12-01",
    )
    cfg = load_config(path)
    assert cfg.train_start == dt.date(2017, 2, 3)
    assert cfg.train_end == dt.date(2019, 5, 6)


def test_sector_lookup(tmp_path):
    cfg = load_config(write_config(tmp_path / "c.yaml"))
    assert cfg.sector("tech").symbols == ("AAA", "BBB")
    with pytest.raises(ValueError, match="unknown sector 'oops'"):
        cfg.sector("oops")


def test_all_symbols_preserves_order_dedupes(tmp_path):
    path = write_config(
        tmp_path / "c.yaml",
        sectors=[
            {"name": "a", "members": [["X", 1.0], ["Y", 1.0]]},
            {"name": "b", "members": [["Y", 1.0], ["Z", 1.0]]},
        ],
    )
    assert load_config(path).all_symbols() == ("X", "Y", "Z")


@pytest.mark.parametrize("capital", [0, -5])
def test_capital_must_be_positive(tmp_path, capital):
    # the one check of the capital that roi divides by; a float key is stored as a float, so 0 reads 0.0
    path = write_config(tmp_path / "c.yaml", capital=capital)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: capital must be positive, got {capital}\.0$"):
        load_config(path)
    with pytest.raises(ValueError, match=rf"^capital must be positive, got {capital}\.0$"):
        RunConfig(data_dir=".", sectors=(SectorUniverse("s", (("A", 1.0),)),), capital=float(capital))


@pytest.mark.parametrize("n_draws", [0, -1])
def test_n_draws_must_be_positive(tmp_path, n_draws):
    # used to load, and fail only in `frontier`, naming neither the file nor the key
    path = write_config(tmp_path / "c.yaml", n_draws=n_draws)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: n_draws: must be >= 1, got {n_draws}$"):
        load_config(path)
    with pytest.raises(ValueError, match=rf"^n_draws: must be >= 1, got {n_draws}$"):
        RunConfig(data_dir=".", sectors=(SectorUniverse("s", (("A", 1.0),)),), n_draws=n_draws)


@pytest.mark.parametrize("key", ["huber_delta", "learning_rate"])
@pytest.mark.parametrize("value", [0, -1])
def test_nonpositive_lstm_rate_names_its_key_alone(tmp_path, key, value):
    # both keys used to share one message, so a bad huber_delta also named learning_rate;
    # a float key is stored as a float, so the integer 0 reads 0.0
    path = write_config(tmp_path / "c.yaml", lstm={"window": 10, "lstm_layers": [8], key: value})
    expected = f"{path}: lstm: {key}: must be positive, got {float(value)}"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        load_config(path)


def test_derive_seed_is_stable_and_tag_sensitive():
    a = derive_seed(11, "frontier:tech")
    assert a == derive_seed(11, "frontier:tech")
    assert a != derive_seed(11, "frontier:oil")
    assert a != derive_seed(12, "frontier:tech")
    assert 0 <= a < 2**63


@pytest.mark.parametrize("key,value", [("n_draws", 2.7), ("seed", 1.9), ("n_draws", True), ("seed", "3")])
def test_top_level_integer_keys_are_typed_strictly(tmp_path, key, value):
    # 2.7 and 1.9 used to be truncated to 2 and 1
    path = write_config(tmp_path / "c.yaml", **{key: value})
    with pytest.raises(ValueError, match=f"{key}: expected an integer"):
        load_config(path)


@pytest.mark.parametrize("key,value", [("capital", True), ("risk_free", "0.01"), ("risk_free", float("nan"))])
def test_top_level_number_keys_are_typed_strictly(tmp_path, key, value):
    path = write_config(tmp_path / "c.yaml", **{key: value})
    with pytest.raises(ValueError, match=f"{key}: expected a finite number"):
        load_config(path)


@pytest.mark.parametrize("text", ["1e5", "2.5E3", "1e+20", "-3e-05"])
@pytest.mark.parametrize("key", ["capital", "risk_free", "lstm.learning_rate"])
def test_exponent_without_dot_is_rejected_saying_why(tmp_path, key, text):
    # YAML 1.1 reads a float only with a dot and a signed exponent, so 1e5 loads as a string
    doc = yaml.safe_load(write_config(tmp_path / "c.yaml").read_text())
    block, _, name = key.rpartition(".")
    (doc[block] if block else doc)[name] = text
    path = tmp_path / "e.yaml"
    path.write_text(yaml.safe_dump(doc).replace(f"'{text}'", text), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_config(path)
    message = str(exc.value)
    assert message.startswith(f"{path}: {key.replace('.', ': ')}: expected a finite number, got '{text}'")
    hint = re.fullmatch(r".* \(YAML 1\.1 reads (.+) as a string; write (.+)\)", message)
    assert hint and hint[1] == text
    assert yaml.safe_load(f"x: {hint[2]}")["x"] == float(text)


@pytest.mark.parametrize("value", ["0.01", "1e", "e5", "1e999", 1e999])
def test_exponent_hint_only_for_strings_that_yaml_could_read_as_numbers(tmp_path, value):
    path = write_config(tmp_path / "c.yaml", risk_free=value)
    with pytest.raises(ValueError, match="expected a finite number") as exc:
        load_config(path)
    assert "YAML 1.1" not in str(exc.value)


@pytest.mark.parametrize(
    "key,value",
    [
        ("window", True),
        ("window", "10"),
        ("epochs", 1.5),
        ("learning_rate", "1e-3"),  # YAML 1.1 reads 1e-3 without a dot as a string
        ("dropout_rate", False),
        ("lstm_layers", ["8"]),
        ("lstm_layers", [8.0]),
        ("lstm_layers", 8),
    ],
)
def test_lstm_fields_are_typed_strictly(tmp_path, key, value):
    lstm = {"window": 10, "lstm_layers": [8], "dense_width": 8, "epochs": 1, key: value}
    path = write_config(tmp_path / "c.yaml", lstm=lstm)
    with pytest.raises(ValueError, match=f"lstm: {key}: expected"):
        load_config(path)


@pytest.mark.parametrize("name", ["tech,hardware", "tech\nhardware", "tech\r", 7])
def test_sector_name_must_be_a_csv_safe_string(tmp_path, name):
    # a comma or a line break in the name used to corrupt summary.csv
    path = write_config(tmp_path / "c.yaml", sectors=[{"name": name, "members": [["AAA", 1.0]]}])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: sectors\[0\]: name: "):
        load_config(path)


@pytest.mark.parametrize(
    "member,match",
    [
        (["A,B", 1.0], "symbol"),
        ([True, 1.0], "symbol"),  # YAML 1.1 reads an unquoted ON or YES as a bool
        (["AAA", "1.0"], "index weight"),
        (["AAA", True], "index weight"),
    ],
)
def test_sector_members_are_typed_strictly(tmp_path, member, match):
    path = write_config(tmp_path / "c.yaml", sectors=[{"name": "tech", "members": [member]}])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: sectors\[0\]: members\[0\] {match}: "):
        load_config(path)


def test_malformed_date_names_its_key(tmp_path):
    path = write_config(tmp_path / "c.yaml", eval_date="2021-13-01")
    with pytest.raises(ValueError, match="eval_date: expected an ISO date"):
        load_config(path)


@pytest.mark.parametrize("value", ["20160101", "2016-W01-1", "2016W011"])
def test_only_yyyy_mm_dd_date_strings_are_accepted(tmp_path, value):
    # Python 3.11's date.fromisoformat reads all three; 3.10 reads none.
    path = write_config(tmp_path / "c.yaml", train_start=value)
    with pytest.raises(ValueError, match=f"train_start: expected an ISO date, got '{value}'"):
        load_config(path)


@pytest.mark.parametrize("name", ["", ".", "..", "../../EVIL", "tech/hw", "A\\B"])
def test_sector_name_and_symbol_must_be_file_names(tmp_path, name):
    # names become files: <symbol>.csv under data_dir, <symbol>.ckpt and frontier_<sector>.csv under --out
    cases = [
        ({"name": name, "members": [["AAA", 1.0]]}, r"sectors\[0\]: name"),
        ({"name": "tech", "members": [[name, 1.0]]}, r"members\[0\] symbol"),
    ]
    for sector, key in cases:
        path = write_config(tmp_path / "c.yaml", sectors=[sector])
        with pytest.raises(ValueError, match=key):
            load_config(path)


def test_dotted_symbol_stays_valid(tmp_path):
    sectors = [{"name": "nifty.it", "members": [["RELIANCE.NS", 1.0]]}]
    cfg = load_config(write_config(tmp_path / "c.yaml", sectors=sectors))
    assert cfg.all_symbols() == ("RELIANCE.NS",)
    assert cfg.sectors[0].name == "nifty.it"


@pytest.mark.parametrize(
    "text, key, line",
    [
        ("seed: 11\nseed: 12\n", "'seed'", 2),
        ("lstm:\n  window: 10\n  epochs: 1\n  window: 12\n", "'window'", 4),
        ("sectors:\n  - name: tech\n    members: [[AAA, 1.0]]\n    name: energy\n", "'name'", 4),
    ],
)
def test_repeated_key_names_file_key_and_line(tmp_path, text, key, line):
    # PyYAML keeps the last of two equal keys, so `seed: 11` then `seed: 12` loaded as 12
    path = tmp_path / "c.yaml"
    path.write_text("data_dir: data\n" + text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {line + 1}: duplicate key {key}$"):
        load_config(path)


def test_merge_key_then_override_is_not_a_repeat(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(
        "data_dir: data\n"
        "sectors: [{name: tech, members: [[AAA, 1.0]]}]\n"
        "lstm:\n  <<: {window: 10, lstm_layers: [8], epochs: 1}\n  window: 12\n",
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert (cfg.lstm.window, cfg.lstm.lstm_layers, cfg.lstm.epochs) == (12, (8,), 1)


def test_sector_named_twice_is_rejected_naming_file_and_sector(tmp_path):
    # config.sector("tech") returned the first block and ignored the second
    sectors = [
        {"name": "tech", "members": [["AAA", 1.0]]},
        {"name": "energy", "members": [["OIL", 1.0]]},
        {"name": "tech", "members": [["BBB", 1.0]]},
    ]
    path = write_config(tmp_path / "c.yaml", sectors=sectors)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: sector tech: named again in sectors\\[2\\]$"):
        load_config(path)


def test_sector_without_members_is_rejected_naming_file_and_sector(tmp_path):
    # the one check that a sector has members: market_data.align assumes at least one series
    path = write_config(tmp_path / "c.yaml", sectors=[{"name": "tech", "members": []}])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: sectors\[0\]: members is empty$"):
        load_config(path)


def test_empty_sectors_list_is_rejected_naming_the_file(tmp_path):
    # sectors: [] used to load; stats wrote a header-only table and every frontier named no sector
    path = write_config(tmp_path / "c.yaml", sectors=[])
    expected = f"{path}: sectors: expected a non-empty list of sector blocks, got []"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        load_config(path)


@pytest.mark.parametrize(
    "members, message",
    [
        ([["AAA", -1.0]], "sectors[0]: members: index weight for AAA must be > 0"),
        ([["AAA", 1.0], ["AAA", 2.0]], "sectors[0]: members: duplicate symbol AAA"),
        (["AAA"], "sectors[0]: members: expected [symbol, index_weight] pairs, got ['AAA']"),
        ("AAA", "sectors[0]: members: expected [symbol, index_weight] pairs, got 'AAA'"),
    ],
    ids=["negative-weight", "repeated-symbol", "bare-symbol", "not-a-list"],
)
def test_sector_block_errors_name_the_file(tmp_path, members, message):
    path = write_config(tmp_path / "c.yaml", sectors=[{"name": "tech", "members": members}])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_config(path)


def test_readme_configuration_example_loads(tmp_path):
    # the example in README's Configuration section, so that it cannot drift from the config code
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"^```yaml\n(.*?)^```$", section, flags=re.M | re.S)
    path = tmp_path / "c.yaml"
    path.write_text(example, encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.data_dir, cfg.seed, cfg.lstm) == (tmp_path / "data", 11, LstmConfig())
    assert [(s.name, s.members) for s in cfg.sectors] == [("tech", (("AAA", 25.1), ("BBB", 12.4)))]


SECTORS = "sectors: [{name: tech, members: [[AAA, 1.0]]}]\n"


@pytest.mark.parametrize(
    "text, context",
    [
        (SECTORS + "1: a\nfoo: b\n", ""),
        (SECTORS + "lstm: {1: a, foo: b}\n", "lstm: "),
        ("sectors: [{name: tech, members: [[AAA, 1.0]], 1: a, foo: b}]\n", "sectors[0]: "),
    ],
    ids=["top-level", "lstm", "sector"],
)
def test_unknown_keys_of_mixed_types_are_listed_naming_the_file(tmp_path, text, context):
    # sorting 1 with 'foo' raised "'<' not supported between instances of 'str' and 'int'"
    path = tmp_path / "c.yaml"
    path.write_text("data_dir: data\n" + text, encoding="utf-8")
    expected = f"{path}: {context}unknown keys [1, 'foo']"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        load_config(path)


@pytest.mark.parametrize("date", ["2016-02-30", "2021-13-01"])
def test_impossible_yaml_date_names_file_and_line(tmp_path, date):
    # PyYAML's timestamp constructor raised "day is out of range for month", naming neither
    path = tmp_path / "c.yaml"
    path.write_text(f"data_dir: data\n{SECTORS}train_start: {date}\n", encoding="utf-8")
    expected = f"{path}: line 3: expected a date, got {date!r}: "
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}"):
        load_config(path)


BASES = [
    pytest.param(getattr(yaml, "CSafeLoader", None), id="CSafeLoader",
                 marks=pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")),
    pytest.param(yaml.SafeLoader, id="SafeLoader"),
]


def test_the_loader_uses_libyaml_where_pyyaml_has_it():
    base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert issubclass(config_module._UniqueKeyLoader, base)


@pytest.mark.parametrize("base", BASES)
def test_each_parser_loads_the_demo_config_alike(demo_config, monkeypatch, base):
    path, lines = demo_config
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = load_config(path)
    monkeypatch.setattr(config_module, "_UniqueKeyLoader", config_module._unique_key_loader(base))
    assert load_config(path) == want


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize(
    "text, expected",
    [
        ("seed: 11\nseed: 12\n", "line 3: duplicate key 'seed'"),
        ("train_start: 2016-02-30\n", "line 2: expected a date, got '2016-02-30': "),
    ],
    ids=["duplicate-key", "impossible-date"],
)
def test_each_parser_names_the_file_and_line(tmp_path, monkeypatch, base, text, expected):
    # libyaml's parser has no self.name, so the file comes from the node's mark
    monkeypatch.setattr(config_module, "_UniqueKeyLoader", config_module._unique_key_loader(base))
    path = tmp_path / "c.yaml"
    path.write_text("data_dir: data\n" + text + SECTORS, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {expected}')}"):
        load_config(path)


def test_config_that_is_not_utf8_names_file_and_line(tmp_path):
    # the codec's error named neither the file nor the line, only a byte offset
    path = tmp_path / "c.yaml"
    path.write_bytes(b"data_dir: data\n" + SECTORS.encode() + b"seed: 1\xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: not UTF-8: "):
        load_config(path)


# One line of a config in PyYAML's block layout: an optional "- " list-item marker, an optional key, the value.
CONFIG_LINE = re.compile(r"^(?P<head>\s*(?:- )?)(?:(?P<key>\w+):)?(?P<value>.*)$")
MUTANT_VALUES = ["0", "-1", "1e5", "[]", "null", "false", "''", "abc", "{1: a, foo: b}", "2016-02-30", "2021-13-01"]


def block_end(lines: list[str], i: int) -> int:
    """Index just past line i and the lines nested under it: those indented deeper than its
    key, and the list items at its key's indent, which PyYAML writes for a list under a key."""
    column = len(CONFIG_LINE.match(lines[i])["head"])
    end = i + 1
    while end < len(lines):
        indent = len(lines[end]) - len(lines[end].lstrip(" "))
        if indent < column or (indent == column and not lines[end].lstrip(" ").startswith("- ")):
            break
        end += 1
    return end


def mutants(lines: list[str], i: int) -> list[str]:
    """Every config text made by one change to line i of lines: drop it (with what it nests),
    repeat it, retype its value (a scalar becomes a one-item list, a block an empty list),
    turn its key into an integer, or replace its value with one of MUTANT_VALUES."""
    head, key, value = CONFIG_LINE.match(lines[i]).group("head", "key", "value")
    end = block_end(lines, i)
    prefix = head + (f"{key}:" if key else "")
    repeat = [head.replace("-", " ") + lines[i][len(head):] if key else lines[i], *lines[i + 1:end]]
    changes = [
        [],
        lines[i:end] + repeat,
        [f"{prefix} [{value.strip()}]" if value.strip() else f"{prefix} []"],
        *([[f"{head}1:{value}", *lines[i + 1:end]]] if key else []),
        *[[f"{prefix} {v}"] for v in MUTANT_VALUES],
    ]
    return ["\n".join(lines[:i] + change + lines[end:]) + "\n" for change in changes]


@pytest.fixture(scope="module")
def demo_config(tmp_path_factory) -> tuple[Path, list[str]]:
    """A path to write configs to, and the lines of the config scripts/make_demo_data.py
    writes, with the four dates it leaves at their defaults spelled out and each member on one line."""
    root = tmp_path_factory.mktemp("demo")
    spec = importlib.util.spec_from_file_location("make_demo_data", ROOT / "scripts" / "make_demo_data.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "argv", ["make_demo_data.py", "--dir", str(root)])
        script.main()
    doc = yaml.safe_load((root / "config.yaml").read_text(encoding="utf-8"))
    doc.update({f.name: f.default for f in fields(RunConfig) if isinstance(f.default, dt.date)})
    return root / "config.yaml", yaml.safe_dump(doc, sort_keys=False, default_flow_style=None).splitlines()


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_one_change_to_the_demo_config_loads_or_raises_naming_the_file(demo_config, data):
    # each example is a new mutant, so the search ends once every one has been tried
    path, lines = demo_config
    i = data.draw(st.integers(0, len(lines) - 1))
    path.write_text(data.draw(st.sampled_from(mutants(lines, i))), encoding="utf-8")
    try:
        assert isinstance(load_config(path), RunConfig)
    except (ValueError, yaml.YAMLError) as exc:
        assert str(path) in str(exc)


def wrong_values(cls) -> list[tuple[str, object]]:
    """(field, value) for each field of cls: a bool, and a string unless the field holds a string or a path."""
    return [(f.name, v) for f in fields(cls) for v in (True, "x") if v is True or f.type not in ("str", "Path")]


@pytest.mark.parametrize(
    "cls, name, value", [(cls, *case) for cls in (SectorUniverse, LstmConfig, Scaler) for case in wrong_values(cls)]
)
def test_every_sector_lstm_and_scaler_field_rejects_a_wrong_type_naming_its_key(cls, name, value):
    # the check comes from the field's annotation: a type that build has no check for fails here
    with pytest.raises(ValueError, match=f"^where: {name}: expected "):
        build(cls, {name: value}, "where")


@pytest.mark.parametrize("name, value", wrong_values(RunConfig))
def test_every_top_level_field_rejects_a_wrong_type_naming_its_key(tmp_path, name, value):
    path = write_config(tmp_path / "c.yaml", **{name: value})
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {name}: expected "):
        load_config(path)


def test_a_float_key_given_an_integer_is_stored_as_a_float(tmp_path):
    # the lstm block kept YAML's int, so `huber_delta: 1` wrote 1 into the checkpoint header
    path = write_config(tmp_path / "c.yaml", capital=100000, lstm={"huber_delta": 1, "dropout_rate": 0})
    cfg = load_config(path)
    assert [type(v) for v in (cfg.capital, cfg.lstm.huber_delta, cfg.lstm.dropout_rate)] == [float] * 3


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
lstm_configs = st.builds(
    LstmConfig,
    window=st.integers(1, 2**31),
    horizon=st.integers(1, 2**31),
    lstm_layers=st.lists(st.integers(1, 2**31), min_size=1, max_size=4).map(tuple),
    dropout_rate=st.floats(0.0, 1.0, exclude_max=True),
    dense_width=st.integers(1, 2**31),
    batch_size=st.integers(1, 2**31),
    epochs=st.integers(0, 2**31),
    learning_rate=positive,
    huber_delta=positive,
    seed=st.integers(0, 2**63 - 1),
)


@settings(max_examples=200, deadline=None)
@given(lstm_configs)
def test_every_valid_lstm_config_round_trips_through_json(config):
    # the path a checkpoint header takes: asdict, JSON text, then build
    assert build(LstmConfig, json.loads(json.dumps(asdict(config))), "header") == config
