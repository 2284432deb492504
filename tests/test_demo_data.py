"""The demo market script writes the same bytes for the same seed."""

import datetime as dt
import hashlib
import importlib.util
from pathlib import Path

from sectorport.market_data import serialize_csv

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_demo_data.py"

# sha256 of the AAA file the script writes at its default seed 11.
AAA_SHA256 = "83b08859fc0903f64d01680a7edb8fdc9e5f7d7d989f0cd8c7370de92eb7f715"


def test_demo_series_bytes_are_pinned():
    spec = importlib.util.spec_from_file_location("make_demo_data", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    series = script.gbm_series("AAA", 11000, dt.date(2016, 1, 1))
    assert len(series.dates) == script.N_DAYS
    assert hashlib.sha256(serialize_csv(series).encode()).hexdigest() == AAA_SHA256
