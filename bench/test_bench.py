"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_byte_identical_for_a_seed(name, tmp_path):
    first = _tree(WORKLOADS[name](7, tmp_path / "a", "tiny").root)
    second = _tree(WORKLOADS[name](7, tmp_path / "b", "tiny").root)
    other = _tree(WORKLOADS[name](8, tmp_path / "c", "tiny").root)
    assert first == second
    assert any(first[k] != other[k] for k in first if k.startswith("data/"))


class _Clock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_times_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S(0, None, "root", 0.0, 10.0, 0),
        S(1, 0, "a", 1.0, 4.0, 0),
        S(2, 0, "b", 3.0, 6.0, 0),  # overlaps a
        S(3, 0, "c", 8.0, 12.0, 0),  # runs past the end of root
        S(4, 1, "d", 2.0, 3.0, 0),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 10.0 - (5.0 + 2.0), 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0}


def test_layer_metrics_derive_self_time_from_wrapped_calls():
    # cli.main [0, 20] > cli.train [1, 19] > lstm.train [2, 18] > forward [3, 7], backward [8, 14]
    tracer = tracing.Tracer(clock=_Clock([0, 1, 2, 3, 7, 8, 14, 18, 19, 20]))

    def backward_batch(model, cache, d_y):
        return None

    def forward_batch(model, x, training=False):
        return None

    def train():
        forward_batch(None, [0.0], training=True)
        backward_batch(None, None, [0.0])

    forward_batch = tracer.wrap(forward_batch, tracing._forward_name)
    backward_batch = tracer.wrap(backward_batch, "lstm.backward")
    train = tracer.wrap(train, "lstm.train")
    cmd_train = tracer.wrap(lambda: train(), "cli.train")
    tracer.wrap(lambda: cmd_train(), "cli.main")()

    m = tracing.layer_metrics(tracer)
    assert m["lstm.forward_train.s"] == 4
    assert m["lstm.forward_train.calls"] == 1
    assert m["lstm.backward.s"] == 6
    assert m["lstm.train.self_s"] == 16 - 4 - 6
    assert m["cli.train.s"] == 18
    assert m["cli.self_s"] == (20 - 18) + (18 - 16)
    assert set(m) == {n for n, _ in tracing.PER_LAYER if not n.startswith("trace.")}


def test_wrapper_counts_errors_and_reraises():
    tracer = tracing.Tracer()

    def parse_csv(raw_text, symbol):
        raise ValueError("bad row")

    with pytest.raises(ValueError):
        tracer.wrap(parse_csv, "market_data.parse_csv")(b"x", "AAA")
    assert tracer.counts["market_data.errors"] == 1
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_computed_kernel_counts():
    widths, dense, steps, batch = [2], 3, 4, 5
    flops, nbytes = tracing.forward_cost(widths, dense, steps, batch)
    assert flops == 2 * 5 * 1 * 8 * 4 + 2 * 5 * 2 * 8 * 4 + 2 * 5 * 2 * 3 + 2 * 5 * 3 * 1
    assert tracing.backward_cost(widths, dense, steps, batch)[0] == 2 * flops
    cached = 8 * 7 * batch * steps * 2
    gemm = 8 * 4 * (5 * 1 + 1 * 8 + 5 * 8) + 8 * 4 * (5 * 2 + 2 * 8 + 5 * 8) + 8 * (10 + 6 + 15) + 8 * (15 + 3 + 5)
    assert nbytes == gemm + cached
    assert tracing.eval_cache_bytes(widths, dense, steps, batch) == 8 * (5 * 4 * (1 + 14) + 5 * (2 + 6 + 1))


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_passes_every_check(name, trace, tmp_path):
    report, result = harness.run_workload(name, 3, 0.5, trace, tmp_path, size="tiny")
    assert report["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = tracing.PER_LAYER if trace else harness.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected


def test_checks_reject_wrong_artifacts(tmp_path):
    inputs = WORKLOADS["frontier_wide"](3, tmp_path / "in", "tiny")
    runner = harness.Runner(inputs, harness._modules()["cli"], tmp_path / "out", None)
    runner.run_pass()
    assert runner.failed == 0
    out = tmp_path / "out"
    stats, frontier, backtest = inputs.calls

    lines = (out / "stats.csv").read_text().splitlines()
    sym, mean, *rest = lines[1].split(",")
    lines[1] = ",".join([sym, repr(float(mean) * 1.001), *rest])
    (out / "stats.csv").write_text("\n".join(lines) + "\n")
    assert checks.check_call(inputs, stats, out, None)

    ledger_path = out / "ledger_wide.json"
    ledger = json.loads(ledger_path.read_text())
    ledger["total_actual"] += 1.0
    ledger_path.write_text(json.dumps(ledger))
    assert checks.check_call(inputs, backtest, out, None)

    report_path = out / "report_wide.json"
    report = json.loads(report_path.read_text())
    report["min_risk"], report["opt_risk"] = report["opt_risk"], report["min_risk"]
    report_path.write_text(json.dumps(report))
    assert checks.check_call(inputs, frontier, out, None)


def test_golden_values_are_enforced(tmp_path):
    inputs = WORKLOADS["train_paper"](3, tmp_path / "in", "tiny")
    runner = harness.Runner(inputs, harness._modules()["cli"], tmp_path / "out", None)
    runner.run_pass()
    assert runner.failed == 0
    out = tmp_path / "out"
    train = inputs.calls[0]
    val_mae = float((out / "trace_PAPR.csv").read_text().splitlines()[-1].split(",")[4])
    near = {"digests": {}, "val_mae": {"train_paper": {"PAPR": val_mae * 1.01}}}
    far = {"digests": {}, "val_mae": {"train_paper": {"PAPR": val_mae * 1.5}}}
    digest = {"digests": {"train_paper": {"trace_PAPR.csv": "0" * 64}}, "val_mae": near["val_mae"]}
    assert checks.check_call(inputs, train, out, near) == []
    assert checks.check_call(inputs, train, out, far)
    assert checks.check_call(inputs, train, out, digest)
