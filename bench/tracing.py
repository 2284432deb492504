"""Spans and counts around the library calls the CLI makes, plus derived layer metrics.

Tracing replaces module attributes of the program with timing wrappers for
the duration of a ``with installed(tracer, modules):`` block and restores
them afterwards; nothing under ``src/`` changes. A wrapper records one span
(name, start, end, parent, CLI call id) per call and, where a hook is given,
counts of the work done. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

LAYERS = ("market_data", "portfolio", "lstm", "backtest", "config", "cli")
STAGES = ("stats", "frontier", "train", "backtest", "plotdata")

# Every per-layer metric a traced run reports, with its unit. A name ending in
# ".s" is the inclusive time of the span of that name, ".calls" its count,
# ".gflops" the rate of the matching ".gflop" over ".s"; the rest are counts
# kept by hooks or derived below.
PER_LAYER = (
    [
        ("market_data.parse_csv.s", "s"),
        ("market_data.parse_csv.calls", "count"),
        ("market_data.parse_csv.rows", "count"),
        ("market_data.parse_csv.redundancy", "ratio"),
        ("market_data.restrict.s", "s"),
        ("market_data.align.s", "s"),
        ("market_data.returns_stats.s", "s"),
        ("portfolio.moments.s", "s"),
        ("portfolio.build_frontier.s", "s"),
        ("portfolio.build_frontier.calls", "count"),
        ("portfolio.draws", "count"),
        ("portfolio.select.s", "s"),
        ("portfolio.report.s", "s"),
        ("portfolio.csv_export.s", "s"),
        ("portfolio.csv_bytes", "B"),
        ("lstm.forward_train.s", "s"),
        ("lstm.forward_train.calls", "count"),
        ("lstm.forward_train.gflop", "GFLOP"),
        ("lstm.forward_train.gbyte", "GB"),
        ("lstm.forward_train.gflops", "GFLOP/s"),
        ("lstm.backward.s", "s"),
        ("lstm.backward.gflop", "GFLOP"),
        ("lstm.backward.gbyte", "GB"),
        ("lstm.backward.gflops", "GFLOP/s"),
        ("lstm.train.self_s", "s"),
        ("lstm.forward_eval.s", "s"),
        ("lstm.forward_eval.windows", "count"),
        ("lstm.forward_eval.cache_bytes", "B"),
        ("lstm.checkpoint_write.s", "s"),
        ("lstm.checkpoint_bytes", "B"),
        ("lstm.checkpoint_load.s", "s"),
        ("lstm.predict_next.s", "s"),
        ("backtest.run.s", "s"),
        ("backtest.export.s", "s"),
        ("config.load.s", "s"),
        ("cli.self_s", "s"),
        ("cli.bytes_written", "B"),
    ]
    + [(f"cli.{stage}.s", "s") for stage in STAGES]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    call: int


class Tracer:
    """Collects spans and counters; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.call = 0
        self.reset()

    def reset(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.files: set[str] = set()
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock(), 0.0, self.call)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span):
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, fn, name, hook=None):
        """`fn` timed as a span; `name` is a string or a function of (args, kwargs)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = self.begin(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(span)
                self.counts[label.split(".")[0] + ".errors"] += 1
                raise
            self.end(span)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def counting(self, fn, hook):
        """`fn` unchanged except that `hook` sees every call; no span is recorded."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, args, kwargs, result)
            return result

        return wrapper

    def export(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# --- computed LSTM kernel counts -------------------------------------------
# GEMMs per call, as (m, k, n, repeats), for the cell equations at the model's
# shapes. FLOPs are 2*m*k*n per GEMM; bytes are the float64 operands and
# result of each GEMM plus the per-step cached activations (seven (B, H)
# arrays written by the forward pass and read back by BPTT). These are
# computed from shapes, not measured.


def _lstm_shapes(model) -> tuple[list[int], int, int]:
    cfg = model.config
    return [int(w) for w in cfg.lstm_layers], int(cfg.dense_width), int(cfg.window)


def forward_gemms(widths, dense, steps, batch) -> list[tuple[int, int, int, int]]:
    gemms = []
    d = 1
    for h in widths:
        gemms += [(batch, d, 4 * h, steps), (batch, h, 4 * h, steps)]
        d = h
    return gemms + [(batch, d, dense, 1), (batch, dense, 1, 1)]


def backward_gemms(widths, dense, steps, batch) -> list[tuple[int, int, int, int]]:
    """Two GEMMs per forward GEMM: the weight gradient and the input gradient."""
    gemms = []
    for m, k, n, r in forward_gemms(widths, dense, steps, batch):
        gemms += [(k, m, n, r), (m, n, k, r)]
    return gemms


def _cached_elems(widths, steps, batch) -> int:
    return sum(7 * batch * steps * h for h in widths)


def gemm_flops(gemms) -> int:
    return sum(2 * m * k * n * r for m, k, n, r in gemms)


def gemm_bytes(gemms) -> int:
    return sum(8 * (m * k + k * n + m * n) * r for m, k, n, r in gemms)


def forward_cost(widths, dense, steps, batch) -> tuple[int, int]:
    """(FLOPs, bytes) of one forward call."""
    gemms = forward_gemms(widths, dense, steps, batch)
    return gemm_flops(gemms), gemm_bytes(gemms) + 8 * _cached_elems(widths, steps, batch)


def backward_cost(widths, dense, steps, batch) -> tuple[int, int]:
    """(FLOPs, bytes) of one BPTT call."""
    gemms = backward_gemms(widths, dense, steps, batch)
    return gemm_flops(gemms), gemm_bytes(gemms) + 8 * _cached_elems(widths, steps, batch)


def eval_cache_bytes(widths, dense, steps, batch) -> int:
    """Bytes an inference forward keeps for BPTT: each layer's input plus seven (B, T, H) arrays."""
    total, d = 0, 1
    for h in widths:
        total += batch * steps * (d + 7 * h)
        d = h
    return 8 * (total + batch * (d + 2 * dense + 1))


# --- hooks -----------------------------------------------------------------


def _arg(args, kwargs, index: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def _forward_name(args, kwargs) -> str:
    training = _arg(args, kwargs, 2, "training", False)
    return "lstm.forward_train" if training else "lstm.forward_eval"


def _on_parse(tracer, args, kwargs, result):
    raw = _arg(args, kwargs, 0, "raw_text")
    newline = b"\n" if isinstance(raw, bytes) else "\n"
    tracer.counts["market_data.parse_csv.rows"] += max(raw.count(newline) - 1, 0)
    tracer.files.add(_arg(args, kwargs, 1, "symbol"))


def _on_frontier(tracer, args, kwargs, result):
    tracer.counts["portfolio.draws"] += _arg(args, kwargs, 2, "n_draws")


def _utf8_len(data: str | bytes) -> int:
    """Encoded size without copying the common ASCII case (isascii is O(1) in CPython)."""
    if isinstance(data, bytes) or data.isascii():
        return len(data)
    return len(data.encode("utf-8"))


def _on_csv(tracer, args, kwargs, result):
    tracer.counts["portfolio.csv_bytes"] += _utf8_len(result)


def _on_forward(tracer, args, kwargs, result):
    model, x = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "X")
    widths, dense, steps = _lstm_shapes(model)
    batch = len(x)
    flops, nbytes = forward_cost(widths, dense, steps, batch)
    kind = _forward_name(args, kwargs)
    tracer.counts[kind + ".gflop"] += flops / 1e9
    tracer.counts[kind + ".gbyte"] += nbytes / 1e9
    if kind == "lstm.forward_eval":
        tracer.counts["lstm.forward_eval.windows"] += batch
        cache = eval_cache_bytes(widths, dense, steps, batch)
        key = "lstm.forward_eval.cache_bytes"
        tracer.counts[key] = max(tracer.counts[key], cache)


def _on_backward(tracer, args, kwargs, result):
    model, d_y = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 2, "d_y")
    widths, dense, steps = _lstm_shapes(model)
    flops, nbytes = backward_cost(widths, dense, steps, len(d_y))
    tracer.counts["lstm.backward.gflop"] += flops / 1e9
    tracer.counts["lstm.backward.gbyte"] += nbytes / 1e9


def _on_checkpoint(tracer, args, kwargs, result):
    tracer.counts["lstm.checkpoint_bytes"] += len(result)


def _on_write(tracer, args, kwargs, result):
    tracer.counts["cli.bytes_written"] += _utf8_len(_arg(args, kwargs, 1, "data"))


def patch_table(modules: dict) -> list[tuple[object, str, object, object]]:
    """(owner, attribute, span name, hook) for every public name the subcommands call.

    `forward`, `with_seed` and `random_weights` are deliberately not wrapped.
    A hook-only entry (span name None) counts without recording a span.
    """
    md, po, fc, bt, cli = (modules[k] for k in ("market_data", "portfolio", "lstm", "backtest", "cli"))
    return [
        (md, "parse_csv", "market_data.parse_csv", _on_parse),
        (getattr(md, "PriceSeries", None), "restrict", "market_data.restrict", None),
        (md, "align", "market_data.align", None),
        (md, "daily_returns", "market_data.returns_stats", None),
        (md, "asset_stats", "market_data.returns_stats", None),
        (po, "mean_and_covariance", "portfolio.moments", None),
        (po, "build_frontier", "portfolio.build_frontier", _on_frontier),
        (po, "min_variance_portfolio", "portfolio.select", None),
        (po, "max_sharpe_portfolio", "portfolio.select", None),
        (po, "portfolio_report", "portfolio.report", None),
        (po, "frontier_csv_text", "portfolio.csv_export", _on_csv),
        (fc, "train", "lstm.train", None),
        (fc, "forward_batch", _forward_name, _on_forward),
        (fc, "backward_batch", "lstm.backward", _on_backward),
        (fc, "checkpoint_bytes", "lstm.checkpoint_write", _on_checkpoint),
        (fc, "load_checkpoint", "lstm.checkpoint_load", None),
        (fc, "predict_next", "lstm.predict_next", None),
        (bt, "run_backtest", "backtest.run", None),
        (bt, "ledger_to_dict", "backtest.export", None),
        (bt, "ledger_csv_text", "backtest.export", None),
        (bt, "summary_csv_text", "backtest.export", None),
        (cli, "load_config", "config.load", None),
        (cli, "main", "cli.main", None),
        *[(cli, f"cmd_{stage}", f"cli.{stage}", None) for stage in STAGES],
        (cli, "_atomic_write", None, _on_write),
    ]


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Wrap every name in patch_table for the duration of the block; names missing here are skipped."""
    undo = []
    try:
        for owner, attr, name, hook in patch_table(modules):
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapped = tracer.counting(original, hook) if name is None else tracer.wrap(original, name, hook)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# --- derived metrics -------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children[s.id]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans and counts collected since the last reset.

    trace.* entries are filled in by the caller, which alone knows the
    untraced reference.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    self_sum = defaultdict(float)
    own = self_times(tracer.spans)
    for s in tracer.spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        self_sum[s.name] += own[s.id]

    out = {}
    for name, _unit in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name == "cli.self_s":
            out[name] = sum(v for k, v in self_sum.items() if k.startswith("cli."))
        elif name.endswith(".self_s"):
            out[name] = self_sum[name[: -len(".self_s")]]
        elif name.endswith(".s"):
            out[name] = total[name[: -len(".s")]]
        elif name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".redundancy"):
            parses = calls["market_data.parse_csv"]
            out[name] = parses / len(tracer.files) if tracer.files else 0.0
        elif name.endswith(".gflops"):
            prefix = name[: -len(".gflops")]
            seconds = total[prefix]
            out[name] = tracer.counts[prefix + ".gflop"] / seconds if seconds > 0 else 0.0
        else:
            out[name] = tracer.counts[name]
    return out
