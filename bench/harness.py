"""Runs one workload through ``sectorport.cli.main`` in this process and measures it.

Load shape: a closed loop with one client. Subcommands run one after another;
a pass is the workload's whole sequence in a fresh output directory. Passes
repeat while another is expected to end within the run's seconds. Calls
shorter than SHORT_CALL_S vary by more than a tenth from call to call, so
they are then repeated until they have MIN_SAMPLES samples. A stage metric is
the sum over that stage's calls of each call's median time.

The first run of a call in a process also pays for growing the heap, so
wherever a call or a pass has more than one sample, the first is a warm-up
and not counted.
"""

from __future__ import annotations

import importlib
import io
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, Call, Inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("backtest_s", "s"), ("peak_rss_mb", "MB")]

SHORT_CALL_S = 0.5
MIN_SAMPLES = 9
SETUP_RUNS = 5
MAX_PROBLEMS = 20

# What every CLI invocation pays before its subcommand runs: a fresh
# interpreter importing the CLI and loading the workload's config.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import sectorport.cli
from sectorport.config import load_config
load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


def measure_setup(config_path: Path, runs: int = SETUP_RUNS) -> list[float]:
    """Set-up times of `runs` fresh interpreters, after one uncounted warm-up."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for i in range(runs + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(config_path)],
            env=env,
            cwd=config_path.parent,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if i:
            times.append(float(proc.stdout.split()[-1]))
    return times


class Runner:
    """Invokes a workload's calls, records their times, and checks every artifact."""

    def __init__(self, inputs: Inputs, cli, out: Path, golden: dict | None):
        self.inputs = inputs
        self.cli = cli
        self.out = out
        self.golden = golden
        self.samples: dict[str, list[float]] = {c.key: [] for c in inputs.calls}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict[str, str]] = {}  # call key -> artifact digests of its first run
        self._verdicts: dict[tuple, list[str]] = {}

    def _invoke(self, call: Call) -> tuple[int, float]:
        argv = ["--config", str(self.inputs.config_path), "--out", str(self.out), *call.args]
        # The CLI prints artifact paths; keep them off stdout so the result line stays last.
        with redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                status = self.cli.main(argv)
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 1
            elapsed = time.perf_counter() - start
        return status, elapsed

    def _settle(self, call: Call, status: int, in_pass: bool):
        """Count the call; a nonzero exit, a failed check or changed bytes fail it.

        summary.csv is upserted by every backtest, so its row order depends on
        what ran before; it is compared byte for byte only inside a pass, which
        always starts from an empty output directory.
        """
        self.attempted += 1
        problems = [] if status == 0 else [f"{call.key}: exit status {status}"]
        if status == 0:
            names = [n for n in checks.artifacts(call) if (self.out / n).exists()]
            digests = {n: checks.sha256(self.out / n) for n in names}
            key = (call.key, tuple(sorted(digests.items())))
            if key not in self._verdicts:
                self._verdicts[key] = checks.check_call(self.inputs, call, self.out, self.golden)
            problems += self._verdicts[key]
            reference = self.reference.setdefault(call.key, digests)
            problems += [
                f"{call.key}: {n} is not byte-identical to the first run's"
                for n, digest in digests.items()
                if reference.get(n, digest) != digest and (in_pass or n != "summary.csv")
            ]
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])

    def run_pass(self, tracer: tracing.Tracer | None = None) -> float:
        """One pass of the whole sequence; returns its wall time. Traced calls add no samples."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        results = []
        start = time.perf_counter()
        for i, call in enumerate(self.inputs.calls):
            if tracer is not None:
                tracer.call = self.attempted + i
            results.append(self._invoke(call))
        wall = time.perf_counter() - start
        for call, (status, elapsed) in zip(self.inputs.calls, results):
            if tracer is None:
                self.samples[call.key].append(elapsed)
            self._settle(call, status, in_pass=True)
        return wall

    def run_passes(self, until: float, tracer: tracing.Tracer | None = None, after_pass=None) -> list[float]:
        """At least one pass; another only if it should end before `until`."""
        walls = []
        while True:
            walls.append(self.run_pass(tracer))
            if after_pass is not None:
                after_pass()
            if time.perf_counter() + walls[-1] > until:
                return walls

    def repeat_short_calls(self):
        short = [c for c in self.inputs.calls if statistics.median(self.samples[c.key]) < SHORT_CALL_S]
        for call in short:
            while len(self.samples[call.key]) < MIN_SAMPLES:
                status, elapsed = self._invoke(call)
                self.samples[call.key].append(elapsed)
                self._settle(call, status, in_pass=False)

    def stage_seconds(self) -> dict[str, float]:
        """Per stage that ran: the sum over its calls of each call's warm median time."""
        stages: dict[str, float] = {}
        for call in self.inputs.calls:
            stages[call.stage] = stages.get(call.stage, 0.0) + warm_median(self.samples[call.key])
        return {f"{stage}_s": value for stage, value in stages.items()}


def warm_median(samples: list[float]) -> float:
    """Median without the first sample, unless it is the only one."""
    return statistics.median(samples[1:] or samples)


def machine_info() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def src_lines() -> int:
    """Lines of Python under src/; informational, never gated."""
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def _modules() -> dict:
    return {name: importlib.import_module(f"sectorport.{name}") for name in tracing.LAYERS}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path, size: str = "full"):
    """Generate inputs, measure, check; returns (report, result line dict)."""
    inputs = WORKLOADS[name](seed, work / "in", size)
    golden = checks.load_golden() if seed == DEFAULT_SEED and size == "full" else None
    setup = measure_setup(inputs.config_path)
    modules = _modules()
    runner = Runner(inputs, modules["cli"], work / "out", golden)

    start = time.perf_counter()
    report = {"workload": name, "seed": seed, "size": size, "seconds": seconds, "trace": int(trace)}
    if not trace:
        walls = runner.run_passes(start + seconds)
        runner.repeat_short_calls()
        stages = runner.stage_seconds()
        values = {
            "wall_s": warm_median(walls),
            "setup_s": statistics.median(setup),
            "backtest_s": stages["backtest_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = dict(END_TO_END)
        report["pass_walls"] = walls
        report["stages"] = stages
    else:
        walls = runner.run_passes(start + seconds / 2)
        tracer = tracing.Tracer()
        per_pass, spans = [], []

        def harvest():
            per_pass.append(tracing.layer_metrics(tracer))
            spans.extend(tracer.export())
            tracer.reset()

        with tracing.installed(tracer, modules):
            traced = runner.run_passes(start + seconds, tracer, after_pass=harvest)
        values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        values["trace.wall_s"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced) - warm_median(walls)
        units = dict(tracing.PER_LAYER)
        report["pass_walls"] = walls
        report["traced_pass_walls"] = traced
        report["stages"] = runner.stage_seconds()
        report["spans"] = spans

    report["setup_samples"] = setup
    report["samples"] = runner.samples
    report["error_rate"] = runner.failed / runner.attempted
    report["problems"] = runner.problems
    report["machine"] = machine_info()
    report["code"] = {"src_lines": src_lines()}
    report["digests"] = runner.reference
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return report, result
