#!/usr/bin/env python3
"""Benchmark of the sectorport pipeline: one workload per run.

    python3 bench/run.py --workload demo --seed 1 --seconds 36 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). Inputs are generated from --seed under .bench_work/ and removed
afterwards. The next-to-last stdout line is a full report (stage times,
machine and code block, artifact digests); the last line is the result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
when --trace 0 and the per-layer metrics when --trace 1. The report, with the
spans of a traced run, is also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("demo", "frontier_wide", "train_paper")


def limit_blas_threads():
    """Cap BLAS threads at the cores this process may use; must run before NumPy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= cores):
            os.environ[var] = str(cores)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "sectorport"
    if not (package / "cli.py").is_file():
        print(f"error: no sectorport sources at {package}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import harness
    import sectorport

    if Path(sectorport.__file__).resolve().parent != package.resolve():
        print(f"error: imported sectorport from {sectorport.__file__}, not {package}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    try:
        report, result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps({**report, "result": result}, indent=1) + "\n")
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    report.pop("spans", None)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
