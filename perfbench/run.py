"""Run one benchmark workload against the pqsketch sources of this checkout.

    python3 perfbench/run.py --workload zipf-p50 --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run. The human-readable report comes first; the line
before last is the full result record (with provenance) and the last line is
the summary object {"correct", "attempted", "failed", "metrics"}. The exit
code is 1 when an output check fails and 2 when the run cannot start, for
example when the checkout has no src/pqsketch.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / "perfbench" / "out"


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_sources() -> None:
    """Put the checkout's own package first on the path and check it is the one loaded."""
    if not (SRC / "pqsketch" / "__init__.py").is_file():
        fail(f"no pqsketch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import pqsketch

    if Path(pqsketch.__file__).resolve().parent != SRC / "pqsketch":
        fail(f"imported pqsketch from {pqsketch.__file__}, not from {SRC}")


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv: list[str] | None = None) -> int:
    import_sources()
    from perfbench.workloads import WORKLOADS, make_inputs

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="time budget of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    inputs = make_inputs(workload, args.seed)
    record = {"provenance": provenance(workload.name, args.seed, args.seconds, args.trace)}
    print(f"pqsketch benchmark: workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print(f"  {workload.why}")
    print(f"  provenance {json.dumps(record['provenance'], sort_keys=True)}")

    if args.trace:
        from perfbench.tracing import traced_run

        result = traced_run(inputs)
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        sample_path = TRACE_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        columns = ["span", "parent", "request", "name", "start_ns", "end_ns"]
        sample_path.write_text(json.dumps({"columns": columns, "spans": result.sample}) + "\n")
        record.update(outcomes=result.outcomes, spans=result.spans)
        print(f"  outcomes {json.dumps(result.outcomes, sort_keys=True)}")
        for phase, table in result.spans.items():
            print(f"  {phase} phase: {'span':30s} {'calls':>10s} {'total_ns':>14s} {'self_ns':>14s} raised")
            for name, a in table.items():
                print(f"  {'':13s}{name:30s} {a['calls']:>10d} {a['total_ns']:>14d} {a['self_ns']:>14d} {a['raised']}")
        print(f"  span sample: {len(result.sample)} spans in {sample_path.relative_to(ROOT)}")
    else:
        from perfbench.timed import timed_run

        result = timed_run(inputs, args.seconds)
        record.update(
            measured=result.measured,
            passes=result.passes,
            sweeps=result.sweeps,
            tracked=result.tracked,
            accounted_bytes=result.accounted_bytes,
        )
        print(
            f"  {result.passes} passes of {workload.n_items} items, {result.sweeps} query sweeps "
            f"over {result.tracked} tracked keys, {result.accounted_bytes / 1e6:.6f} MB accounted by the plan"
        )
        print(f"  as measured, not rescaled: {json.dumps(result.measured, sort_keys=True)}")

    failed_frac = result.failed / result.attempted
    print(f"  failed {result.failed} of {result.attempted} operations (failed_frac {failed_frac:.3g})")
    print(f"  unanswerable keys ({len(result.failed_keys)}): {result.failed_keys}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:40s} {value:>18.6g} {unit}")
    for problem in result.problems:
        print(f"  OUTPUT CHECK FAILED: {problem}")

    correct = not result.problems
    summary = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }
    record.update(summary, failed_frac=failed_frac, failed_keys=result.failed_keys, problems=result.problems)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
