"""Run the benchmark over several seeds and summarise, or append to the trajectory.

    python3 perfbench/record.py --runs 10 --seconds 30
    python3 perfbench/record.py --runs 10 --seconds 30 --trace-runs 2 --append "label"

Each run is a separate `perfbench/run.py` process, one at a time, with seeds
1, 2, ..., runs, over every workload of BENCHMARK.json. For every workload and end-to-end metric it
prints the median, the quartiles and the spread (q3 - q1) / median next to
the metric's bound in BENCHMARK.json, and marks a spread above a third of the
bound. With --append it adds an entry to perfbench/trajectory.json holding
those figures, the per-layer medians of the traced runs and the provenance.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "perfbench" / "trajectory.json"
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-2])["record"]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "runs": len(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    parser.add_argument("--trace-runs", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--append", metavar="LABEL", help="append the summary to the trajectory under LABEL")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))
    entry: dict = {"label": args.append, "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        records = [run_once(name, seed, args.seconds, 0) for seed in seeds]
        traced = [run_once(name, seed, args.seconds, 1) for seed in seeds[: args.trace_runs]]
        entry["provenance"] = records[-1]["provenance"]
        end_to_end = {}
        print(f"{name}: {len(records)} runs")
        print(f"  passes: {[r['passes'] for r in records]}")
        for key in records[0]["measured"]:
            values = [float(f"{r['measured'][key]:.4g}") for r in records]
            print(f"  measured {key} per run: {values}")
        for metric, unit in ((m, v["unit"]) for m, v in records[0]["metrics"].items()):
            values = [r["metrics"][metric]["value"] for r in records]
            print(f"  {metric} per run: {[float(f'{v:.4g}') for v in values]}")
            s = summarise(values)
            s["unit"] = unit
            end_to_end[metric] = s
            bound = bounds.get(metric)
            flag = "" if bound is None or s["spread"] is None or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(
                f"  {metric:22s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                f"spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)} bound {bound}{flag}"
            )
        failed = [r["failed"] for r in records]
        print(f"  failed operations per run: {failed}; unanswerable keys: {[len(r['failed_keys']) for r in records]}")
        entry["workloads"][name] = {
            "end_to_end": end_to_end,
            "measured": {key: summarise([r["measured"][key] for r in records]) for key in records[0]["measured"]},
            "failed_per_run": failed,
            "unanswerable_keys_per_run": [len(r["failed_keys"]) for r in records],
            "per_layer": {
                metric: {
                    **summarise(values := [t["metrics"][metric]["value"] for t in traced]),
                    "values": values,
                    "unit": v["unit"],
                }
                for metric, v in (traced[0]["metrics"].items() if traced else ())
            },
            "outcomes_per_traced_run": [t["outcomes"] for t in traced],
        }
        for t in traced:
            print(f"  traced seed {t['provenance']['seed']}: outcomes {t['outcomes']}")
    if args.append:
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        entry["entry"] = len(trajectory)
        trajectory.append(entry)
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1, sort_keys=True) + "\n")
        print(f"appended entry {entry['entry']} to {TRAJECTORY.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
