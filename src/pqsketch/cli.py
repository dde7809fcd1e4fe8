"""Command line front end.

Two subcommands: `bench` runs a stream (CSV file or synthetic spec) through
the sketch and emits a JSON report; `generate` materializes a synthetic spec
to a CSV file so the same stream can be replayed from disk. One --seed drives
every random choice (hashes, calibration, data generation), so repeating a
command reproduces everything except wall-clock timings.
"""
from __future__ import annotations

import argparse
import sys

from .bench import run_benchmark
from .datagen import generate, parse_stream_spec, read_csv, write_csv
from .hashing import child_seed
from .sketch import SEED_DATA, SketchParams


def _add_bench_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("bench", help="run a stream through the sketch and report")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="CSV", help="key,value CSV file to replay")
    source.add_argument(
        "--synthetic",
        metavar="SPEC",
        help="synthetic stream spec, e.g. "
        "'n_items=1000000,n_keys=10000,key_dist=zipf(1.0),value_dist=pareto(1.0,1.0)' "
        "(or 'default')",
    )
    p.add_argument("--memory-kb", type=int, default=500, help="total sketch budget in KB (default 500)")
    p.add_argument("--w", type=float, default=0.5, help="quantile weight in [0,1] (default 0.5)")
    p.add_argument("--d", type=int, default=7, help="cells per bucket (default 7)")
    p.add_argument("--q", type=float, default=0.1, help="memory fraction for the counter tower (default 0.1)")
    p.add_argument("--T", type=int, default=40, help="admission gate threshold (default 40)")
    p.add_argument("--lambda", dest="eviction_ratio", default="4", help="eviction vote ratio (default 4)")
    p.add_argument("--r", type=int, default=16, help="candidate buffer capacity (default 16)")
    p.add_argument("--s", type=int, default=10, help="representative buffer capacity (default 10)")
    p.add_argument("--seed", type=int, default=1, help="seed for all randomness (default 1)")
    p.add_argument("--f-eval", type=int, default=None,
                   help="minimum true frequency for a key to be evaluated (default: T)")
    p.add_argument("--repeat", type=int, default=3, help="timing repetitions (default 3)")
    p.add_argument("--single-key", action="store_true",
                   help="benchmark one bare estimator; stream keys are ignored")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the JSON report here instead of stdout")


def _add_generate_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("generate", help="write a synthetic stream to a CSV file")
    p.add_argument("--spec", required=True, metavar="SPEC", help="synthetic stream spec (see bench --synthetic)")
    p.add_argument("--seed", type=int, default=1, help="seed for all randomness (default 1)")
    p.add_argument("--out", required=True, metavar="CSV", help="output path")


def _run_bench(args: argparse.Namespace) -> int:
    params = SketchParams(
        quantile=args.w,
        total_memory_bytes=args.memory_kb * 1024,
        tower_fraction=args.q,
        gate_threshold=args.T,
        cells_per_bucket=args.d,
        eviction_ratio=args.eviction_ratio,
        candidate_capacity=args.r,
        representative_capacity=args.s,
        seed=args.seed,
    )
    if args.input is not None:
        stream = read_csv(args.input)
        dataset = {"source": "csv", "path": args.input, "n_items": len(stream)}
    else:
        spec = parse_stream_spec(args.synthetic, seed=child_seed(args.seed, SEED_DATA))
        stream = generate(spec)
        dataset = spec.describe()
    report = run_benchmark(
        stream, params, f_eval=args.f_eval, repeat=args.repeat, dataset=dataset, single_key=args.single_key
    )
    text = report.to_json()
    if args.report is None:
        sys.stdout.write(text)
    else:
        with open(args.report, "w", newline="\n") as fh:
            fh.write(text)
    return 0


def _run_generate(args: argparse.Namespace) -> int:
    spec = parse_stream_spec(args.spec, seed=child_seed(args.seed, SEED_DATA))
    write_csv(generate(spec), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pqsketch",
                                     description="streaming per-key point-quantile sketches")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_bench_parser(sub)
    _add_generate_parser(sub)
    args = parser.parse_args(argv)
    try:
        if args.command == "bench":
            return _run_bench(args)
        return _run_generate(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
