"""Benchmark loops and the JSON stream report.

The report separates three concerns: configuration echo (everything needed to
reproduce the run), accuracy (rank-space errors over the evaluated keys), and
timing (throughput means over repeated phases). Timing fields are the only
nondeterministic ones; two runs with identical flags and seed agree byte for
byte everywhere else.

Accuracy is judged against the stream's own values (``_reference``), after
the timed phases, and each estimate is scored by ``quantiles.rank_error``.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

from .datagen import Stream
from .hashing import child_seed
from .quantiles import check_count, rank_error
from .sketch import SEED_SINGLE, PerKeyQuantileSketch, SketchParams
from .value_sketch import ValueSketch

#: Report fields that vary run to run; strip these before comparing reports.
TIMING_FIELDS = ("insert_throughput_mops", "query_throughput_mops", "wall_time_ms")

#: Least time one repetition's query phase takes: whole sweeps over the
#: tracked keys repeat until it is covered, so the rate is not timer noise.
MIN_QUERY_SECONDS = 0.05


@dataclass
class StreamReport:
    config: dict
    ae: float | None
    per_key: list[dict] = field(repr=False)
    tracked_keys: int
    eligible_keys: int
    coverage: float
    unanswered_keys: list[int]
    insert_throughput_mops: float
    query_throughput_mops: float
    wall_time_ms: int

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


def _config_echo(params: SketchParams, dataset: dict, f_eval: int, repeat: int, single_key: bool) -> dict:
    return {
        "dataset": dataset,
        "w": params.quantile,
        "memory_bytes": params.total_memory_bytes,
        "tower_fraction": params.tower_fraction,
        "gate_threshold": params.gate_threshold,
        "cells_per_bucket": params.cells_per_bucket,
        "eviction_ratio": str(params.eviction_ratio),
        "candidate_capacity": params.candidate_capacity,
        "representative_capacity": params.representative_capacity,
        "seed": params.seed,
        "f_eval": f_eval,
        "repeat": repeat,
        "single_key": single_key,
    }


def _timed_inserts(stream: Stream, insert) -> float:
    """Seconds spent feeding the stream to insert; chunks are built between timed sections."""
    elapsed = 0.0
    for keys, values in stream.chunks():
        t0 = perf_counter()
        for key, value in zip(keys, values):
            insert(key, value)
        elapsed += perf_counter() - t0
    return elapsed


def _mops(items: int, seconds_per_rep: list[float]) -> float:
    rates = [items / s / 1e6 for s in seconds_per_rep if s > 0.0]
    return sum(rates) / len(rates) if rates else 0.0


def _reference(stream: Stream, f_eval: int) -> tuple[np.ndarray, dict[int, tuple[int, int]]]:
    """The stream's values sorted by key, then by value, and the (start, stop) span
    of every key with at least f_eval values: the exact per-key multisets, built once."""
    order = np.lexsort((stream.values, stream.keys))
    uniq, start, count = np.unique(stream.keys[order], return_index=True, return_counts=True)
    spans = {k: (s, s + c) for k, s, c in zip(uniq.tolist(), start.tolist(), count.tolist()) if c >= f_eval}
    return stream.values[order], spans


def run_benchmark(
    stream: Stream,
    params: SketchParams,
    f_eval: int | None = None,
    repeat: int = 3,
    dataset: dict | None = None,
    single_key: bool = False,
) -> StreamReport:
    """Feed the stream through a composed sketch and report accuracy + speed.

    Each repetition rebuilds the sketch from the same seed and replays the
    same stream, so repetitions are timing samples over identical work; the
    final repetition's state feeds the accuracy section. Each repetition's
    query phase repeats whole sweeps over the tracked keys until it has taken
    MIN_QUERY_SECONDS, and the accuracy section scores the last sweep's
    answers. Evaluated keys are the tracked keys whose true frequency is at
    least f_eval (defaulting to the gate threshold, below which a key cannot
    finish paying admission). A tracked key whose query
    raises is listed in unanswered_keys: it counts as covered but adds no row
    and no error. With single_key, every key becomes 0, and one cell of an
    always-open key table answers for key 0.
    """
    t_start = perf_counter()
    check_count("repeat", repeat)
    if f_eval is None:
        f_eval = params.gate_threshold
    check_count("f_eval", f_eval, nonnegative=True)
    make_sink = partial(PerKeyQuantileSketch, params)
    if single_key:
        # Key 0 holds the one cell from its first item on: the fill times the push alone.
        stream = Stream(np.zeros_like(stream.keys), stream.values)
        make_sink = partial(ValueSketch, 1, 1, candidate_capacity=params.candidate_capacity,
                            representative_capacity=params.representative_capacity,
                            quantile=params.quantile, seed=child_seed(params.seed, SEED_SINGLE))

    insert_seconds: list[float] = []
    for _ in range(repeat):
        sink = make_sink()
        insert_seconds.append(_timed_inserts(stream, sink.insert))

    tracked = sorted(sink.tracked_keys())
    query = sink.query
    query_seconds: list[float] = []
    for _ in range(repeat):
        sweeps = 0
        t0 = perf_counter()
        while True:
            answers: list = []
            for k in tracked:
                try:
                    answers.append(query(k))
                except ValueError:
                    answers.append(None)
            sweeps += 1
            elapsed = perf_counter() - t0
            if elapsed >= MIN_QUERY_SECONDS or not tracked:
                break
        query_seconds.append(elapsed / sweeps)

    ordered_values, eligible = _reference(stream, f_eval)
    evaluated = [k for k in tracked if k in eligible]
    rows: list[dict] = []
    unanswered: list[int] = []
    for k, estimate in zip(tracked, answers):
        if estimate is None:
            unanswered.append(k)
            continue
        if k not in eligible:
            continue
        start, stop = eligible[k]
        ordered = ordered_values[start:stop].tolist()
        rank, err = rank_error(ordered, estimate, params.quantile)
        rows.append(
            {
                "key": int(k),
                "true_freq": len(ordered),
                "estimated_value": estimate,
                "true_rank": rank,
                "abs_error": err,
            }
        )
    ae = sum(row["abs_error"] for row in rows) / len(rows) if rows else None
    coverage = (len(evaluated) / len(eligible)) if eligible else 1.0

    return StreamReport(
        config=_config_echo(params, dataset or {"source": "unspecified"}, f_eval, repeat, single_key),
        ae=ae,
        per_key=rows,
        tracked_keys=len(tracked),
        eligible_keys=len(eligible),
        coverage=coverage,
        unanswered_keys=unanswered,
        insert_throughput_mops=_mops(len(stream), insert_seconds),
        query_throughput_mops=_mops(len(tracked), query_seconds),
        wall_time_ms=int((perf_counter() - t_start) * 1000),
    )
