"""Benchmark loops and the JSON stream report.

The report separates three concerns: configuration echo (everything needed to
reproduce the run), accuracy (rank-space errors over the evaluated keys), and
timing (throughput means over repeated phases). Timing fields are the only
nondeterministic ones; two runs with identical flags and seed agree byte for
byte everywhere else.

Accuracy is judged against the stream itself: its values sorted per key,
built once from the stream's arrays after the timed phases, so throughput
numbers reflect the sketch alone. Each estimate is scored by
``quantiles.rank_error``.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from .calibration import Calibrator
from .datagen import Stream
from .estimator import PointEstimator
from .hashing import child_seed
from .quantiles import check_count, rank_error
from .sketch import SEED_SINGLE, PerKeyQuantileSketch, SketchParams

#: Report fields that vary run to run; strip these before comparing reports.
TIMING_FIELDS = ("insert_throughput_mops", "query_throughput_mops", "wall_time_ms")


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


class _SingleKeySink:
    """A bare estimator behind the sketch's interface, tracking one key 0.

    Stream keys are ignored, which isolates estimator accuracy and speed from
    hashing and admission.
    """

    __slots__ = ("estimator",)

    def __init__(self, params: SketchParams) -> None:
        self.estimator = PointEstimator(
            params.candidate_capacity,
            params.representative_capacity,
            Calibrator(params.quantile, child_seed(params.seed, SEED_SINGLE)),
        )

    def insert(self, key: int, value: float) -> None:
        self.estimator.insert(value)

    def tracked_keys(self) -> list[int]:
        # An estimator buffers a value from its first insert on.
        est = self.estimator
        return [0] if est.candidate or est.representative else []

    def query(self, key: int) -> float:
        return self.estimator.query()


def _timed_inserts(stream: Stream, insert) -> float:
    """Seconds spent feeding the whole stream to insert.

    Only the feeding loop is timed; chunk materialization happens between
    timed sections.
    """
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


def _reference(stream: Stream, f_eval: int, single_key: bool) -> tuple[np.ndarray, dict[int, tuple[int, int]]]:
    """The stream's values sorted by key, then by value, and the (start, stop)
    span of every key with at least f_eval values: the exact per-key multisets,
    built once. Single-key mode files every value under key 0.
    """
    keys = np.zeros_like(stream.keys) if single_key else stream.keys
    order = np.lexsort((stream.values, keys))
    uniq, start, count = np.unique(keys[order], return_index=True, return_counts=True)
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
    final repetition's state feeds the accuracy section. Evaluated keys are
    the tracked keys whose true frequency is at least f_eval (defaulting to
    the gate threshold, below which a key cannot finish paying admission).
    A tracked key whose query raises is listed in unanswered_keys: it counts
    as covered but adds no row and no error. With single_key, one bare
    estimator takes every value as key 0.
    """
    t_start = perf_counter()
    check_count("repeat", repeat)
    if f_eval is None:
        f_eval = params.gate_threshold
    elif isinstance(f_eval, bool) or not isinstance(f_eval, int) or f_eval < 0:
        raise ValueError(f"f_eval must be a nonnegative integer, got {f_eval!r}")
    w = params.quantile
    make_sink = _SingleKeySink if single_key else PerKeyQuantileSketch

    insert_seconds: list[float] = []
    for _ in range(repeat):
        sink = make_sink(params)
        insert_seconds.append(_timed_inserts(stream, sink.insert))

    tracked = sorted(set(sink.tracked_keys()))
    query = sink.query
    query_seconds: list[float] = []
    for _ in range(repeat):
        t0 = perf_counter()
        for k in tracked:
            try:
                query(k)
            except ValueError:
                pass
        query_seconds.append(perf_counter() - t0)

    ordered_values, eligible = _reference(stream, f_eval, single_key)
    evaluated = [k for k in tracked if k in eligible]
    rows: list[dict] = []
    unanswered: list[int] = []
    total_error = 0.0
    for k in tracked:
        try:
            estimate = query(k)
        except ValueError:
            unanswered.append(k)
            continue
        if k not in eligible:
            continue
        start, stop = eligible[k]
        ordered = ordered_values[start:stop].tolist()
        rank, err = rank_error(ordered, estimate, w)
        total_error += err
        rows.append(
            {
                "key": int(k),
                "true_freq": len(ordered),
                "estimated_value": estimate,
                "true_rank": rank,
                "abs_error": err,
            }
        )
    ae = total_error / len(rows) if rows else None
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
