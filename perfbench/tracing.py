"""The traced run: per-layer counts and times from spans around public calls.

The tracer replaces the public functions of each pqsketch module with timing
wrappers while it is installed, and puts the originals back on exit. Every
call is one span; the tracer aggregates spans by name into calls, total
time, self time (total minus the time of child spans) and calls that raised.
Full spans (id, parent, request, name, start, end) are kept only for a
bounded sample of requests, where a request is one top-level call.

The run first fills an untraced sketch, then installs the tracer and fills a
fresh sketch from the same seed, so the difference between the two is the
tracing overhead. Both fills must end in the same tracked keys and answers.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

import pqsketch.tower
import pqsketch.value_sketch
from pqsketch import Calibrator, PerKeyQuantileSketch, PointEstimator, TowerFilter, ValueSketch

from .timed import batched, fill, first_pass
from .workloads import Inputs

SAMPLED_REQUESTS = 256


def _outcome(result) -> str:
    return "gated" if result is None else result.outcome.value


def _draw(z: int) -> int:
    return z


# (owner, attribute, span name, how to classify results or None). hash_key is
# reached through the module globals of its two callers.
TRACED = (
    (PerKeyQuantileSketch, "insert", "sketch.insert", _outcome),
    (PerKeyQuantileSketch, "query", "sketch.query", None),
    (pqsketch.tower, "hash_key", "hashing.hash_key", None),
    (pqsketch.value_sketch, "hash_key", "hashing.hash_key", None),
    (TowerFilter, "query", "tower.query", None),
    (TowerFilter, "insert", "tower.insert", None),
    (ValueSketch, "insert", "value_sketch.insert", None),
    (ValueSketch, "query", "value_sketch.query", None),
    (PointEstimator, "insert", "estimator.insert", None),
    (PointEstimator, "query", "estimator.query", None),
    (Calibrator, "sample_geometric", "calibration.sample_geometric", _draw),
    (Calibrator, "__init__", "calibration.init", None),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TRACED))


class Span:
    """Aggregate of all spans of one name."""

    __slots__ = ("calls", "total_ns", "self_ns", "raised", "results")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.raised = 0
        self.results: dict = {}  # classified return value -> calls


class Tracer:
    def __init__(self, sample_stride: int = 1) -> None:
        self.spans: dict[str, Span] = {}
        self.sample: list[tuple[int, int | None, int, str, int, int]] = []
        self._sampled_left = SAMPLED_REQUESTS
        self._stride = sample_stride
        self._requests = 0
        self._next_id = 0
        self._stack: list[list[int]] = []  # open spans: [span id, request id, child ns]
        self._recording = False

    def reset(self) -> None:
        """Start a new phase: drop the aggregates, keep the sample."""
        self.spans = {}

    def _wrap(self, fn, name: str, classify):
        tracer = self
        stack = self._stack
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            if stack:
                parent = stack[-1]
                request = parent[1]
            else:
                parent = None
                request = span_id
                tracer._recording = tracer._sampled_left > 0 and tracer._requests % tracer._stride == 0
                tracer._requests += 1
            frame = [span_id, request, 0]
            stack.append(frame)
            raised = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                agg = tracer.spans.get(name)
                if agg is None:
                    agg = tracer.spans[name] = Span()
                agg.calls += 1
                agg.total_ns += elapsed
                agg.self_ns += elapsed - frame[2]
                agg.raised += raised
                if parent is not None:
                    parent[2] += elapsed
                if tracer._recording:
                    tracer.sample.append((span_id, parent[0] if parent else None, request, name, t0, t1))
                    if parent is None:
                        tracer._sampled_left -= 1
            if classify is not None:
                kind = classify(result)
                agg.results[kind] = agg.results.get(kind, 0) + 1
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, classify in TRACED:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, classify))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def phase(self) -> dict[str, Span]:
        """Aggregates of every span name since the last reset."""
        return {name: self.spans.get(name) or Span() for name in SPAN_NAMES}


@dataclass
class TracedResult:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    failed_keys: list[int]
    problems: list[str]
    sample: list[tuple]
    outcomes: dict[str, int]
    spans: dict[str, dict[str, dict[str, int]]]  # phase -> span name -> calls, total_ns, self_ns, raised


def traced_run(inputs: Inputs) -> TracedResult:
    n = len(inputs.key_list)
    batches = batched(inputs)
    first = first_pass(inputs, batches)
    untraced_s = sum(first.samples.seconds)

    tracer = Tracer(sample_stride=max(1, n // SAMPLED_REQUESTS))
    sketch = PerKeyQuantileSketch(inputs.params)
    with tracer.installed():
        traced_s = sum(fill(sketch, batches).seconds)
        ins = tracer.phase()
        tracer.reset()
        disagrees = first.disagrees(sketch)
        q = tracer.phase()

    problems = list(first.problems)
    if disagrees:
        problems.append("traced and untraced fills disagree on tracked keys or answers")
    outcomes = ins["sketch.insert"].results
    if sum(outcomes.values()) != n:
        problems.append("outcome counts do not sum to the item count")

    def frac(outcome: str) -> float:
        return outcomes.get(outcome, 0) / n

    tower_queries = ins["tower.query"].calls
    estimator_inserts = ins["estimator.insert"].calls
    sentinels = sum((z - 1) * calls for z, calls in ins["calibration.sample_geometric"].results.items())
    metrics = {
        "sketch.insert.calls": (ins["sketch.insert"].calls, "count"),
        "sketch.insert.self_ns": (ins["sketch.insert"].self_ns, "ns"),
        "sketch.query.self_ns": (q["sketch.query"].self_ns, "ns"),
        "hashing.hash_key.per_item": (ins["hashing.hash_key"].calls / n, "count"),
        "hashing.hash_key.self_ns": (ins["hashing.hash_key"].self_ns, "ns"),
        "tower.query.calls": (tower_queries, "count"),
        "tower.query.self_ns": (ins["tower.query"].self_ns, "ns"),
        "tower.insert.calls": (ins["tower.insert"].calls, "count"),
        "tower.insert.self_ns": (ins["tower.insert"].self_ns, "ns"),
        "tower.gated_frac": (frac("gated"), "fraction"),
        "tower.wasted_query_frac": (outcomes.get("matched", 0) / tower_queries if tower_queries else 0.0, "fraction"),
        "value_sketch.insert.calls": (ins["value_sketch.insert"].calls, "count"),
        "value_sketch.insert.self_ns": (ins["value_sketch.insert"].self_ns, "ns"),
        "value_sketch.matched_frac": (frac("matched"), "fraction"),
        "value_sketch.placed_frac": (frac("placed"), "fraction"),
        "value_sketch.evicted_frac": (frac("evicted"), "fraction"),
        "value_sketch.rejected_frac": (frac("rejected"), "fraction"),
        "value_sketch.query.self_ns": (q["value_sketch.query"].self_ns, "ns"),
        "estimator.insert.calls": (estimator_inserts, "count"),
        "estimator.insert.self_ns": (ins["estimator.insert"].self_ns, "ns"),
        "estimator.query.self_ns": (q["estimator.query"].self_ns, "ns"),
        "estimator.query.failed": (q["estimator.query"].raised, "count"),
        "calibration.sample_geometric.calls": (ins["calibration.sample_geometric"].calls, "count"),
        "calibration.sample_geometric.self_ns": (ins["calibration.sample_geometric"].self_ns, "ns"),
        "calibration.sentinels_per_value": (sentinels / estimator_inserts if estimator_inserts else 0.0, "count"),
        "calibration.init.calls": (ins["calibration.init"].calls, "count"),
        "calibration.init.self_ns": (ins["calibration.init"].self_ns, "ns"),
        "trace.insert_mops": (n / traced_s / 1e6, "Mops"),
        "trace.untraced_insert_mops": (n / untraced_s / 1e6, "Mops"),
        "trace.overhead": (traced_s / untraced_s, "ratio"),
    }
    return TracedResult(
        metrics=metrics,
        attempted=2 * n + 2 * len(first.tracked),
        failed=2 * len(first.score.failed_keys),
        failed_keys=first.score.failed_keys,
        problems=problems,
        sample=tracer.sample,
        outcomes=outcomes,
        spans={
            phase: {
                name: {"calls": a.calls, "total_ns": a.total_ns, "self_ns": a.self_ns, "raised": a.raised}
                for name, a in aggs.items()
            }
            for phase, aggs in (("insert", ins), ("query", q))
        },
    )
