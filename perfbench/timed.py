"""The untraced run: end-to-end metrics of one workload.

A closed loop on one thread: the next insert starts only after the previous
one returned. Each pass builds a fresh sketch from the same seed and feeds it
the whole stream, timed per batch of consecutive inserts. Passes repeat until
the time budget is spent (at least MIN_PASSES); each must end in the first
pass's tracked keys and answers.

From the second pass on, query sweeps over the first pass's sketch and
timed constructions run between batches with the clock stopped, so they are
spread over the run.

Every time is the thread's CPU time. On a virtual machine it leaves out the
time the hypervisor gives the CPU to another guest (steal time), which
stalls single batches by tens of milliseconds. Wall time only bounds the
run's length.

On a shared machine other tenants also slow the work itself by up to 2x,
for seconds at a time and for minutes on end. So a fixed reference loop is
timed right before and right after each timed sample (a batch of inserts, a
query sweep, a construction). Batches and sweeps are rescaled to the nominal
reference speed, at which that loop takes REFERENCE_LOOP_S, using the mean
of the two loop times around each sample; their metrics are in units "at
ref". The measured figures are reported next to them. Set-up time is a
measured time: the median over clean constructions, those whose slower loop
time is within CLEAN_FACTOR of the least such time of a construction in the
run.
"""
from __future__ import annotations

import copy
import statistics
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter, thread_time

from pqsketch import PerKeyQuantileSketch

from .reference import Reference, Score
from .workloads import Inputs

BATCH_ITEMS = 1000  # 1M items give 1000 batches a pass, >= 10 beyond p99 after 2 passes
MIN_PASSES = 2
SWEEP_EVERY = 40  # batches between two query sweeps over the first pass's sketch
SETUP_REPS = 10  # constructions before each pass, at each query sweep and after the last
# The nominal reference speed. The loop's fastest time on an Intel Xeon 2.0 GHz
# VM under CPython 3.11 was 93-114 us, and 200-260 us at its most contended.
REFERENCE_LOOP_S = 100e-6
CLEAN_FACTOR = 1.1
_MASK = (1 << 64) - 1

Batches = list[tuple[list[int], list[float]]]


def batched(inputs: Inputs) -> Batches:
    keys, values = inputs.key_list, inputs.value_list
    return [(keys[i : i + BATCH_ITEMS], values[i : i + BATCH_ITEMS]) for i in range(0, len(keys), BATCH_ITEMS)]


def reference_seconds() -> float:
    """Time of a fixed loop of integer mixing and dict and list updates."""
    t0 = thread_time()
    x = 0x9E3779B97F4A7C15
    table = {}
    top = []
    for i in range(400):
        x = (x * 0xFF51AFD7ED558CCD + i) & _MASK
        table[x & 1023] = i
        top.append(x >> 60)
    return thread_time() - t0


@dataclass
class Samples:
    """Timed samples, each with the reference loop's times right before and after it."""

    seconds: list[float] = field(default_factory=list)
    before: list[float] = field(default_factory=list)
    after: list[float] = field(default_factory=list)

    def add(self, seconds: float, before: float) -> float:
        """Record a sample timed after a reference time of before; returns the time after it."""
        after = reference_seconds()
        self.seconds.append(seconds)
        self.before.append(before)
        self.after.append(after)
        return after

    def scaled(self) -> list[float]:
        """Each sample at the speed where the reference loop takes REFERENCE_LOOP_S."""
        return [s * 2 * REFERENCE_LOOP_S / (b + a) for s, b, a in zip(self.seconds, self.before, self.after)]

    def clean(self) -> list[float]:
        """The samples whose slower reference time is within CLEAN_FACTOR of the least such time."""
        slower = [max(b, a) for b, a in zip(self.before, self.after)]
        limit = CLEAN_FACTOR * min(slower)
        return [s for s, r in zip(self.seconds, slower) if r <= limit]


def fill(sketch: PerKeyQuantileSketch, batches: Batches, between=None) -> Samples:
    """Feed every batch through the sketch, timing each batch.

    between, if given, runs untimed after every SWEEP_EVERY batches.
    """
    insert = sketch.insert
    samples = Samples()
    before = reference_seconds()
    for i, (keys, values) in enumerate(batches, start=1):
        t0 = thread_time()
        for key, value in zip(keys, values):
            insert(key, value)
        before = samples.add(thread_time() - t0, before)
        if between is not None and i % SWEEP_EVERY == 0:
            between()
            before = reference_seconds()
    return samples


def sweep(sketch: PerKeyQuantileSketch, tracked: list[int]) -> tuple[list[float | None], float]:
    """Query every tracked key once; a query that raises answers None."""
    query = sketch.query
    answers: list[float | None] = []
    append = answers.append
    t0 = thread_time()
    for key in tracked:
        try:
            append(query(key))
        except ValueError:
            append(None)
    return answers, thread_time() - t0


@dataclass
class FirstPass:
    """A sketch filled with the whole stream, its answers and their score."""

    sketch: PerKeyQuantileSketch
    samples: Samples
    tracked: list[int]
    answers: list[float | None]
    score: Score
    problems: list[str]

    def disagrees(self, sketch: PerKeyQuantileSketch) -> bool:
        """Whether another sketch from the same seed ends in other tracked keys or answers."""
        return sorted(sketch.tracked_keys()) != self.tracked or sweep(sketch, self.tracked)[0] != self.answers


def first_pass(inputs: Inputs, batches: Batches) -> FirstPass:
    """Fill a sketch, query every tracked key and score the answers against the exact reference.

    An answer that is not a value inserted for its key is an output problem.
    """
    sketch = PerKeyQuantileSketch(inputs.params)
    samples = fill(sketch, batches)
    tracked = sorted(sketch.tracked_keys())
    answers, _ = sweep(sketch, tracked)
    params = inputs.params
    score = Reference(inputs.keys, inputs.values).score(tracked, answers, params.quantile, params.gate_threshold)
    problems = [f"answers never inserted for keys {score.foreign_keys}"] if score.foreign_keys else []
    return FirstPass(sketch, samples, tracked, answers, score, problems)


def construct(inputs: Inputs, samples: Samples) -> None:
    """Time SETUP_REPS constructions of the sketch."""
    params = inputs.params
    before = reference_seconds()
    for _ in range(SETUP_REPS):
        t0 = thread_time()
        PerKeyQuantileSketch(params)
        before = samples.add(thread_time() - t0, before)


def traced_bytes(sketch: PerKeyQuantileSketch) -> int:
    """Bytes tracemalloc sees allocated for a deep copy of the sketch.

    The copy rebuilds every container, estimator and generator the sketch
    holds and shares its immutable ints and floats, as a traced fill from
    caller-owned lists would; it costs a fraction of tracing the whole fill.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        replica = copy.deepcopy(sketch)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del replica
    return held


@dataclass
class Sweeps:
    """Timed query sweeps over one filled sketch, checked against its first answers."""

    first: FirstPass
    samples: Samples = field(default_factory=Samples)
    disagreed: bool = False

    def __call__(self) -> None:
        before = reference_seconds()
        answers, seconds = sweep(self.first.sketch, self.first.tracked)
        self.samples.add(seconds, before)
        self.disagreed |= answers != self.first.answers


@dataclass
class TimedResult:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    failed_keys: list[int]
    problems: list[str]
    measured: dict[str, float]  # medians as measured, the reference loop's median time, clean constructions
    passes: int
    sweeps: int
    tracked: int
    accounted_bytes: int


def timed_run(inputs: Inputs, seconds: float) -> TimedResult:
    batches = batched(inputs)
    setup = Samples()
    construct(inputs, setup)
    start = perf_counter()

    first = first_pass(inputs, batches)
    passes = [first.samples]
    sweeps = Sweeps(first)
    sweeps()
    checks = 0  # sweeps over later passes' sketches, to compare with the first

    def between() -> None:
        sweeps()
        construct(inputs, setup)

    problems = list(first.problems)
    last = first.sketch
    while len(passes) < MIN_PASSES or (perf_counter() - start) * (1 + 1 / len(passes)) <= seconds:
        construct(inputs, setup)
        last = None  # let the previous pass's sketch go before the next fill
        last = PerKeyQuantileSketch(inputs.params)
        passes.append(fill(last, batches, between=between))
        checks += 1
        if first.disagrees(last):
            problems.append(f"pass {len(passes)} disagrees with pass 1 on tracked keys or answers")
    construct(inputs, setup)
    if sweeps.disagreed:
        problems.append("repeated query sweeps over one sketch disagree")

    n = len(inputs.key_list)
    tracked = len(first.tracked)
    failed_keys = first.score.failed_keys
    n_sweeps = 1 + len(sweeps.samples.seconds) + checks
    # Each distinct operation counts once: the stream's inserts and one query
    # per tracked key. Later passes and sweeps repeat them and must agree with
    # the first (an output check), so both counts are fixed by the seed and do
    # not grow with the number of repeats the time budget allows.
    attempted = n + tracked
    failed = len(failed_keys)
    clean_setup = setup.clean()
    batch_seconds = [s for p in passes for s in p.scaled()]
    metrics = {
        "setup_s": (statistics.median(clean_setup), "s"),
        "insert_mops": (statistics.median(n / sum(p.scaled()) / 1e6 for p in passes), "Mops_at_ref"),
        "insert_batch_ms_p99": (statistics.quantiles(batch_seconds, n=100)[98] * 1e3, "ms_at_ref"),
        "query_mops": (statistics.median(tracked / s / 1e6 for s in sweeps.samples.scaled()), "Mq/s_at_ref"),
        "ae": (first.score.ae, "rank"),
        "coverage": (first.score.coverage, "fraction"),
        "answered_frac": ((tracked - len(failed_keys)) / tracked, "fraction"),
        "sketch_mb": (traced_bytes(last) / 1e6, "MB"),
    }
    measured = {
        "insert_mops": statistics.median(n / sum(p.seconds) / 1e6 for p in passes),
        "insert_batch_ms_p99": statistics.quantiles([s for p in passes for s in p.seconds], n=100)[98] * 1e3,
        "query_mops": statistics.median(tracked / s / 1e6 for s in sweeps.samples.seconds),
        "reference_loop_us": statistics.median(a for p in passes for a in p.after) * 1e6,
        "clean_constructions": len(clean_setup),
    }
    return TimedResult(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        failed_keys=failed_keys,
        problems=problems,
        measured=measured,
        passes=len(passes),
        sweeps=n_sweeps,
        tracked=tracked,
        accounted_bytes=last.plan.total_bytes,
    )
