"""Tests of the benchmark itself, on streams small enough to run in seconds.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pqsketch import PerKeyQuantileSketch, Stream, run_benchmark
from perfbench.reference import Reference
from perfbench.timed import REFERENCE_LOOP_S, Samples, batched, fill, first_pass, timed_run, traced_bytes
from perfbench.tracing import TRACED, traced_run
from perfbench.workloads import WORKLOADS, make_inputs, split_seed

ROOT = Path(__file__).resolve().parents[2]

# Small enough for a test, with a sketch small enough that cells get evicted.
SMALL = {
    name: replace(w, n_items=20_000, n_keys=500, memory_bytes=50 * 1024)
    for name, w in WORKLOADS.items()
}
# Counts that depend only on the seed; everything else in the traced metrics is a time.
DETERMINISTIC = (
    "sketch.insert.calls", "hashing.hash_key.per_item", "tower.query.calls", "tower.insert.calls",
    "tower.gated_frac", "tower.wasted_query_frac", "value_sketch.insert.calls",
    "value_sketch.matched_frac", "value_sketch.placed_frac", "value_sketch.evicted_frac",
    "value_sketch.rejected_frac", "estimator.insert.calls", "estimator.query.failed",
    "calibration.sample_geometric.calls", "calibration.sentinels_per_value", "calibration.init.calls",
)  # fmt: skip


def test_same_seed_same_inputs_and_seeds_split_apart():
    a = make_inputs(SMALL["churn"], 5)
    b = make_inputs(SMALL["churn"], 5)
    assert a.key_list == b.key_list and a.value_list == b.value_list and a.params == b.params
    assert make_inputs(SMALL["churn"], 6).key_list != a.key_list
    data_seed, sketch_seed = split_seed(5)
    assert data_seed != sketch_seed


@pytest.mark.parametrize("name", ["zipf-p50", "zipf-p90", "churn"])
def test_reference_scores_like_run_benchmark(name):
    inputs = make_inputs(SMALL[name], 3)
    first = first_pass(inputs, batched(inputs))
    params = inputs.params
    reference = Reference(inputs.keys, inputs.values)
    score = first.score
    report = run_benchmark(Stream(inputs.keys, inputs.values), params, repeat=1)
    assert score.ae == report.ae
    assert score.coverage == report.coverage
    assert score.eligible == report.eligible_keys
    assert len(first.tracked) == report.tracked_keys
    assert score.foreign_keys == [] and first.problems == []
    # run_benchmark leaves unanswerable keys out of ae; the reference lists them.
    unanswered = [k for k in score.failed_keys if reference.count(k) >= params.gate_threshold]
    assert len(report.per_key) == score.evaluated - len(unanswered)


def test_reference_flags_foreign_and_failed_answers():
    keys = np.array([1, 1, 1, 2, 2, 3], dtype=np.uint64)
    ref = Reference(keys, np.array([1.0, 2.0, 3.0, 5.0, 6.0, 9.0]))
    score = ref.score([1, 2, 3], [2.0, 5.5, None], 0.5, 2)
    assert score.foreign_keys == [2]
    assert score.failed_keys == [3]
    assert score.eligible == 2 and score.evaluated == 2 and score.coverage == 1.0
    # Key 1 answers its exact median; key 2's 5.5 snaps to 5.0 (ties go to the smaller), rank 0.
    assert score.ae == pytest.approx((0.0 + 0.5) / 2)


def test_samples_rescale_to_the_reference_speed_and_keep_clean_ones():
    samples = Samples([1.0, 2.0, 3.0], [1.0e-4, 1.05e-4, 2.0e-4], [1.05e-4, 1.0e-4, 2.0e-4])
    assert samples.clean() == [1.0, 2.0]
    scaled = samples.scaled()
    assert scaled[2] == pytest.approx(3.0 * REFERENCE_LOOP_S / 2.0e-4)


def test_timed_run_reports_every_metric_and_counts_failures():
    inputs = make_inputs(SMALL["zipf-p90"], 1)
    result = timed_run(inputs, seconds=0.01)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result.metrics) == {m["name"] for m in spec["end_to_end"]}
    assert result.problems == []
    passes = result.passes
    assert passes >= 2
    assert all(value > 0 for value, _ in result.metrics.values())
    assert result.sweeps >= passes
    assert result.attempted == len(inputs.key_list) + result.tracked
    assert result.failed == len(result.failed_keys)


def test_timed_run_fails_when_answers_are_not_inserted_values_or_do_not_repeat(monkeypatch):
    inputs = make_inputs(SMALL["zipf-p50"], 1)
    real_query = PerKeyQuantileSketch.query
    calls = [0]

    def drifting_query(self, key):
        calls[0] += 1
        return real_query(self, key) + (calls[0] % 3) * 1e-9

    monkeypatch.setattr(PerKeyQuantileSketch, "query", drifting_query)
    problems = timed_run(inputs, seconds=0.01).problems
    assert any("never inserted" in p for p in problems)
    assert any("disagree" in p for p in problems)


def test_traced_outcomes_sum_to_items_and_counts_repeat():
    inputs = make_inputs(SMALL["churn"], 2)
    first = traced_run(inputs)
    second = traced_run(inputs)
    assert first.problems == [] and second.problems == []
    n = len(inputs.key_list)
    assert sum(first.outcomes.values()) == n
    assert set(first.outcomes) <= {"gated", "matched", "placed", "evicted", "rejected"}
    assert first.outcomes.get("evicted", 0) > 0
    fractions = ["tower.gated_frac"] + [f"value_sketch.{o}_frac" for o in ("matched", "placed", "evicted", "rejected")]
    assert sum(first.metrics[m][0] for m in fractions) == pytest.approx(1.0)
    assert {m: first.metrics[m] for m in DETERMINISTIC} == {m: second.metrics[m] for m in DETERMINISTIC}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(first.metrics) == {m["name"] for m in spec["per_layer"]}
    # The sample keeps whole requests, each with one root span.
    assert 0 < len(first.sample) and sum(1 for span in first.sample if span[1] is None) <= 256


def test_traced_run_counts_calibration_work_and_restores_originals():
    originals = [getattr(owner, attr) for owner, attr, _, _ in TRACED]
    result = traced_run(make_inputs(SMALL["zipf-p90"], 4))
    assert [getattr(owner, attr) for owner, attr, _, _ in TRACED] == originals
    m = result.metrics
    outcomes = result.outcomes
    assert m["calibration.init.calls"][0] == outcomes.get("placed", 0) + outcomes.get("evicted", 0)
    assert m["estimator.insert.calls"][0] == sum(outcomes.get(o, 0) for o in ("matched", "placed", "evicted"))
    # w = 0.9 pushes 2w - 1 = 0.8 sentinels per value in expectation.
    assert 0.6 < m["calibration.sentinels_per_value"][0] < 1.0
    assert m["estimator.query.failed"][0] * 2 == result.failed


def test_traced_bytes_tracks_a_traced_fill():
    inputs = make_inputs(SMALL["churn"], 1)
    replica = traced_bytes(first_pass(inputs, batched(inputs)).sketch)
    batches = batched(inputs)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traced_fill = PerKeyQuantileSketch(inputs.params)
        fill(traced_fill, batches)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 0.8 * held <= replica <= 1.25 * held


def test_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
