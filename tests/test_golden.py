"""Golden state: a fixed feed must leave the sketch in exactly the state it did.

Three default sketches (seed 2026) take the first 200k items of three
streams. One SHA-256 covers every insert result, every cell (key, vote,
both buffers), every bucket's negative vote, every tower counter, the claim
count (placed plus evicted results), and the answer (or the error) for each
tracked key in sorted order.
Floats enter through ``float.hex``, so the digest pins every bit.

A change meant to leave outputs alone must leave these digests alone. A
change that alters outputs on purpose recomputes them and says why in
CHANGES.md; ``PYTHONPATH=src python tests/test_golden.py`` prints the
current digest of each case.

Three benchmark reports on the same Zipf stream are pinned the same way: the
SHA-256 of ``run_benchmark`` output (``repeat=1``) with ``TIMING_FIELDS``
removed, dumped as JSON with sorted keys.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from pqsketch import TIMING_FIELDS, InsertOutcome, PerKeyQuantileSketch, SketchParams, run_benchmark
from pqsketch.datagen import StreamSpec, UniformKeys, ZipfKeys, generate

SEED = 2026
ITEMS = 200_000

# name: (key distribution, key count, w, SHA-256 of the state at the end)
CASES = {
    "zipf-w0.5": (ZipfKeys(1.0), 10_000, 0.5, "0c48d1b55630afcce8ac98b2ebdb9313393a01f134cce090f13a38796f5f7793"),
    "zipf-w0.9": (ZipfKeys(1.0), 10_000, 0.9, "be4a34ccbde39cb4ec8f6699fb1c8b573bfdb2434fba125bd226a39e6712f298"),
    "uniform-w0.5": (UniformKeys(), 25_000, 0.5, "60053fe4dd592c49c88337028640de396a2b2e3897b1d89347c59266bc065865"),
}

# name: (single_key, w, SHA-256 of the report without its timing fields)
REPORTS = {
    "per-key-w0.5": (False, 0.5, "5d43cc99f3a721ffb90a218834413688d1bfb911694b6bb34550296c6c98fecf"),
    "per-key-w0.9": (False, 0.9, "8349ecb2d197baa5d5847aaaf91b720d54ae05e17f7ecfca01841eb9dfd9093b"),
    "single-key-w0.9": (True, 0.9, "81484d300f2325d06a559e18c92656cdfa61b31e73b4e8b9668ab968108f8c73"),
}

# Outcomes that claim a cell; their count is the claim count in the digest.
_CLAIMS = (InsertOutcome.PLACED, InsertOutcome.EVICTED)


def _floats(values) -> str:
    return ",".join(float(v).hex() for v in values)


def state_digest(key_dist, n_keys: int, w: float) -> str:
    stream = generate(StreamSpec(n_items=ITEMS, n_keys=n_keys, key_dist=key_dist, seed=SEED))
    sketch = PerKeyQuantileSketch(SketchParams(quantile=w, seed=SEED))
    h = hashlib.sha256()
    insert = sketch.insert
    claims = 0
    for keys, values in stream.chunks():
        results = []
        for key, value in zip(keys, values):
            r = insert(key, value)
            results.append("g" if r is None else f"{r.outcome.value}:{r.evicted_key}")
            if r is not None and r.outcome in _CLAIMS:
                claims += 1
        h.update(";".join(results).encode())
    for bucket in sketch.buckets:
        h.update(f"|b{bucket.vote_minus}".encode())
        for cell in bucket.cells:
            if cell is None:
                h.update(b"|-")
                continue
            est = cell.estimator
            h.update(
                f"|c{cell.key}:{cell.vote_plus}:{_floats(est.candidate)}:{_floats(est.representative)}".encode()
            )
    for _, _, counters in sketch.tower._layers:
        h.update(("|t" + ",".join(map(str, counters))).encode())
    h.update(f"|n{claims}".encode())
    for key in sorted(sketch.tracked_keys()):
        try:
            answer = float(sketch.query(key)).hex()
        except ValueError as exc:
            answer = str(exc)
        h.update(f"|q{key}:{answer}".encode())
    return h.hexdigest()


def report_digest(single_key: bool, w: float) -> str:
    stream = generate(StreamSpec(n_items=ITEMS, n_keys=10_000, key_dist=ZipfKeys(1.0), seed=SEED))
    report = run_benchmark(stream, SketchParams(quantile=w, seed=SEED), repeat=1, single_key=single_key)
    fields = report.as_dict()
    for name in TIMING_FIELDS:
        del fields[name]
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_state_matches_golden_digest(name):
    key_dist, n_keys, w, golden = CASES[name]
    assert state_digest(key_dist, n_keys, w) == golden


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden_digest(name):
    single_key, w, golden = REPORTS[name]
    assert report_digest(single_key, w) == golden


if __name__ == "__main__":
    for name, (key_dist, n_keys, w, _) in CASES.items():
        print(name, state_digest(key_dist, n_keys, w))
    for name, (single_key, w, _) in REPORTS.items():
        print(name, report_digest(single_key, w))
