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
"""
from __future__ import annotations

import hashlib

import pytest

from pqsketch import InsertOutcome, PerKeyQuantileSketch, SketchParams
from pqsketch.datagen import StreamSpec, UniformKeys, ZipfKeys, generate

SEED = 2026
ITEMS = 200_000

# name: (key distribution, key count, w, SHA-256 of the state at the end)
CASES = {
    "zipf-w0.5": (ZipfKeys(1.0), 10_000, 0.5, "b4ec0a9e6e1760097f5c55b67c7c924cc2699230e0be3655169bd523c7660114"),
    "zipf-w0.9": (ZipfKeys(1.0), 10_000, 0.9, "16ed2ff06553b4eed5195d3bb783db3cd23f915cc83954a47cc05a897e70e184"),
    "uniform-w0.5": (UniformKeys(), 25_000, 0.5, "cd2cf2639caf1bfb2c70db2ac63a99f4ebdae2ff4d8a9ae78269ee986f196510"),
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
    for bucket in sketch.values.buckets:
        h.update(f"|b{bucket.vote_minus}".encode())
        for cell in bucket.cells:
            if cell is None:
                h.update(b"|-")
                continue
            est = cell.estimator
            h.update(
                f"|c{cell.key}:{cell.vote_plus}:{_floats(est.candidate)}:{_floats(est.representative)}".encode()
            )
    for _, _, _, counters in sketch.tower._layers:
        h.update(("|t" + ",".join(map(str, counters))).encode())
    h.update(f"|n{claims}".encode())
    for key in sorted(sketch.tracked_keys()):
        try:
            answer = float(sketch.query(key)).hex()
        except ValueError as exc:
            answer = str(exc)
        h.update(f"|q{key}:{answer}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_state_matches_golden_digest(name):
    key_dist, n_keys, w, golden = CASES[name]
    assert state_digest(key_dist, n_keys, w) == golden


if __name__ == "__main__":
    for name, (key_dist, n_keys, w, _) in CASES.items():
        print(name, state_digest(key_dist, n_keys, w))
