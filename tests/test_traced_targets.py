"""Every function the benchmark's traced run wraps must still exist.

perfbench/tracing.py replaces each (owner, attribute) pair in TRACED with a
timing wrapper during ``perfbench/run.py --trace 1``. A rename or deletion in
the package would otherwise show up only when that run fails.
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import TRACED, Tracer  # noqa: E402
from pqsketch import PerKeyQuantileSketch, SketchParams, ValueSketch  # noqa: E402


def test_every_traced_target_resolves():
    for owner, attr, name, _ in TRACED:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_sketch_spans_count_each_call_once(monkeypatch):
    # The sketch inherits insert and query from ValueSketch. TRACED wraps the
    # sketch's before ValueSketch's, so each call is one sketch span. The
    # tracer puts the inherited functions back on the subclass itself;
    # monkeypatch removes them again at teardown.
    for attr in ("insert", "query"):
        monkeypatch.setattr(PerKeyQuantileSketch, attr, getattr(ValueSketch, attr))
    rng = random.Random(5)
    items = [(rng.randrange(300), rng.random()) for _ in range(5_000)]
    tracer = Tracer()
    with tracer.installed():
        sketch = PerKeyQuantileSketch(SketchParams(total_memory_bytes=60_000, gate_threshold=2, seed=3))
        for key, value in items:
            sketch.insert(key, value)
        inserts = tracer.phase()["sketch.insert"]
        tracer.reset()
        keys = sketch.tracked_keys()
        for key in keys:
            sketch.query(key)
        queries = tracer.phase()["sketch.query"]
    assert keys and {"gated", "matched", "placed"} <= set(inserts.results)
    assert inserts.calls == len(items)
    assert sum(inserts.results.values()) == len(items)
    assert queries.calls == len(keys)
