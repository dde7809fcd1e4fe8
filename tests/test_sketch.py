"""Tests for capacity planning, the collision model, and what only the composed sketch does.

The key table's key and value rules, written once in ``models.KeyRules``, run
here on the composed build (``TestKeys``) and in test_value_sketch.py on the
standalone one; ``TestResidentFirst`` replays it against ``GateFirstModel``.
The rest of this file keeps what only the composed sketch does: the tower
gate, the plan, placement, copies and memory.
"""
from __future__ import annotations

import copy
import gc
import pickle
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from operator import length_hint

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pqsketch.tower
import pqsketch.value_sketch
from pqsketch import (
    InsertOutcome,
    PerKeyQuantileSketch,
    SketchParams,
    collision_probability,
    plan_capacity,
)
from pqsketch.calibration import BLOCK
from pqsketch.estimator import answer as estimator_answer
from pqsketch.hashing import child_seed
from pqsketch.sketch import SEED_TOWER, bucket_bytes
from pqsketch.tower import layer_counters
from pqsketch.value_sketch import Bucket, Cell

from models import NON_FINITE, GateFirstModel, KeyRules, draws, placement_bucket, replay, runs, sketch_state


class TestBucketBytes:
    def test_hand_computed_default_layout(self):
        # 7 cells * (8 key + 4 vote + 26 entries * 9) + 4 shared = 1726.
        assert bucket_bytes(7, 16, 10) == 1726

    def test_minimal_layout(self):
        # 1 cell * (12 + 4 * 9) + 4 = 52.
        assert bucket_bytes(1, 2, 2) == 52


class TestCollisionProbability:
    def test_against_poisson_tail(self):
        poisson = pytest.importorskip("scipy.stats").poisson
        for keys, buckets, cells in [
            (1000, 500, 4),
            (100, 1000, 1),
            (5000, 266, 7),
            (10, 1000, 0),
            (300, 300, 3),
        ]:
            expected = poisson.sf(cells, keys / buckets)
            assert collision_probability(keys, buckets, cells) == pytest.approx(
                expected, rel=1e-9, abs=1e-15
            )

    def test_frozen_reference_point(self):
        # 1 - e^-2 * (1 + 2 + 2 + 4/3 + 2/3) evaluated once by hand.
        assert collision_probability(1000, 500, 4) == pytest.approx(0.05265302128773845)

    def test_zero_keys(self):
        assert collision_probability(0, 100, 4) == 0.0

    def test_extreme_load_saturates_at_one(self):
        p = collision_probability(10**9, 1, 100)
        assert p == pytest.approx(1.0)

    def test_huge_cell_count_is_stable(self):
        # log-space evaluation: 500 cells at load 400 must not overflow.
        p = collision_probability(400, 1, 500)
        assert 0.0 <= p <= 1e-6

    def test_monotone_in_load_and_cells(self):
        assert collision_probability(2000, 500, 4) > collision_probability(1000, 500, 4)
        assert collision_probability(1000, 500, 5) < collision_probability(1000, 500, 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="bucket count"):
            collision_probability(10, 0, 4)
        with pytest.raises(ValueError, match="cell count"):
            collision_probability(10, 10, -1)
        with pytest.raises(ValueError, match="key count"):
            collision_probability(-1, 10, 4)
        with pytest.raises(ValueError, match="cell count"):
            collision_probability(100, 10, 2.5)
        with pytest.raises(ValueError, match="bucket count"):
            collision_probability(100, 2.5, 2)


class TestSketchParams:
    def test_defaults(self):
        p = SketchParams()
        assert p.quantile == 0.5
        assert p.total_memory_bytes == 512_000
        assert p.tower_fraction == 0.1
        assert p.gate_threshold == 40
        assert p.cells_per_bucket == 7
        assert p.eviction_ratio == Fraction(4)
        assert p.candidate_capacity == 16
        assert p.representative_capacity == 10

    def test_ratio_normalized_to_fraction(self):
        assert SketchParams(eviction_ratio=2.5).eviction_ratio == Fraction(5, 2)
        assert SketchParams(eviction_ratio="1/3").eviction_ratio == Fraction(1, 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="quantile"):
            SketchParams(quantile=1.5)
        with pytest.raises(ValueError, match="tower fraction"):
            SketchParams(tower_fraction=0.0)
        with pytest.raises(ValueError, match="tower fraction"):
            SketchParams(tower_fraction=1.0)
        with pytest.raises(ValueError, match="tower fraction"):
            SketchParams(tower_fraction=Fraction(10**20 - 1, 10**20))  # 1.0 as a float
        with pytest.raises(ValueError, match="gate threshold"):
            SketchParams(gate_threshold=-1)
        with pytest.raises(ValueError, match="even"):
            SketchParams(candidate_capacity=15)
        with pytest.raises(ValueError, match="eviction ratio"):
            SketchParams(eviction_ratio=0)

    def test_bool_is_not_a_count(self):
        with pytest.raises(ValueError, match="cells per bucket"):
            SketchParams(cells_per_bucket=True)

    def test_bool_is_not_a_gate_threshold(self):
        with pytest.raises(ValueError, match="gate threshold"):
            SketchParams(gate_threshold=False)

    def test_bool_is_not_a_quantile(self):
        with pytest.raises(ValueError, match="quantile"):
            SketchParams(quantile=True)

    def test_bool_is_not_an_eviction_ratio(self):
        with pytest.raises(ValueError, match="eviction ratio"):
            SketchParams(eviction_ratio=True)

    def test_bool_is_not_a_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SketchParams(seed=True)

    @pytest.mark.parametrize("seed", [1.5, "3", None])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SketchParams(seed=seed)

    @pytest.mark.parametrize("w", ["0.5", None])
    def test_quantile_must_be_a_real_number(self, w):
        with pytest.raises(ValueError, match="quantile weight"):
            SketchParams(quantile=w)

    @pytest.mark.parametrize("fraction", ["0.1", None])
    def test_tower_fraction_must_be_a_real_number(self, fraction):
        with pytest.raises(ValueError, match="tower fraction"):
            SketchParams(tower_fraction=fraction)

    @pytest.mark.parametrize("w", [Fraction(9, 10), np.float32(0.9), 1])
    def test_quantile_is_stored_as_a_float(self, w):
        params = SketchParams(quantile=w)
        assert type(params.quantile) is float and params.quantile == float(w)

    @pytest.mark.parametrize("fraction", [Fraction(1, 10), np.float32(0.1)])
    def test_tower_fraction_is_stored_as_a_float(self, fraction):
        params = SketchParams(tower_fraction=fraction)
        assert type(params.tower_fraction) is float and params.tower_fraction == float(fraction)
        # A sketch builds: the plan reads the fraction through Fraction().
        assert PerKeyQuantileSketch(params).plan.total_bytes <= params.total_memory_bytes


class TestPlanCapacity:
    def test_default_plan_hand_checked(self):
        # 10% of 512000 = 51200 -> 17066 bytes per array; 460800 // 1726
        # buckets. Totals stay within the budget.
        plan = plan_capacity(SketchParams())
        assert plan.tower_bytes_per_array == 17066
        assert layer_counters(plan.tower_bytes_per_array) == (34132, 17066, 8533)
        assert bucket_bytes(7, 16, 10) == 1726
        assert plan.buckets == 266
        assert 3 * plan.tower_bytes_per_array == 51198
        assert plan.buckets * bucket_bytes(7, 16, 10) == 459116
        assert plan.total_bytes == 510314
        assert plan.total_bytes <= 512_000

    def test_infeasible_budgets(self):
        with pytest.raises(ValueError, match="infeasible layout"):
            plan_capacity(SketchParams(total_memory_bytes=20))
        # Tower feasible but no room for a single bucket.
        with pytest.raises(ValueError, match="infeasible layout"):
            plan_capacity(SketchParams(total_memory_bytes=1800, tower_fraction=0.5))

    @settings(max_examples=200)
    @given(
        total=st.integers(2_000, 1_000_000),
        d=st.integers(1, 8),
        q=st.floats(0.05, 0.9),
        r=st.sampled_from([2, 4, 8, 16, 32]),
        s=st.sampled_from([2, 4, 10, 16]),
    )
    def test_plans_never_exceed_budget(self, total, d, q, r, s):
        params = SketchParams(
            total_memory_bytes=total,
            tower_fraction=q,
            cells_per_bucket=d,
            candidate_capacity=r,
            representative_capacity=s,
        )
        try:
            plan = plan_capacity(params)
        except ValueError as err:
            assert "infeasible layout" in str(err)
            assume(False)
        assert plan.total_bytes <= total
        assert plan.buckets >= 1
        assert min(layer_counters(plan.tower_bytes_per_array)) >= 1
        frac = Fraction(q)
        assert 3 * plan.tower_bytes_per_array <= int(frac * total)
        assert plan.buckets * bucket_bytes(d, r, s) <= int((1 - frac) * total)


class TestGate:
    def params(self, **kwargs):
        defaults = dict(
            total_memory_bytes=100_000,
            gate_threshold=5,
            cells_per_bucket=4,
            seed=3,
        )
        defaults.update(kwargs)
        return SketchParams(**defaults)

    def test_first_t_items_are_swallowed(self):
        sk = PerKeyQuantileSketch(self.params())
        for i in range(5):
            assert sk.insert(42, float(i)) is None
        result = sk.insert(42, 5.0)
        assert result is not None
        assert result.outcome is InsertOutcome.PLACED
        assert list(sk.tracked_keys()) == [42]

    def test_threshold_one_admits_second_item(self):
        sk = PerKeyQuantileSketch(self.params(gate_threshold=1))
        assert sk.insert(7, 1.0) is None
        assert sk.insert(7, 2.0) is not None

    def test_threshold_zero_disables_the_gate(self):
        sk = PerKeyQuantileSketch(self.params(gate_threshold=0))
        assert sk.insert(7, 1.0) is not None

    def test_widest_counter_limit_is_the_top_threshold(self):
        # The 16-bit top layer counts a key to at most 65535, so a higher gate
        # never opens; at 65535 itself a repeated key is still admitted.
        with pytest.raises(ValueError, match="gate threshold"):
            self.params(gate_threshold=65536)
        sk = PerKeyQuantileSketch(self.params(gate_threshold=65535))
        for _ in range(65535):
            assert sk.insert(42, 1.0) is None
        assert sk.insert(42, 2.0).outcome is InsertOutcome.PLACED
        assert list(sk.tracked_keys()) == [42]

    def test_tower_freezes_once_open(self):
        sk = PerKeyQuantileSketch(self.params())
        for i in range(50):
            sk.insert(42, float(i))
        assert sk.tower.query(42) == 5

    def test_gate_only_opens_at_threshold(self):
        sk = PerKeyQuantileSketch(self.params())
        calls = []
        original = sk._place

        def spy(key, bucket_index):
            calls.append((key, sk.tower.query(key)))
            return original(key, bucket_index)

        sk._place = spy
        rng = random.Random(1)
        for _ in range(3_000):
            sk.insert(rng.randrange(60), rng.random())
        assert calls, "gate never opened"
        assert all(estimate >= 5 for _, estimate in calls)

    def test_swallowed_values_never_reach_estimates(self):
        sk = PerKeyQuantileSketch(self.params())
        # Admission fee: values 0..4 are dropped, so the median over the
        # surviving 5..99 is 52, not 49 or 50.
        for i in range(100):
            sk.insert(8, float(i))
        assert sk.query(8) >= 5.0

    def test_query_untracked(self):
        sk = PerKeyQuantileSketch(self.params())
        sk.insert(1, 1.0)
        with pytest.raises(KeyError, match="not tracked"):
            sk.query(1)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_gated_key_rejects_non_finite_values(self, bad):
        sk = PerKeyQuantileSketch(self.params(quantile=0.9))
        # Key 7 holds a cell, so the calibration stream has started drawing.
        for i in range(8):
            sk.insert(7, float(i))
        for i in range(3):
            sk.insert(42, float(i))
        assert sk.tracked_keys() == [7]
        before = copy.deepcopy(sketch_state(sk))
        twin = copy.deepcopy(sk._calibrator)
        with pytest.raises(ValueError, match="finite"):
            sk.insert(42, bad)
        # Refused before the gate: the key paid nothing and no draw was taken.
        assert sk.tower.query(42) == 3
        assert sketch_state(sk) == before
        assert draws(sk._calibrator, 50) == draws(twin, 50)


class TestKeys(KeyRules):
    """The key table's rules on the composed sketch with an open gate (T = 0),
    and the keys a shut gate checks."""

    def build(self, quantile=0.5):
        return PerKeyQuantileSketch(SketchParams(quantile=quantile, gate_threshold=0))

    def test_gated_keys_are_checked_too(self):
        # Key 1 holds a cell; -1 and key 9 meet a shut gate, which counts neither.
        sk = PerKeyQuantileSketch(SketchParams(gate_threshold=2))
        for value in (1.0, 2.0, 3.0, 4.0):
            sk.insert(1, value)
        before = sketch_state(sk)
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            sk.insert(-1, 1.0)
        for bad in (True, False, "1", None, 1j):
            with pytest.raises(TypeError, match="real"):
                sk.insert(9, bad)
        assert sk.tower.query((1 << 64) - 1) == sk.tower.query(9) == 0
        assert sketch_state(sk) == before


class TestFloat64Answers:
    """A representative holds float64s, so an answer read from it is rounded."""

    @pytest.mark.parametrize("value, rounded", [(2**53 + 1, 2.0**53), (Fraction(1, 3), 1 / 3)])
    def test_answers_are_rounded_to_float64(self, value, rounded):
        assert rounded != value
        sk = PerKeyQuantileSketch(SketchParams(gate_threshold=0))
        # Before the first flush the candidate answers with the inserted object.
        sk.insert(1, value)
        assert sk.query(1) == value and type(sk.query(1)) is type(value)
        # r = 16 inserts flush once, and the pair enters the representative.
        for _ in range(15):
            sk.insert(1, value)
        cell = sk._resident[1]
        assert list(cell.representative) == [rounded, rounded]
        for answer in (sk.query(1), estimator_answer(cell.representative, cell.candidate, 0.5)):
            assert type(answer) is float and answer == rounded


class TestResidentFirst:
    """insert() skips the tower for keys that hold a cell; nothing may change for
    it: ``models.replay`` finds the sketch and ``GateFirstModel`` agree."""

    KEYS = 40

    @settings(max_examples=60, deadline=None)
    @given(
        threshold=st.sampled_from([0, 1, 3]),
        w=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        cells=st.integers(1, 3),
        ratio=st.sampled_from([1, 4]),
        seed=st.integers(0, 2**32),
        # Runs of one key, so keys pass their gates and flush their buffers.
        items=runs(KEYS),
    )
    def test_matches_gate_first_routing(self, threshold, w, cells, ratio, seed, items):
        # About 9 buckets for 40 keys, so buckets overflow and cells are evicted.
        params = SketchParams(
            quantile=w,
            total_memory_bytes=1_000 + 400 * cells,
            gate_threshold=threshold,
            cells_per_bucket=cells,
            eviction_ratio=ratio,
            candidate_capacity=4,
            representative_capacity=2,
            seed=seed,
        )
        sketch = PerKeyQuantileSketch(params)
        # Two keys past the inserted range are never inserted; the model watches their gates too.
        probes = range(self.KEYS + 2)
        replay(sketch, GateFirstModel(sketch, probes), items, probes)


# One layout per placement regime (see TowerFilter.admit): the default, where
# the tower's quotient picks the bucket; a mid-size one (2 MB at the default
# tower fraction, so n0 n1 n2 <= 2^54 < n0 n1 n2 u), where the tower hashes
# an admitted key once more; and a wide tower (128-bit digits), whose
# quotient picks the bucket again.
REGIMES = {
    "default": SketchParams(gate_threshold=0),
    "mid-size": SketchParams(total_memory_bytes=2_000_000, gate_threshold=0),
    "128-bit": SketchParams(total_memory_bytes=1_000_000, tower_fraction=0.9, gate_threshold=0),
}


def regime_of(sketch):
    """The placement regime a sketch's layout falls into, as its tower reads it."""
    step = sketch.tower._step
    wide = step[1] is not None
    buckets, rehash_seed = step[-2:]
    assert buckets == sketch.plan.buckets
    # The tower hashes under its seed's first child; high 64 bits and rehash use the second.
    tower_seed = child_seed(sketch.params.seed, SEED_TOWER)
    assert step[0] == child_seed(tower_seed, 0) and {step[1], rehash_seed} <= {None, child_seed(tower_seed, 1)}
    if rehash_seed is not None:
        assert not wide
        return "mid-size"
    return "128-bit" if wide else "default"


class TestPlacementRule:
    """An admitted key's bucket is the tower hash's fourth digit where the layout allows it."""

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_placement_follows_the_rule_and_reaches_every_bucket(self, regime):
        sk = PerKeyQuantileSketch(REGIMES[regime])
        assert regime_of(sk) == regime
        u = sk.plan.buckets
        # 24 u sequential keys leave a given bucket empty with odds e^-24,
        # and some bucket of the u with odds about u e^-24.
        for key in range(24 * u):
            sk.insert(key, float(key))
        for index, bucket in enumerate(sk.buckets):
            assert bucket.cells[0] is not None, f"bucket {index} never reached"
            for cell in bucket.cells:
                if cell is not None:
                    assert placement_bucket(sk.tower, cell.key) == index

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_each_item_is_hashed_at_most_once_outside_admit(self, regime, monkeypatch):
        # hash_key reaches the sketch through these two module globals; admit
        # mixes inline. Per item without a cell: the default layout calls
        # neither; a mid-size one calls the tower's once per admitted item,
        # for the bucket; a wide tower calls the tower's once per step, for
        # the high 64 bits. No layout calls the value sketch's.
        sk = PerKeyQuantileSketch(replace(REGIMES[regime], gate_threshold=2))
        calls = {pqsketch.tower: 0, pqsketch.value_sketch: 0}
        for module in calls:
            def counting(key, seed, _module=module, _real=module.hash_key):
                calls[_module] += 1
                return _real(key, seed)

            monkeypatch.setattr(module, "hash_key", counting)
        rng = random.Random(7)
        cells = sk.plan.buckets * sk.params.cells_per_bucket
        outcomes = [sk.insert(rng.randrange(2 * cells), 1.0) for _ in range(8 * cells)]
        steps = sum(r is None or r.outcome is not InsertOutcome.MATCHED for r in outcomes)
        admitted = sum(r is not None and r.outcome is not InsertOutcome.MATCHED for r in outcomes)
        assert admitted > 0 and any(r is not None and r.outcome is InsertOutcome.REJECTED for r in outcomes)
        expected = {
            "default": (0, 0),
            "mid-size": (admitted, 0),
            "128-bit": (steps, 0),
        }[regime]
        assert (calls[pqsketch.tower], calls[pqsketch.value_sketch]) == expected


class TestComposedSketch:
    def test_memory_accounting_matches_plan(self):
        params = SketchParams(total_memory_bytes=200_000)
        sk = PerKeyQuantileSketch(params)
        plan = sk.plan
        assert plan.total_bytes == 3 * plan.tower_bytes_per_array + plan.buckets * bucket_bytes(7, 16, 10)
        assert plan.total_bytes <= 200_000
        assert tuple(layer[0] for layer in sk.tower._layers) == layer_counters(plan.tower_bytes_per_array)

    def test_screening_prefers_heavy_keys(self):
        # Zipf keys: most keys are rare and should die at the gate, while
        # most items belong to heavy keys and should pass. The passed-key
        # fraction must trail the passed-item fraction by a wide margin.
        from pqsketch.datagen import StreamSpec, ZipfKeys, generate

        spec = StreamSpec(n_items=200_000, n_keys=5_000, key_dist=ZipfKeys(1.0), seed=2)
        stream = generate(spec)
        sk = PerKeyQuantileSketch(SketchParams(seed=6))
        passed_items = 0
        passed_keys = set()
        seen_keys = set()
        for keys, values in stream.chunks():
            for key, value in zip(keys, values):
                seen_keys.add(key)
                if sk.insert(key, value) is not None:
                    passed_items += 1
                    passed_keys.add(key)
        item_frac = passed_items / len(stream)
        key_frac = len(passed_keys) / len(seen_keys)
        assert key_frac < 0.6 * item_frac
        assert set(sk.tracked_keys()) <= passed_keys


@pytest.fixture(scope="module")
def default_stream():
    """The default 1M-item synthetic stream, built before any tracing."""
    from pqsketch.datagen import StreamSpec, generate

    return generate(StreamSpec())


@pytest.fixture(scope="module")
def default_stream_lists(default_stream):
    """The default stream as plain lists, built before any tracing."""
    return default_stream.keys.tolist(), default_stream.values.tolist()


class TestCopies:
    """A filled sketch copies and pickles with its calibration stream mid-block."""

    def test_copies_draw_and_evolve_as_the_original(self):
        params = SketchParams(quantile=0.9, total_memory_bytes=60_000, gate_threshold=2, seed=5)
        rng = random.Random(8)
        pairs = [(rng.randrange(400), rng.random()) for _ in range(30_000)]
        sk = PerKeyQuantileSketch(params)
        for key, value in pairs[:20_000]:
            sk.insert(key, value)
        calibrator = sk._calibrator
        assert 0 < length_hint(calibrator.draws) < BLOCK, "no block in flight"
        copies = [copy.deepcopy(sk), pickle.loads(pickle.dumps(sk))]
        for twin in copies:
            assert twin._calibrator is not calibrator
            assert twin._admit.__self__ is twin.tower
            assert sketch_state(twin) == sketch_state(sk)
        for key, value in pairs[20_000:]:
            result = sk.insert(key, value)
            assert all(twin.insert(key, value) == result for twin in copies)
        stream = draws(calibrator, 2 * BLOCK)
        for twin in copies:
            assert sketch_state(twin) == sketch_state(sk)
            assert draws(twin._calibrator, 2 * BLOCK) == stream

    def test_copies_keep_each_cell_one_object(self):
        # A cell is its own candidate list, and the key index and the buckets
        # hold the same cell objects, in a copy as in the original.
        sk = PerKeyQuantileSketch(SketchParams(quantile=0.9, total_memory_bytes=60_000, gate_threshold=2, seed=5))
        rng = random.Random(8)
        for _ in range(20_000):
            sk.insert(rng.randrange(400), rng.random())
        for twin in (copy.deepcopy(sk), pickle.loads(pickle.dumps(sk))):
            cells = [cell for bucket in twin.buckets for cell in bucket.cells if cell is not None]
            assert len(cells) == len(twin.tracked_keys()) > 0
            assert any(cells), "every candidate is empty"
            for cell in cells:
                assert type(cell) is Cell and cell.candidate is cell and cell.estimator is cell
                assert twin._resident[cell.key] is cell
            for bucket, original in zip(twin.buckets, sk.buckets, strict=True):
                assert type(bucket) is Bucket and bucket.cells is bucket and bucket is not original
                assert bucket.vote_minus == original.vote_minus


class TestRealMemory:
    """The byte budget holds in the interpreter's memory, not only in the formula."""

    FACTOR = 1.65

    @pytest.mark.parametrize("w", [0.5, 0.9])
    def test_filled_default_sketch_stays_near_its_budget(self, default_stream_lists, w):
        keys, values = default_stream_lists
        gc.collect()
        tracemalloc.start()
        try:
            sk = PerKeyQuantileSketch(SketchParams(quantile=w))
            insert = sk.insert
            for key, value in zip(keys, values):
                insert(key, value)
            gc.collect()
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The key and value objects that cells keep came from the lists, so
        # they were allocated before tracing and are not counted.
        assert traced <= self.FACTOR * sk.plan.total_bytes, (
            f"{traced} traced bytes against {sk.plan.total_bytes} accounted"
        )


class TestLiveMemory:
    """The live footprint: the key and value objects that cells keep count too.

    Each CHUNK-item window's lists are built inside the traced window and
    dropped after it, as a live stream's would be, so only what the sketch
    keeps of them stays traced. FACTOR sits above the measured 2.22 (w = 0.5)
    and 2.08 (w = 0.9) times the accounted bytes.
    """

    FACTOR = 2.35

    @pytest.mark.parametrize("w", [0.5, 0.9])
    def test_filled_default_sketch_stays_near_its_budget_live(self, default_stream, w):
        gc.collect()
        tracemalloc.start()
        try:
            sk = PerKeyQuantileSketch(SketchParams(quantile=w))
            insert = sk.insert
            for keys, values in default_stream.chunks():
                for key, value in zip(keys, values):
                    insert(key, value)
            del keys, values
            gc.collect()
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traced <= self.FACTOR * sk.plan.total_bytes, (
            f"{traced} live bytes against {sk.plan.total_bytes} accounted"
        )
