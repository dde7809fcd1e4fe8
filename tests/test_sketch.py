"""Tests for capacity planning, the collision model, and the composed sketch."""
from __future__ import annotations

import gc
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqsketch import (
    CapacityPlan,
    InsertOutcome,
    PerKeyQuantileSketch,
    SketchParams,
    collision_probability,
    plan_capacity,
)
from pqsketch.sketch import bucket_bytes


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


class TestPlanCapacity:
    def test_default_plan_hand_checked(self):
        # 10% of 512000 = 51200 -> 17066 bytes per array; 460800 // 1726
        # buckets. Totals stay within the budget.
        plan = plan_capacity(SketchParams())
        assert plan.tower_bytes_per_array == 17066
        assert plan.tower_counters == (34132, 17066, 8533)
        assert plan.bucket_bytes == 1726
        assert plan.buckets == 266
        assert plan.tower_bytes == 51198
        assert plan.value_bytes == 459116
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
        assert min(plan.tower_counters) >= 1
        frac = Fraction(q)
        assert plan.tower_bytes <= int(frac * total)
        assert plan.value_bytes <= int((1 - frac) * total)


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
        original = sk.values._place

        def spy(key, value):
            calls.append((key, sk.tower.query(key)))
            return original(key, value)

        sk.values._place = spy
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_gated_key_rejects_non_finite_values(self, bad):
        sk = PerKeyQuantileSketch(self.params())
        with pytest.raises(ValueError, match="finite"):
            sk.insert(42, bad)
        # Refused before the gate: the key paid nothing.
        assert sk.tower.query(42) == 0


class TestKeys:
    def test_numpy_key_becomes_its_int(self):
        sk = PerKeyQuantileSketch(SketchParams(gate_threshold=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sk.insert(np.uint64(5), 1.0).outcome is InsertOutcome.PLACED
            assert sk.insert(np.uint64(5), 2.0).outcome is InsertOutcome.MATCHED
            assert sk.insert(5, 3.0).outcome is InsertOutcome.MATCHED
        keys = list(sk.tracked_keys())
        assert keys == [5] and type(keys[0]) is int

    def test_keys_outside_the_unsigned_64_bit_range_raise(self):
        sk = PerKeyQuantileSketch(SketchParams(gate_threshold=0))
        for bad in (-1, 1 << 64):
            with pytest.raises(ValueError, match="unsigned 64-bit"):
                sk.insert(bad, 1.0)
        with pytest.raises(TypeError):
            sk.insert(1.5, 1.0)
        assert list(sk.tracked_keys()) == []
        # -1 no longer aliases the top key: only the top key itself is tracked.
        sk.insert((1 << 64) - 1, 1.0)
        assert list(sk.tracked_keys()) == [(1 << 64) - 1]

    def test_gated_keys_are_checked_too(self):
        sk = PerKeyQuantileSketch(SketchParams())
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            sk.insert(-1, 1.0)
        assert sk.tower.query((1 << 64) - 1) == 0

    def test_bool_key_raises_even_when_its_int_holds_a_cell(self):
        sk = PerKeyQuantileSketch(SketchParams(gate_threshold=0))
        sk.insert(1, 1.0)
        before = cell_state(sk.values, 1)
        for bad in (True, False):
            with pytest.raises(TypeError, match="bool"):
                sk.insert(bad, 2.0)
        assert cell_state(sk.values, 1) == before
        assert sk.tracked_keys() == [1]

    def test_float_key_raises_even_when_its_int_holds_a_cell(self):
        sk = PerKeyQuantileSketch(SketchParams(gate_threshold=0))
        sk.insert(5, 1.0)
        before = cell_state(sk.values, 5)
        for bad in (5.0, 6.0):
            with pytest.raises(TypeError):
                sk.insert(bad, 2.0)
        assert cell_state(sk.values, 5) == before
        assert sk.tracked_keys() == [5]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_resident_key_refuses_non_finite_values(self, bad):
        sk = PerKeyQuantileSketch(SketchParams(quantile=0.9, gate_threshold=0))
        for value in (1.0, 2.0, 3.0):
            sk.insert(5, value)
        rng = sk.values._resident[5].estimator.calibrator._rng
        before = cell_state(sk.values, 5), rng.getstate()
        with pytest.raises(ValueError, match="finite"):
            sk.insert(5, bad)
        assert (cell_state(sk.values, 5), rng.getstate()) == before


def cell_state(values, key):
    """A resident key's vote and buffers, copied."""
    cell = values._resident[key]
    return cell.vote_plus, list(cell.estimator.candidate), list(cell.estimator.representative)


def gate_first_insert(sketch, key, value):
    """The routing without the resident shortcut: tower first, for every item."""
    tower = sketch.tower
    if tower.query(key) < sketch.gate_threshold:
        tower.insert(key)
        return None
    return sketch.values.insert(key, value)


def sketch_state(sketch):
    buckets = [
        (
            bucket.vote_minus,
            [
                None
                if cell is None
                else (cell.key, cell.vote_plus, cell.estimator.candidate, cell.estimator.representative)
                for cell in bucket.cells
            ],
        )
        for bucket in sketch.values.buckets
    ]
    counters = [arr for _, _, _, arr in sketch.tower._layers]
    return buckets, counters


class TestResidentFirst:
    """insert() skips the tower for keys that hold a cell; nothing may change for it."""

    KEYS = 40

    @settings(max_examples=60, deadline=None)
    @given(
        threshold=st.sampled_from([0, 1, 3]),
        w=st.sampled_from([0.5, 0.9]),
        cells=st.integers(1, 3),
        ratio=st.sampled_from([1, 4]),
        seed=st.integers(0, 2**32),
        items=st.lists(
            st.tuples(st.integers(0, KEYS - 1), st.floats(-1e6, 1e6, allow_nan=False)),
            max_size=300,
        ),
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
        fast = PerKeyQuantileSketch(params)
        reference = PerKeyQuantileSketch(params)
        opened = set()
        for key, value in items:
            assert fast.insert(key, value) == gate_first_insert(reference, key, value)
            now_open = {k for k in range(self.KEYS) if reference.tower.query(k) >= threshold}
            assert opened <= now_open, "a gate closed again"
            opened = now_open
            assert set(reference.tracked_keys()) <= opened
        assert sketch_state(fast) == sketch_state(reference)


class TestComposedSketch:
    def test_memory_accounting_matches_plan(self):
        params = SketchParams(total_memory_bytes=200_000)
        sk = PerKeyQuantileSketch(params)
        assert sk.memory_bytes == sk.plan.total_bytes
        assert sk.memory_bytes <= 200_000
        assert sk.tower.memory_bytes == sk.plan.tower_bytes

    def test_deterministic_replay(self):
        params = SketchParams(total_memory_bytes=60_000, gate_threshold=3, seed=11)
        rng = random.Random(4)
        pairs = [(rng.randrange(500), rng.random()) for _ in range(20_000)]
        a = PerKeyQuantileSketch(params)
        b = PerKeyQuantileSketch(params)
        for key, value in pairs:
            assert a.insert(key, value) == b.insert(key, value)
        keys = sorted(a.tracked_keys())
        assert keys == sorted(b.tracked_keys())
        for key in keys:
            assert a.query(key) == b.query(key)

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
def default_stream_lists():
    """The default 1M-item synthetic stream as plain lists, built before any tracing."""
    from pqsketch.datagen import StreamSpec, generate

    stream = generate(StreamSpec())
    return stream.keys.tolist(), stream.values.tolist()


class TestRealMemory:
    """The byte budget holds in the interpreter's memory, not only in the formula."""

    FACTOR = 4

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
