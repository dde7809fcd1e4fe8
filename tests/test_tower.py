"""Tests for the layered saturating-counter frequency screen."""
from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsketch import TowerFilter
from pqsketch.hashing import hash_key
from pqsketch.tower import TOP_LIMIT


class TestConstruction:
    def test_counter_counts_from_byte_budget(self):
        t = TowerFilter(bytes_per_array=64)
        # 64 bytes = 512 bits: 128 four-bit, 64 eight-bit, 32 sixteen-bit.
        assert [layer[1] for layer in t._layers] == [128, 64, 32]

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ValueError, match="infeasible layout"):
            TowerFilter(bytes_per_array=1)  # no room for one 16-bit counter

    def test_bad_budget_rejected(self):
        for bad in (0, -5, 2.5):
            with pytest.raises(ValueError):
                TowerFilter(bytes_per_array=bad)


class TestCounting:
    def test_lone_key_counts_exactly(self):
        t = TowerFilter(bytes_per_array=256, seed=3)
        assert t.query(42) == 0
        for i in range(1, 12):
            t.insert(42)
            assert t.query(42) == i

    def test_narrow_layers_saturate_and_drop_out(self):
        # At 2 bytes per array (counters 4/2/1, limits 15/255/65535) a
        # thousand inserts pin the two narrow layers, which must be ignored.
        t = TowerFilter(bytes_per_array=2, seed=0)
        for _ in range(1_000):
            t.insert(5)
        assert t.query(5) == 1_000

    def test_full_saturation_reports_top_limit(self):
        t = TowerFilter(bytes_per_array=2, seed=0)
        for _ in range(TOP_LIMIT + 100):
            t.insert(5)
        assert t.query(5) == TOP_LIMIT == 65535

    def test_default_widths_saturate_in_order(self):
        t = TowerFilter(bytes_per_array=64, seed=9)
        for _ in range(20):
            t.insert(8)
        assert t.query(8) == 20  # 4-bit layer pinned at 15, wider ones exact
        for _ in range(280):
            t.insert(8)
        assert t.query(8) == 300  # 8-bit layer pinned at 255

    def test_engineered_full_collision(self):
        # At 2 bytes per array (counters 4/2/1) keys 1 and 14 share all
        # three counters, so key 14 inherits every count of key 1.
        t = TowerFilter(bytes_per_array=2, seed=11)
        for _ in range(5):
            t.insert(1)
        assert t.query(14) == 5
        for _ in range(3):
            t.insert(14)
        assert t.query(1) == 8
        assert t.query(14) == 8


class TestOneSidedness:
    def check_workload(self, keys, bytes_per_array, seed):
        t = TowerFilter(bytes_per_array=bytes_per_array, seed=seed)
        truth: Counter[int] = Counter()
        for k in keys:
            t.insert(k)
            truth[k] += 1
        for k, n in truth.items():
            assert t.query(k) >= n

    def test_uniform_workload_never_undercounts(self):
        rng = random.Random(1)
        self.check_workload([rng.randrange(200) for _ in range(10_000)], 128, seed=2)

    def test_skewed_workload_never_undercounts(self):
        rng = random.Random(5)
        population = list(range(500))
        weights = [1.0 / (i + 1) for i in population]
        keys = rng.choices(population, weights=weights, k=10_000)
        self.check_workload(keys, 64, seed=7)

    def test_tiny_filter_never_undercounts(self):
        rng = random.Random(9)
        self.check_workload([rng.randrange(50) for _ in range(2_000)], 8, seed=1)

    @settings(max_examples=40)
    @given(
        keys=st.lists(st.integers(0, 30), min_size=1, max_size=300),
        seed=st.integers(0, 2**32),
    )
    def test_one_sided_property(self, keys, seed):
        t = TowerFilter(bytes_per_array=4, seed=seed)
        truth: Counter[int] = Counter()
        for k in keys:
            t.insert(k)
            truth[k] += 1
        for k, n in truth.items():
            assert t.query(k) >= n

    @given(keys=st.lists(st.integers(0, 20), min_size=1, max_size=200))
    def test_estimates_never_decrease(self, keys):
        t = TowerFilter(bytes_per_array=2, seed=4)
        watched = 3
        last = t.query(watched)
        for k in keys:
            t.insert(k)
            now = t.query(watched)
            assert now >= last
            last = now


class TestAdmit:
    @settings(max_examples=100)
    @given(
        data=st.data(),
        keys=st.lists(st.integers(0, 30), max_size=300),
        threshold=st.one_of(st.integers(0, 40), st.just(TOP_LIMIT)),
        seed=st.integers(0, 2**32),
    )
    def test_matches_query_then_insert(self, data, keys, threshold, seed):
        # At 2 bytes per array (counters 4/2/1) every counter starts low, near
        # its limit or at it, so each layer, the 16-bit one too, can saturate
        # mid-stream, and a fully saturated key reaches the top threshold.
        fast = TowerFilter(bytes_per_array=2, seed=seed)
        slow = TowerFilter(bytes_per_array=2, seed=seed)
        for (_, counters, limit, a), (_, _, _, b) in zip(fast._layers, slow._layers):
            value = st.one_of(st.integers(0, 40), st.integers(limit - 3, limit))
            a[:] = b[:] = data.draw(st.lists(value, min_size=counters, max_size=counters))
        for k in keys:
            opened = slow.query(k) >= threshold
            if not opened:
                slow.insert(k)
            assert fast.admit(k, threshold) == opened
        assert [layer[3] for layer in fast._layers] == [layer[3] for layer in slow._layers]

    @settings(max_examples=200)
    @given(key=st.integers(0, 2**64 - 1), seed=st.integers(0, 2**64 - 1))
    def test_inline_mix_is_hash_key(self, key, seed):
        # admit writes hash_key's mix out inline; over the whole key and seed
        # range (key + seed wraps) each layer must bump hash_key's counter.
        tower = TowerFilter(bytes_per_array=997, seed=seed)
        assert not tower.admit(key, 1)
        for layer_seed, counters, _, arr in tower._layers:
            assert arr[hash_key(key, layer_seed) % counters] == 1
            assert sum(arr) == 1


class TestDeterminism:
    def test_same_seed_same_estimates(self):
        rng = random.Random(12)
        keys = [rng.randrange(100) for _ in range(5_000)]
        a = TowerFilter(bytes_per_array=32, seed=6)
        b = TowerFilter(bytes_per_array=32, seed=6)
        for k in keys:
            a.insert(k)
            b.insert(k)
        assert all(a.query(k) == b.query(k) for k in range(100))

    def test_different_seeds_place_keys_differently(self):
        from pqsketch.hashing import hash_key

        a = TowerFilter(bytes_per_array=1024, seed=0)
        b = TowerFilter(bytes_per_array=1024, seed=1)

        def placement(t, key):
            return tuple(hash_key(key, seed) % n for seed, n, _, _ in t._layers)

        assert placement(a, 77) != placement(b, 77)

    def test_layers_use_distinct_seeds(self):
        t = TowerFilter(bytes_per_array=16, seed=5)
        seeds = [layer[0] for layer in t._layers]
        assert len(set(seeds)) == len(seeds)
