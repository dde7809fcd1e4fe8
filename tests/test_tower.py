"""Tests for the layered saturating-counter frequency screen."""
from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsketch import TowerFilter
from pqsketch.hashing import child_seed, hash_key
from pqsketch.tower import TOP_LIMIT, WIDE_LAYOUT

# The smallest bytes per array whose layout takes the 128-bit digits: the
# counters 2b, b and about b/2 multiply to about b^3, past 2^54 once b > 2^18.
WIDE_BYTES = (1 << 18) + 1


def bucket(tower, key):
    """What admit returns for key once its gate is open, computed from hash_key.

    The tower's hash x (64 bits, or 128 on a wide layout) less its three
    counter digits leaves the quotient q = x // (n0 n1 n2). Of the tower's u
    buckets it picks q % u while n0 n1 n2 u <= 2^(bits - 10); past that the
    bucket comes from one more hash, under the tower's second child seed."""
    n0, n1, n2 = (layer[0] for layer in tower._layers)
    s0, s1 = tower._step[:2]
    u, rehash_seed = tower._step[-2:]
    x, bits = hash_key(key, s0), 64
    if s1 is not None:
        x, bits = x | hash_key(key, s1) << 64, 128
    digit = n0 * n1 * n2 * u <= 1 << (bits - 10)
    assert (rehash_seed is None) == digit
    if digit:
        return x // (n0 * n1 * n2) % u
    return hash_key(key, rehash_seed) % u


class TestConstruction:
    def test_counter_counts_from_byte_budget(self):
        t = TowerFilter(bytes_per_array=64)
        # 64 bytes = 512 bits: 128 four-bit, 64 eight-bit, 32 sixteen-bit.
        assert [layer[0] for layer in t._layers] == [128, 64, 32]

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ValueError, match="infeasible layout"):
            TowerFilter(bytes_per_array=1)  # no room for one 16-bit counter

    def test_bad_budget_rejected(self):
        for bad in (0, -5, 2.5):
            with pytest.raises(ValueError):
                TowerFilter(bytes_per_array=bad)

    @pytest.mark.parametrize("seed", [1.5, True, "x", None])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            TowerFilter(bytes_per_array=64, seed=seed)


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
        # At 2 bytes per array (counters 4/2/1) some other key shares all
        # three of key 1's counters, so it inherits every count of key 1.
        t = TowerFilter(bytes_per_array=2, seed=11)
        partner = next(k for k in range(2, 100) if t.indices(k) == t.indices(1))
        for _ in range(5):
            t.insert(1)
        assert t.query(partner) == 5
        for _ in range(3):
            t.insert(partner)
        assert t.query(1) == 8
        assert t.query(partner) == 8


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
        for (counters, limit, a), (_, _, b) in zip(fast._layers, slow._layers):
            value = st.one_of(st.integers(0, 40), st.integers(limit - 3, limit))
            for i, count in enumerate(data.draw(st.lists(value, min_size=counters, max_size=counters))):
                a[i] = b[i] = count
        for k in keys:
            opened = slow.query(k) >= threshold
            if not opened:
                slow.insert(k)
            assert fast.admit(k, threshold) == (bucket(slow, k) if opened else None)
        assert [layer[2] for layer in fast._layers] == [layer[2] for layer in slow._layers]

    def test_saturated_counters_drop_out(self):
        # A saturated counter counts as +inf: with the 4- and 8-bit counters
        # pinned, the 16-bit one alone decides, up to TOP_LIMIT itself.
        tower = TowerFilter(bytes_per_array=2, seed=0)
        (_, l0, a0), (_, l1, a1), (_, _, a2) = tower._layers
        a0[:] = bytes([l0] * len(a0))
        a1[:] = bytes([l1] * len(a1))
        a2[0] = 1_000
        assert tower.admit(7, 1_000) == 0
        assert tower.admit(7, 1_001) is None
        assert (list(a0), list(a1), list(a2)) == ([l0] * len(a0), [l1] * len(a1), [1_001])
        a2[0] = TOP_LIMIT
        assert tower.admit(7, TOP_LIMIT) == 0

    def test_a_zero_quotient_is_an_open_gate(self):
        # Bucket 0 is an open gate and must stay apart from None. A standalone
        # tower (one bucket) answers 0 for every open gate; with 500 buckets,
        # at 2 bytes per array (n0 n1 n2 = 8), a key whose hash is below 8 has
        # quotient 0 and so bucket 0.
        standalone = TowerFilter(bytes_per_array=2, seed=0)
        assert standalone.admit(5, 1) is None
        assert standalone.admit(5, 1) == 0
        tower = TowerFilter(bytes_per_array=2, seed=0, buckets=500)
        s0 = tower._step[0]
        key = (-s0) & (2**64 - 1)  # key + s0 wraps to 0, and hash_key(0, 0) is 0
        assert bucket(tower, key) == 0
        assert tower.admit(key, 0) == 0

    @settings(max_examples=200)
    @given(
        key=st.integers(0, 2**64 - 1),
        seed=st.integers(0, 2**64 - 1),
        bytes_per_array=st.sampled_from([997, WIDE_BYTES]),
        buckets=st.sampled_from([1, 1_000, 1 << 50]),
    )
    def test_inline_mix_is_hash_key(self, key, seed, bytes_per_array, buckets):
        # admit writes hash_key's mix and the digits of indices out inline;
        # over the whole key and seed range (key + seed wraps), and for the
        # 128-bit digits of a wide layout too, each layer must bump exactly
        # the counter that indices names. 2^50 buckets at 997 bytes per array
        # are past what the quotient covers, so the bucket is a second hash.
        tower = TowerFilter(bytes_per_array=bytes_per_array, seed=seed, buckets=buckets)
        assert tower.admit(key, 1) is None
        for idx, (_, _, arr) in zip(tower.indices(key), tower._layers):
            assert arr[idx] == 1
            assert sum(arr) == 1
        assert tower.admit(key, 1) == bucket(tower, key)


class TestKeys:
    """insert, query and indices follow as_key's rule; admit leaves it to its caller."""

    @pytest.mark.parametrize(
        "key, error",
        [(-1, ValueError), (2**64 + 5, ValueError), (5.0, TypeError), (True, TypeError)],
    )
    def test_bad_keys_raise_and_count_nothing(self, key, error):
        tower = TowerFilter(bytes_per_array=64, seed=3)
        for method in (tower.insert, tower.query, tower.indices):
            with pytest.raises(error):
                method(key)
        assert all(not any(arr) for _, _, arr in tower._layers)
        # 2^64 + 5 would have shared key 5's counters had it been masked.
        assert tower.query(5) == 0

    def test_numpy_key_is_its_int(self):
        tower = TowerFilter(bytes_per_array=64, seed=3)
        tower.insert(np.uint64(5))
        assert tower.query(5) == tower.query(np.int64(5)) == 1


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
        a = TowerFilter(bytes_per_array=1024, seed=0)
        b = TowerFilter(bytes_per_array=1024, seed=1)
        assert a.indices(77) != b.indices(77)

    def test_layers_use_distinct_digits(self):
        # At 16 bytes per array (counters 32/16/8) each count divides the one
        # before it, so a layer that reused the hash's residue would copy the
        # index of the layer above: i1 == i0 % 16 or i2 == i1 % 8 for every key.
        t = TowerFilter(bytes_per_array=16, seed=5)
        placements = [t.indices(k) for k in range(200)]
        assert any(i1 != i0 % 16 for i0, i1, _ in placements)
        assert any(i2 != i1 % 8 for _, i1, i2 in placements)


class TestIndices:
    @settings(max_examples=200)
    @given(
        key=st.integers(0, 2**64 - 1),
        seed=st.integers(0, 2**64 - 1),
        bytes_per_array=st.sampled_from([2, 997, 17_066, WIDE_BYTES]),
        buckets=st.integers(1, 10_000),
    )
    def test_indices_are_digits_of_one_hash(self, key, seed, bytes_per_array, buckets):
        tower = TowerFilter(bytes_per_array=bytes_per_array, seed=seed, buckets=buckets)
        n0, n1, n2 = (layer[0] for layer in tower._layers)
        s0, s1 = tower._step[:2]
        x = hash_key(key, s0)
        # Only a layout past WIDE_LAYOUT triples takes a second hash, as the high 64 bits.
        assert (s1 is not None) == (n0 * n1 * n2 > WIDE_LAYOUT)
        if s1 is not None:
            x |= hash_key(key, s1) << 64
        assert tower.indices(key) == (x % n0, x // n0 % n1, x // (n0 * n1) % n2)
        # The bucket: at threshold 0 admit opens, changes nothing and hands
        # back the fourth digit of the same hash, or a second hash where more
        # than 2^54 / (n0 n1 n2) buckets (about 3,600 at 17,066 bytes) make
        # the quotient too narrow.
        assert tower.admit(key, 0) == bucket(tower, key)
        assert all(not any(arr) for _, _, arr in tower._layers)

    @pytest.mark.parametrize("bytes_per_array", [2, 17_066, 1 << 18, WIDE_BYTES])
    def test_bucket_digit_while_its_bias_stays_under_2_to_the_minus_10(self, bytes_per_array):
        # The quotient takes 2^bits // (n0 n1 n2) values; it may pick one of
        # u buckets while n0 n1 n2 u <= 2^(bits - 10). One bucket more, and
        # the bucket is hash_key under the tower's second child seed.
        seed = 4
        probe = TowerFilter(bytes_per_array=bytes_per_array, seed=seed)
        n0, n1, n2 = (layer[0] for layer in probe._layers)
        s0, s1 = probe._step[:2]
        bits = 128 if n0 * n1 * n2 > WIDE_LAYOUT else 64
        largest = (1 << (bits - 10)) // (n0 * n1 * n2)
        digit = TowerFilter(bytes_per_array=bytes_per_array, seed=seed, buckets=largest)
        rehash = TowerFilter(bytes_per_array=bytes_per_array, seed=seed, buckets=largest + 1)
        for key in range(200):
            x = hash_key(key, s0)
            if s1 is not None:
                x |= hash_key(key, s1) << 64
            assert digit.admit(key, 0) == x // (n0 * n1 * n2) % largest
            assert rehash.admit(key, 0) == hash_key(key, child_seed(seed, 1)) % (largest + 1)

    def test_large_layout_reaches_every_counter(self):
        # At 4,000,000 bytes per array (counters 8M/4M/2M) n0 n1 n2 is about
        # 2^65.8, so the last digit of a 64-bit hash stays below 2^64 / (n0 n1),
        # about 576k, and 300k keys would land on about 234k distinct layer-2
        # counters. Uniform digits over 2M counters give
        # 2M * (1 - e^(-0.15)), about 278.6k, and reach the top of the array.
        tower = TowerFilter(bytes_per_array=4_000_000, seed=2026)
        n2 = tower._layers[2][0]
        layer2 = [tower.indices(k)[2] for k in range(300_000)]
        assert 275_800 < len(set(layer2)) < 281_400
        assert max(layer2) > 0.99 * n2

    def test_layers_collide_independently(self):
        # At the default 17,066 bytes per array (counters 34,132/17,066/8,533)
        # 50k keys give about C(50k, 2) / 34,132 = 36.6k pairs that share a
        # layer-0 counter. With independent layers about 36.6k / 17,066 = 2.1
        # of them also share a layer-1 counter and 36.6k / 8,533 = 4.3 a
        # layer-2 counter; of the 73k layer-1 pairs about 8.6 share layer 2.
        # An index that is the same hash's residue in every layer would make
        # every layer-0 pair share layer 1 and layer 2 as well.
        tower = TowerFilter(bytes_per_array=17_066, seed=2026)
        placements = [tower.indices(k) for k in range(50_000)]

        def pairs(project):
            return sum(n * (n - 1) // 2 for n in Counter(map(project, placements)).values())

        layer0 = pairs(lambda p: p[0])
        layer1 = pairs(lambda p: p[1])
        assert 34_000 < layer0 < 39_000
        assert 70_000 < layer1 < 76_500
        assert pairs(lambda p: (p[0], p[1])) <= 12
        assert pairs(lambda p: (p[0], p[2])) <= 16
        assert pairs(lambda p: (p[1], p[2])) <= 24
