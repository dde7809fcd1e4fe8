"""Tests for the 64-bit mixer and seed derivation."""
from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqsketch.hashing import as_key, child_seed, hash_key

U64 = st.integers(0, (1 << 64) - 1)


class TestMix64:
    """The unseeded mix, hash_key(x, 0), that child seeds go through."""

    def test_frozen_anchors(self):
        # Pinned once; any change here silently reshuffles every sketch.
        assert hash_key(0, 0) == 0
        assert hash_key(1, 0) == 12994781566227106604
        assert hash_key((1 << 64) - 1, 0) == 7256831767414464289

    @given(U64)
    def test_stays_in_64_bits(self, x):
        assert 0 <= hash_key(x, 0) < (1 << 64)

    @given(U64)
    def test_deterministic(self, x):
        assert hash_key(x, 0) == hash_key(x, 0)

    def test_injective_on_sample(self):
        rng = random.Random(1)
        xs = {rng.getrandbits(64) for _ in range(20_000)}
        assert len({hash_key(x, 0) for x in xs}) == len(xs)

    def test_avalanche(self):
        # A single flipped input bit should flip about half the output bits.
        rng = random.Random(0)
        n = 2_000
        total = 0
        for _ in range(n):
            x = rng.getrandbits(64)
            bit = 1 << rng.randrange(64)
            total += bin(hash_key(x, 0) ^ hash_key(x ^ bit, 0)).count("1")
        assert 30.0 <= total / n <= 34.0


class TestSeedDerivation:
    def test_frozen_anchors(self):
        assert hash_key(42, 7) == 14956449454263868849
        assert child_seed(1, 0) == 16572613472718614229
        assert child_seed(1, 1) == 16739924786248912506

    @given(U64, st.integers(0, 100), st.integers(0, 100))
    def test_siblings_differ(self, seed, i, j):
        # The mixer is a bijection and the pre-mix offsets differ, so
        # distinct child indices can never collide under one parent.
        if i != j:
            assert child_seed(seed, i) != child_seed(seed, j)

    @given(U64, U64)
    def test_hash_key_depends_on_seed(self, key, seed):
        assert hash_key(key, seed) == hash_key(key, seed)
        assert 0 <= hash_key(key, seed) < (1 << 64)


class TestAsKey:
    def test_bool_is_not_a_key(self):
        for bad in (True, False, np.True_):
            with pytest.raises(TypeError):
                as_key(bad)
