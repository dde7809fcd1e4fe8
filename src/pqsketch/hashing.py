"""Seeded 64-bit mixing used for bucket placement and seed derivation.

Everything downstream of the one user-supplied seed (counter-array hashes,
bucket placement, the calibration streams, synthetic data) is derived
through these functions, so two runs with the same seed replay bit for bit.
"""
from __future__ import annotations

import operator

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xFF51AFD7ED558CCD
_MIX2 = 0xC4CEB9FE1A85EC53


def mix64(x: int) -> int:
    """Finalizing 64-bit avalanche mix. Every input bit affects every output bit."""
    return hash_key(x, 0)


def hash_key(key: int, seed: int) -> int:
    """Seeded hash of an integer key onto 64 bits: mix64 of key + seed.

    The mix is written out here rather than called, because this is the
    per-item hash and a call costs as much as a few of its steps. This is the
    reference copy; the one other copy is inlined in ``TowerFilter.admit``,
    and tests/test_tower.py::TestAdmit pins it to this one.
    """
    x = (key + seed) & _MASK
    x ^= x >> 33
    x = (x * _MIX1) & _MASK
    x ^= x >> 33
    x = (x * _MIX2) & _MASK
    x ^= x >> 33
    return x


def as_key(key) -> int:
    """The key as an int in [0, 2^64), the range every hash assumes.

    Raises TypeError for a non-integer key (a bool included), ValueError
    outside the range.
    """
    if isinstance(key, bool):
        raise TypeError(f"a bool is not a key, got {key!r}")
    key = operator.index(key)
    if not 0 <= key <= _MASK:
        raise ValueError(f"key {key} outside the unsigned 64-bit range")
    return key


def child_seed(seed: int, index: int) -> int:
    """Derive the index-th child seed from a parent seed.

    Splitmix-style: advance by a multiple of the golden-ratio increment, then
    mix. Children of one parent are pairwise uncorrelated for practical use.
    """
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK)

