"""Seeded 64-bit mixing used for bucket placement and seed derivation.

Everything downstream of the one user-supplied seed (the counter tower's
hash, bucket placement, the calibration streams, synthetic data) is derived
through these functions, so two runs with the same seed replay bit for bit.
"""
from __future__ import annotations

import operator

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xFF51AFD7ED558CCD
_MIX2 = 0xC4CEB9FE1A85EC53


def hash_key(key: int, seed: int) -> int:
    """Seeded 64-bit hash of an integer key: every bit of key + seed affects every output bit.

    The reference copy of the mix: ``TowerFilter.admit`` runs the one inline
    copy, and TestIndices and TestAdmit in tests/test_tower.py pin it to this.
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


def check_seed(seed) -> None:
    """The one check of a seed: an int, not a bool. Any int works, since every hash masks."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")


def child_seed(seed: int, index: int) -> int:
    """Derive the index-th child seed from a parent seed.

    Splitmix-style: advance by a multiple of the golden-ratio increment, then
    mix. Children of one parent are pairwise uncorrelated for practical use.
    """
    return hash_key(seed + (index + 1) * _GOLDEN, 0)

