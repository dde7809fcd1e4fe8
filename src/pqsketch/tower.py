"""Layered saturating counters for cheap frequency screening.

Three counter arrays share one byte budget. Narrow counters are plentiful but
saturate early; wide counters are scarce but keep counting. A key increments
one counter per array; a query takes the minimum over the arrays whose
counter has not saturated, treating saturated counters as +inf. Estimates are
one sided: collisions only ever add, so the reported count is always >= the
key's true insertion count while the widest array still has headroom, however
the indices are drawn.

This module is the one home of the tower's layout: the widths (WIDTHS), the
largest count it can report (TOP_LIMIT), the counters a byte budget buys
(layer_counters), the index rule (TowerFilter.indices) and the placement
rule (TowerFilter.admit).
"""
from __future__ import annotations

from array import array

from .hashing import _MASK, _MIX1, _MIX2, as_key, check_seed, child_seed, hash_key
from .quantiles import check_count

WIDTHS = (4, 8, 16)
TOP_LIMIT = (1 << WIDTHS[-1]) - 1
# Every digit taken from the hash keeps its relative bias under 2^-BIAS_BITS.
BIAS_BITS = 10
# Past this many counter triples the digits come from 128 bits (see TowerFilter.indices).
WIDE_LAYOUT = 1 << (64 - BIAS_BITS)


def layer_counters(bytes_per_array: int) -> tuple[int, ...]:
    """Counters per array, one entry per width in WIDTHS.

    :raises ValueError: "infeasible layout" when the widest array fits no
        counter; the narrower ones then fit at least one each.
    """
    counters = tuple(bytes_per_array * 8 // width for width in WIDTHS)
    if counters[-1] < 1:
        raise ValueError(
            f"infeasible layout: {bytes_per_array} bytes per array fit no {WIDTHS[-1]}-bit counter"
        )
    return counters


class TowerFilter:
    """Counter arrays of widths 4/8/16 bits over one shared byte budget.

    :param bytes_per_array: bytes given to each array; see layer_counters.
    :param seed: an int (``check_seed``); the tower's hash seeds derive from it.
    :param buckets: u, the buckets admit picks from; a standalone tower keeps 1.
    """

    def __init__(self, bytes_per_array: int, seed: int = 0, buckets: int = 1) -> None:
        check_count("bytes_per_array", bytes_per_array)
        check_seed(seed)
        check_count("bucket count", buckets)
        n0, n1, n2 = layer_counters(bytes_per_array)
        # One byte holds a 4- or 8-bit counter, two bytes a 16-bit one. A
        # bytearray indexes faster than array('B'), and admit indexes per item.
        self._layers = [
            (counters, (1 << width) - 1, bytearray(counters) if width <= 8 else array("H", [0]) * counters)
            for width, counters in zip(WIDTHS, (n0, n1, n2))
        ]
        # Everything one step reads, flat, so each method takes it in one
        # unpack. wide_seed is None unless x has 128 bits (see indices), and
        # rehash_seed None while the quotient picks the bucket (see admit).
        (_, l0, a0), (_, l1, a1), (_, _, a2) = self._layers
        wide = n0 * n1 * n2 > WIDE_LAYOUT
        wide_seed = child_seed(seed, 1) if wide else None
        quotients = (1 << (128 if wide else 64)) // (n0 * n1 * n2)
        rehash_seed = None if quotients >> BIAS_BITS >= buckets else child_seed(seed, 1)
        self._step = (child_seed(seed, 0), wide_seed, n0, l0, a0, n1, l1, a1, n2, a2, buckets, rehash_seed)

    def indices(self, key: int) -> tuple[int, int, int]:
        """The counter key bumps in each array: the mixed-radix digits of one hash.

        With n0, n1, n2 counters per array and x = hash_key(key, s0), the
        indices are x % n0, x // n0 % n1 and x // (n0 * n1) % n2. For a uniform
        x the three digits are independent and uniform up to a relative bias of
        n0 * n1 * n2 / 2^64, about 2^-22 at the default 17,066 bytes per array.
        Past WIDE_LAYOUT triples (256 KB per array) that passes 2^-BIAS_BITS,
        and past 2^64 (2.6 MB) the last digit could not reach every counter,
        so there x = hash_key(key, s0) | hash_key(key, s1) << 64, with bias
        n0 * n1 * n2 / 2^128. Taking x % n_k per array instead would tie the
        arrays together, because the default counts divide one another.

        Keys follow ``as_key``; insert and query take their indices from here.
        """
        key = as_key(key)
        s0, s1, n0, _, _, n1, _, _, n2 = self._step[:9]
        x = hash_key(key, s0)
        if s1 is not None:
            x |= hash_key(key, s1) << 64
        return x % n0, x // n0 % n1, x // (n0 * n1) % n2

    def insert(self, key: int) -> None:
        """Count one occurrence of key; saturated counters stay put."""
        for idx, (_, limit, arr) in zip(self.indices(key), self._layers):
            if arr[idx] < limit:
                arr[idx] += 1

    def admit(self, key: int, threshold: int) -> int | None:
        """One gate step: key's bucket if its estimate has reached threshold, else None.

        Same as query(key) >= threshold followed, when that fails, by
        insert(key), but hashing key once. Bucket 0 is an open gate, so
        callers test the answer with ``is None``.

        The placement rule lives here alone. The quotient q = x // (n0 * n1 * n2),
        the hash above the counter digits, takes 2^bits // (n0 * n1 * n2)
        values, so q % u has a relative bias of u over that count. By the
        default sketch's total bytes:

        - up to 983,069 (the default 500 KB among them), n0 * n1 * n2 * u <= 2^54
          keeps that bias under 2^-10, like the digits', and the bucket is
          q % u: one mix per item;
        - from 983,070 to 7,864,349, q is too narrow, and an open gate mixes
          once more, as hash_key(key, child_seed(seed, 1)) % u;
        - from 7,864,350, x has 128 bits (see indices) and the bucket is
          q % u again: two mixes per item, and no third.

        The mix and the digits are inline copies of hash_key and indices. The
        key is not checked here: the caller has applied ``as_key``'s rule.
        """
        s0, s1, n0, l0, a0, n1, l1, a1, n2, a2, buckets, rehash_seed = self._step
        x = (key + s0) & _MASK
        x ^= x >> 33
        x = (x * _MIX1) & _MASK
        x ^= x >> 33
        x = (x * _MIX2) & _MASK
        x ^= x >> 33
        if s1 is not None:
            x |= hash_key(key, s1) << 64
        i0 = x % n0
        x //= n0
        i1 = x % n1
        x //= n1
        i2 = x % n2
        c0 = a0[i0]
        c1 = a1[i1]
        c2 = a2[i2]
        # A saturated counter counts as +inf. The widest limit is TOP_LIMIT,
        # so c2 alone starts the estimate.
        estimate = c2
        if c1 < l1 and c1 < estimate:
            estimate = c1
        if c0 < l0 and c0 < estimate:
            estimate = c0
        if estimate >= threshold:
            if rehash_seed is None:
                return x // n2 % buckets
            return hash_key(key, rehash_seed) % buckets
        if c0 < l0:
            a0[i0] = c0 + 1
        if c1 < l1:
            a1[i1] = c1 + 1
        if c2 < TOP_LIMIT:
            a2[i2] = c2 + 1
        return None

    def query(self, key: int) -> int:
        """Estimated count: min over unsaturated counters, else the top limit."""
        best = TOP_LIMIT
        for idx, (_, limit, arr) in zip(self.indices(key), self._layers):
            c = arr[idx]
            if c < limit and c < best:
                best = c
        return best

    def __repr__(self) -> str:
        sizes = "/".join(str(counters) for counters, _, _ in self._layers)
        return f"TowerFilter(counters={sizes})"
