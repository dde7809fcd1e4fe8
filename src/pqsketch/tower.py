"""Layered saturating counters for cheap frequency screening.

Three counter arrays share one byte budget. Narrow counters are plentiful but
saturate early; wide counters are scarce but keep counting. A key increments
one counter per array (seeded hash each); a query takes the minimum over the
arrays whose counter has not saturated, treating saturated counters as +inf.
Estimates are one sided: collisions only ever add, so the reported count is
always >= the key's true insertion count while the widest array still has
headroom.

This module is the one home of the tower's layout: the widths (WIDTHS), the
largest count it can report (TOP_LIMIT) and the counters a byte budget buys
(layer_counters). The capacity plan and the gate check in sketch.py read them
from here.
"""
from __future__ import annotations

from .hashing import _MASK, _MIX1, _MIX2, child_seed, hash_key
from .quantiles import check_count

WIDTHS = (4, 8, 16)
TOP_LIMIT = (1 << WIDTHS[-1]) - 1


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
    :param seed: seed from which the per-array hash seeds derive.
    """

    def __init__(self, bytes_per_array: int, seed: int = 0) -> None:
        check_count("bytes_per_array", bytes_per_array)
        self._layers = [
            (child_seed(seed, i), counters, (1 << width) - 1, [0] * counters)
            for i, (width, counters) in enumerate(zip(WIDTHS, layer_counters(bytes_per_array)))
        ]

    def insert(self, key: int) -> None:
        """Count one occurrence of key; saturated counters stay put."""
        for seed, counters, limit, arr in self._layers:
            idx = hash_key(key, seed) % counters
            if arr[idx] < limit:
                arr[idx] += 1

    def admit(self, key: int, threshold: int) -> bool:
        """One gate step: True if key's estimate has reached threshold.

        Otherwise key pays its fee (its unsaturated counters are bumped) and
        the answer is False. Same as query(key) >= threshold followed, when
        that fails, by insert(key), but hashing each array's index once.

        This is the per-item gate step, so hash_key's mix is written out
        here instead of called; TestAdmit pins it to hash_key.
        """
        unsaturated = []
        estimate = TOP_LIMIT
        for seed, counters, limit, arr in self._layers:
            x = (key + seed) & _MASK
            x ^= x >> 33
            x = (x * _MIX1) & _MASK
            x ^= x >> 33
            x = (x * _MIX2) & _MASK
            idx = (x ^ (x >> 33)) % counters
            c = arr[idx]
            if c < limit:
                unsaturated.append((arr, idx))
                if c < estimate:
                    estimate = c
        if estimate >= threshold:
            return True
        for arr, idx in unsaturated:
            arr[idx] += 1
        return False

    def query(self, key: int) -> int:
        """Estimated count: min over unsaturated counters, else the top limit."""
        best = -1
        for seed, counters, limit, arr in self._layers:
            c = arr[hash_key(key, seed) % counters]
            if c < limit and (best < 0 or c < best):
                best = c
        return best if best >= 0 else TOP_LIMIT

    def __repr__(self) -> str:
        sizes = "/".join(str(counters) for _, counters, _, _ in self._layers)
        return f"TowerFilter(counters={sizes})"
