"""Layered saturating counters for cheap frequency screening.

Three counter arrays share one byte budget. Narrow counters are plentiful but
saturate early; wide counters are scarce but keep counting. A key increments
one counter per array (seeded hash each); a query takes the minimum over the
arrays whose counter has not saturated, treating saturated counters as +inf.
Estimates are one sided: collisions only ever add, so the reported count is
always >= the key's true insertion count while the widest array still has
headroom.
"""
from __future__ import annotations

from .hashing import _MASK, _MIX1, _MIX2, child_seed, hash_key
from .quantiles import check_count

DEFAULT_WIDTHS = (4, 8, 16)


class TowerFilter:
    """Counter arrays of widths 4/8/16 bits over one shared byte budget.

    :param bytes_per_array: bytes given to each array; array i holds
        bytes_per_array * 8 // width_i counters.
    :param widths: strictly increasing counter bit widths, one per array.
    :param seed: seed from which the per-array hash seeds derive.
    """

    def __init__(
        self,
        bytes_per_array: int,
        widths: tuple[int, ...] = DEFAULT_WIDTHS,
        seed: int = 0,
    ) -> None:
        check_count("bytes_per_array", bytes_per_array)
        if len(widths) < 1 or any(w < 1 for w in widths):
            raise ValueError(f"counter widths must be positive, got {widths!r}")
        if any(a >= b for a, b in zip(widths, widths[1:])):
            raise ValueError(f"counter widths must strictly increase, got {widths!r}")
        self.bytes_per_array = bytes_per_array
        self.widths = tuple(widths)
        layers = []
        for i, width in enumerate(self.widths):
            counters = bytes_per_array * 8 // width
            if counters < 1:
                raise ValueError(
                    f"infeasible layout: {bytes_per_array} bytes fit no {width}-bit counter"
                )
            layers.append((child_seed(seed, i), counters, (1 << width) - 1, [0] * counters))
        self._layers = layers
        self._top_limit = layers[-1][2]

    @property
    def memory_bytes(self) -> int:
        """Accounted size: arrays times bytes per array, nothing hidden."""
        return len(self._layers) * self.bytes_per_array

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
        estimate = self._top_limit
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
        return best if best >= 0 else self._top_limit

    def __repr__(self) -> str:
        sizes = "/".join(str(counters) for _, counters, _, _ in self._layers)
        return f"TowerFilter(widths={self.widths}, counters={sizes})"
