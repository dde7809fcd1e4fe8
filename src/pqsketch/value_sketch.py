"""Hashed buckets of per-key estimators with vote-based eviction.

Keys hash to one bucket of d cells; each occupied cell owns a point estimator
for one key. A matching insert feeds that estimator and strengthens the cell's
vote. When a key finds its bucket full, the bucket accrues a shared negative
vote, and the weakest resident (smallest positive vote, lowest index on ties)
is evicted only once the bucket's negative vote reaches a configurable
multiple of that resident's positive vote. Long-lived heavy keys therefore
entrench themselves, while churning light keys mostly bounce off, paying into
the negative vote that eventually recycles a stale cell.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .calibration import Calibrator
from .estimator import PointEstimator, check_count
from .hashing import cell_seed, hash_key
from .quantiles import Value, check_weight


class InsertOutcome(Enum):
    MATCHED = "matched"
    PLACED = "placed"
    EVICTED = "evicted"
    REJECTED = "rejected"


class InsertResult(NamedTuple):
    outcome: InsertOutcome
    evicted_key: int | None = None


_MATCHED = InsertResult(InsertOutcome.MATCHED)
_PLACED = InsertResult(InsertOutcome.PLACED)
_REJECTED = InsertResult(InsertOutcome.REJECTED)


def as_ratio(value) -> Fraction:
    """Normalize an eviction ratio to an exact positive Fraction.

    Floats go through their shortest decimal repr, so "0.1" means one tenth
    here even though the binary float does not; comparisons against integer
    vote counters then multiply through with no rounding anywhere.
    """
    if isinstance(value, Fraction):
        ratio = value
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"eviction ratio must be finite, got {value!r}")
        ratio = Fraction(str(value))
    else:
        try:
            ratio = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"eviction ratio must be a number, got {value!r}") from None
    if ratio <= 0:
        raise ValueError(f"eviction ratio must be positive, got {value!r}")
    return ratio


class Cell:
    __slots__ = ("key", "vote_plus", "estimator")

    def __init__(self, key: int, vote_plus: int, estimator: PointEstimator) -> None:
        self.key = key
        self.vote_plus = vote_plus
        self.estimator = estimator


class Bucket:
    __slots__ = ("vote_minus", "cells")

    def __init__(self, cells_per_bucket: int) -> None:
        self.vote_minus = 0
        self.cells: list[Cell | None] = [None] * cells_per_bucket


class ValueSketch:
    """u buckets of d cells, each cell a (key, vote, estimator) slot.

    :param buckets: u, number of hash buckets.
    :param cells_per_bucket: d, key slots per bucket.
    :param eviction_ratio: negative-to-positive vote multiple required to
        recycle the weakest cell of a full bucket (int, float, Fraction, or
        a string like "2.5").
    :param candidate_capacity: r for the per-cell estimators.
    :param representative_capacity: s for the per-cell estimators.
    :param quantile: w answered by every estimator.
    :param seed: drives bucket placement and per-cell calibration streams.
    :param hash_fn: testing seam; replaces the seeded bucket hash.
    """

    def __init__(
        self,
        buckets: int,
        cells_per_bucket: int,
        eviction_ratio=4,
        candidate_capacity: int = 16,
        representative_capacity: int = 10,
        quantile: float = 0.5,
        seed: int = 0,
        hash_fn: Callable[[int], int] | None = None,
    ) -> None:
        check_count("bucket count", buckets)
        check_count("cells per bucket", cells_per_bucket)
        check_count("candidate_capacity", candidate_capacity, even=True)
        check_count("representative_capacity", representative_capacity, even=True)
        check_weight(quantile)
        ratio = as_ratio(eviction_ratio)
        self.eviction_ratio = ratio
        self._ratio_num = ratio.numerator
        self._ratio_den = ratio.denominator
        self.quantile = quantile
        self.seed = seed
        self._r = candidate_capacity
        self._s = representative_capacity
        self._u = buckets
        self._d = cells_per_bucket
        self._hash_fn = hash_fn
        # Key -> its cell, over every occupied cell. A key holds at most one
        # cell, so one exact lookup says whether it is resident, with no hash
        # and no bucket scan; only a key without a cell needs its bucket.
        self._resident: dict[int, Cell] = {}
        self._claims = 0
        self.buckets: list[Bucket] = [Bucket(cells_per_bucket) for _ in range(buckets)]

    def bucket_of(self, key: int) -> int:
        h = self._hash_fn
        if h is not None:
            return h(key) % self._u
        return hash_key(key, self.seed) % self._u

    def _new_cell(self, key: int, bucket_index: int) -> Cell:
        sub = cell_seed(self.seed, bucket_index, self._claims)
        self._claims += 1
        est = PointEstimator(self._r, self._s, Calibrator(self.quantile, sub))
        cell = Cell(key, 1, est)
        self._resident[key] = cell
        return cell

    def insert(self, key: int, value: Value) -> InsertResult:
        """Feed one (key, value) pair; returns what happened to the key.

        Matched: the key already held a cell. Placed: an empty cell was
        claimed (first empty slot). Evicted: a full bucket's weakest resident
        lost the vote and the key took its cell (the loser's key rides along
        in the result). Rejected: the bucket held, and only its negative vote
        moved.
        """
        if not math.isfinite(value):
            raise ValueError(f"inserted values must be finite, got {value!r}")
        matched = self.feed(key, value)
        if matched is not None:
            return matched
        bucket_index = self.bucket_of(key)
        bucket = self.buckets[bucket_index]
        cells = bucket.cells
        if None in cells:
            cell = self._new_cell(key, bucket_index)
            cells[cells.index(None)] = cell
            cell.estimator.insert(value)
            return _PLACED
        bucket.vote_minus += 1
        victim_index = 0
        victim = cells[0]
        for j in range(1, len(cells)):
            if cells[j].vote_plus < victim.vote_plus:
                victim = cells[j]
                victim_index = j
        if bucket.vote_minus * self._ratio_den >= self._ratio_num * victim.vote_plus:
            evicted_key = victim.key
            del self._resident[evicted_key]
            cell = self._new_cell(key, bucket_index)
            cells[victim_index] = cell
            cell.estimator.insert(value)
            bucket.vote_minus = 0
            return InsertResult(InsertOutcome.EVICTED, evicted_key)
        return _REJECTED

    def feed(self, key: int, value: Value) -> InsertResult | None:
        """Insert into the key's own cell, if it holds one (a matched insert).

        :returns: None when the key holds no cell; then no cell or vote changed.
        """
        cell = self._resident.get(key)
        if cell is None:
            return None
        cell.estimator.insert(value)
        cell.vote_plus += 1
        return _MATCHED

    def find(self, key: int) -> Cell | None:
        return self._resident.get(key)

    def query(self, key: int) -> Value:
        """Quantile estimate for a tracked key.

        :raises KeyError: if the key holds no cell ("not tracked").
        """
        cell = self._resident.get(key)
        if cell is None:
            raise KeyError(f"key {key!r} not tracked")
        return cell.estimator.query()

    def keys(self) -> Iterator[int]:
        """Keys of all occupied cells, bucket-major order."""
        for bucket in self.buckets:
            for cell in bucket.cells:
                if cell is not None:
                    yield cell.key

    def tracked_count(self) -> int:
        return len(self._resident)

    def __repr__(self) -> str:
        return (
            f"ValueSketch(buckets={self._u}, cells_per_bucket={self._d}, "
            f"tracked={self.tracked_count()})"
        )
