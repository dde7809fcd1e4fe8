"""Hashed buckets of per-key estimators with vote-based eviction.

Keys hash to one bucket of d cells; each occupied cell is the point estimator
of one key. A matching insert feeds that estimator and strengthens the cell's
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
from typing import Callable, NamedTuple

from .calibration import Calibrator
from .estimator import PointEstimator
from .hashing import as_key, check_seed, hash_key
from .quantiles import Value, check_count, check_value


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
# An eviction's result carries the victim's key, so it is built per call:
# tuple.__new__(InsertResult, (_EVICTED, key)) skips the NamedTuple's
# Python-level __new__ and the enum attribute lookup.
_EVICTED = InsertOutcome.EVICTED


def as_ratio(value) -> Fraction:
    """Normalize an eviction ratio to an exact positive Fraction.

    Floats go through their shortest decimal repr, so "0.1" means one tenth
    here even though the binary float does not; comparisons against integer
    vote counters then multiply through with no rounding anywhere.
    """
    if isinstance(value, bool):
        raise ValueError(f"eviction ratio must be a number, not a bool, got {value!r}")
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


class Cell(PointEstimator):
    """A key's cell: the key's estimator itself, plus the key and its positive vote."""

    __slots__ = ("key", "vote_plus")

    def __init__(self, key: int, vote_plus: int, r: int, s: int, calibrator: Calibrator) -> None:
        super().__init__(r, s, calibrator)
        self.key = key
        self.vote_plus = vote_plus

    @property
    def estimator(self) -> Cell:
        """The cell itself. Criterion 2 of tests/test_acceptance.py, which stays
        unchanged, reads ``cell.estimator.candidate``."""
        return self


class Bucket:
    """d cell slots and their shared negative vote.

    The bucket's vote floor lives in ``ValueSketch._floors``, not in a slot
    here. A third slot takes a Bucket from 48 to 56 bytes, the size of the
    cells' buffer lists; when cells were 56 bytes too (they are 88 now), that
    alone cost about 3% of insert and query throughput on zipf-p50.

    Invariant: the floor is <= the smallest ``vote_plus`` among the cells.
    It starts at 1, the vote of a new cell, and votes only grow, so the
    invariant can only break where a cell is replaced. ``ValueSketch._place``
    is the one place that does so, and it resets the floor to 1 at every
    eviction.

    Invariant: the occupied cells are a prefix of ``cells``. ``_place``
    claims the first empty cell, and no cell is ever emptied again, since an
    eviction reuses the victim's cell in place. So a bucket that ``_place``
    filled is full exactly when its last cell is occupied. The placement
    step does not test that, though: it reads the bucket's count of empty
    cells in ``ValueSketch._room``, which ``_new_cell`` keeps, and which is
    right for any order of claimed cells (the acceptance replay of
    criterion 2 sets a cell after an empty one by hand).
    """

    __slots__ = ("vote_minus", "cells")

    def __init__(self, cells_per_bucket: int) -> None:
        self.vote_minus = 0
        self.cells: list[Cell | None] = [None] * cells_per_bucket


class ValueSketch:
    """u buckets of d cells, each cell a key, its vote and its estimator in one object.

    :param buckets: u, number of hash buckets.
    :param cells_per_bucket: d, key slots per bucket.
    :param eviction_ratio: negative-to-positive vote multiple required to
        recycle the weakest cell of a full bucket (int, float, Fraction, or
        a string like "2.5").
    :param candidate_capacity: r for the per-cell estimators.
    :param representative_capacity: s for the per-cell estimators.
    :param quantile: w answered by every estimator.
    :param seed: an int (not a bool); drives bucket placement and the
        calibration stream all cells share.
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
        check_seed(seed)
        # Every cell draws from this one stream, so each still sees i.i.d. Z
        # values. Building it checks the quantile weight.
        self._calibrator = Calibrator(quantile, seed)
        ratio = as_ratio(eviction_ratio)
        self._ratio_num = ratio.numerator
        self._ratio_den = ratio.denominator
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
        self.buckets: list[Bucket] = [Bucket(cells_per_bucket) for _ in range(buckets)]
        # Bucket i's vote floor, a lower bound on its cells' votes, and its
        # count of empty cells (see Bucket).
        self._floors = [1] * buckets
        self._room = [cells_per_bucket] * buckets

    def bucket_of(self, key: int) -> int:
        h = self._hash_fn
        if h is not None:
            return h(key) % self._u
        return hash_key(key, self.seed) % self._u

    def _new_cell(self, key: int, bucket_index: int) -> Cell:
        # The caller puts the cell into an empty slot of bucket bucket_index.
        cell = Cell(key, 1, self._r, self._s, self._calibrator)
        self._resident[key] = cell
        self._room[bucket_index] -= 1
        return cell

    def insert(self, key: int, value: Value) -> InsertResult:
        """Feed one (key, value) pair; returns what happened to the key.

        Matched: the key already held a cell. Placed: an empty cell was
        claimed (first empty slot). Evicted: a full bucket's weakest resident
        lost the vote and the key took its cell (the loser's key rides along
        in the result). Rejected: the bucket held, and only its negative vote
        moved.

        Keys go through ``as_key``: a non-int one before the lookup, any before the hash.
        Values go through ``check_value``.

        The matched branch is the reference copy of the matched step.
        ``PerKeyQuantileSketch.insert`` runs an inline copy of it (and of
        ``PointEstimator.insert``), which ``tests/test_sketch.py::TestResidentFirst``
        checks against this one.
        """
        if type(key) is not int:
            key = as_key(key)
        cell = self._resident.get(key)
        if cell is not None:
            cell.insert(value)
            cell.vote_plus += 1
            return _MATCHED
        check_value(value)
        as_key(key)
        return self._place(key, value, self.bucket_of(key))

    def _place(self, key: int, value: Value, bucket_index: int) -> InsertResult:
        """Claim a cell of bucket bucket_index for a checked key without one, evict for it, or reject it.

        The caller has found that the key holds no cell, checked the value
        and that key lies in [0, 2^64), and picked the key's bucket:
        ``insert`` takes ``bucket_of(key)``, and ``PerKeyQuantileSketch.insert``
        the bucket that the tower's ``admit`` returns.

        A bucket with an empty cell (``_room``) gives the key its first one.

        A full bucket takes one more negative vote. If that vote still falls
        short of the ratio times the bucket's floor (``_floors``), it falls
        short of the weakest cell too, and the key is rejected with no scan.
        Otherwise the cells are scanned for the weakest (lowest index on
        ties): a rejection raises the floor to its vote, and an eviction
        resets the floor to 1, since the reclaimed cell restarts at vote 1.
        This is the one place that replaces a cell, so it is the one place
        that must keep each floor <= the smallest vote in its bucket.

        An eviction reuses the victim's cell in place: the key changes, the
        vote restarts at 1 and both buffers are emptied. The cell keeps the
        sketch's calibrator, so its draws continue the one stream.
        """
        bucket = self.buckets[bucket_index]
        cells = bucket.cells
        if self._room[bucket_index]:
            cell = self._new_cell(key, bucket_index)
            cells[cells.index(None)] = cell
            cell.insert(value)
            return _PLACED
        vote_minus = bucket.vote_minus + 1
        bucket.vote_minus = vote_minus
        threshold = vote_minus * self._ratio_den
        num = self._ratio_num
        floors = self._floors
        if threshold < num * floors[bucket_index]:
            return _REJECTED
        victim = cells[0]
        for cell in cells:
            if cell.vote_plus < victim.vote_plus:
                victim = cell
        if threshold < num * victim.vote_plus:
            floors[bucket_index] = victim.vote_plus
            return _REJECTED
        evicted_key = victim.key
        resident = self._resident
        del resident[evicted_key]
        resident[key] = victim
        victim.key = key
        victim.vote_plus = 1
        bucket.vote_minus = 0
        floors[bucket_index] = 1
        victim.candidate.clear()
        victim.representative.clear()
        victim.insert(value)
        return tuple.__new__(InsertResult, (_EVICTED, evicted_key))

    def query(self, key: int) -> Value:
        """Quantile estimate for a tracked key.

        Keys follow insert's rule: a non-int one goes through ``as_key``
        before the lookup, and a key without a cell is range-checked.

        :raises KeyError: if the key holds no cell ("not tracked").
        :raises TypeError: for a key that is not an integer, a bool included.
        :raises ValueError: for a key outside [0, 2^64).
        """
        if type(key) is not int:
            key = as_key(key)
        cell = self._resident.get(key)
        if cell is None:
            as_key(key)  # raises the range error
            raise KeyError(f"key {key!r} not tracked")
        return cell.query()

    def keys(self) -> list[int]:
        """Keys of all occupied cells, in the order they claimed their cells."""
        return list(self._resident)

    def __repr__(self) -> str:
        return (
            f"ValueSketch(buckets={self._u}, cells_per_bucket={self._d}, "
            f"tracked={len(self._resident)})"
        )
