"""Hashed buckets of per-key estimators with vote-based eviction, behind a gate.

A key without a cell passes a gate, then hashes to one bucket of d cells;
each occupied cell is the point estimator of one key. A matching insert
feeds that estimator and strengthens the cell's vote. When a key finds its
bucket full, the bucket accrues a shared negative vote, and the weakest
resident (smallest positive vote, lowest index on ties) is evicted only once
the bucket's negative vote reaches a configurable multiple of that
resident's positive vote. Long-lived heavy keys therefore entrench
themselves, while churning light keys mostly bounce off, paying into the
negative vote that eventually recycles a stale cell.
"""
from __future__ import annotations

import numbers
from array import array
from bisect import bisect_left, bisect_right, insort
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import isfinite
from typing import Callable, NamedTuple

from .calibration import Calibrator
from .estimator import answer
from .hashing import _MASK, as_key, check_seed, hash_key
from .quantiles import NEG_INF, POS_INF, Value, check_count, check_value


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

    Reals that are not rational go through their shortest float repr, so "0.1"
    means one tenth here even though the binary float does not; comparisons
    against integer vote counters then multiply through with no rounding.
    """
    if isinstance(value, bool):
        raise ValueError(f"eviction ratio must be a number, not a bool, got {value!r}")
    number = value
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational):
        number = float(value)
        if not isfinite(number):
            raise ValueError(f"eviction ratio must be finite, got {value!r}")
        number = repr(number)
    try:
        ratio = Fraction(number)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"eviction ratio must be a number, got {value!r}") from None
    if ratio <= 0:
        raise ValueError(f"eviction ratio must be positive, got {value!r}")
    return ratio


class Cell(list):
    """A key's cell: the key, its positive vote and a ``PointEstimator``'s two buffers.

    The cell is its candidate list, so a cell is one object besides its
    representative, an ``array("d")`` kept sorted, which answers in float64,
    by index. r, s, the calibrator and the rules on the buffers are
    ``ValueSketch``'s, held once. ``PointEstimator`` keeps append order,
    which criterion 1 of tests/test_acceptance.py reads. Cells compare by
    their candidates and are unhashable; nothing hashes them.
    """

    __slots__ = ("key", "vote_plus", "representative")

    def __init__(self, key: int, vote_plus: int) -> None:
        self.key = key
        self.vote_plus = vote_plus
        self.representative = array("d")

    def __deepcopy__(self, memo) -> Cell:
        # The fields hold numbers only. Copying them directly, not through
        # __reduce_ex__'s slot-state dict, leaves no freed dicts behind.
        cell = Cell.__new__(Cell)
        cell.extend(self)
        cell.key = self.key
        cell.vote_plus = self.vote_plus
        cell.representative = self.representative[:]
        return cell

    @property
    def candidate(self) -> Cell:
        """The candidate buffer: the cell itself."""
        return self

    @property
    def estimator(self) -> Cell:
        """The cell itself, for readers of ``cell.estimator`` (criterion 2 of tests/test_acceptance.py)."""
        return self


class Bucket(list):
    """d cell slots, the list's items, and their shared negative vote.

    Its vote floor and count of empty cells live in ValueSketch's ``_floors``
    and ``_room`` lists, not in slots, which would make a Bucket 80 bytes,
    not 64. When a Bucket held its cells in a list of its own, the same two
    slots (a 64-byte Bucket, not 48) lost 2.1-2.3% of insert throughput on
    zipf-p50 and 1.0-1.7% on churn, every pair of two lock-step perfbench
    runs (10 s, seeds 3-7, 2-core VM).

    Invariant: the floor is <= the smallest ``vote_plus`` among the cells.
    It starts at 1, the vote of a new cell, and votes only grow, so only a
    replaced cell can break it. ``ValueSketch._place`` is the one place that
    replaces a cell, and it resets the floor to 1 at every eviction.

    Invariant: the room counts the empty cells, in any order (criterion 2
    sets a cell after an empty one by hand). ``_new_cell`` keeps it, and no
    cell is emptied again, since an eviction reuses the victim's cell.
    """

    __slots__ = ("vote_minus",)

    @property
    def cells(self) -> Bucket:
        """The d cell slots, None where empty: the bucket itself."""
        return self


class ValueSketch:
    """u buckets of d cells, each cell a key, its vote and its estimator in one object.

    A key without a cell enters through the gate ``_admit(key,
    _gate_threshold)``: its bucket, or None while shut. A standalone table's
    gate is always open; ``PerKeyQuantileSketch`` puts its tower there.

    :param buckets: u, number of hash buckets.
    :param cells_per_bucket: d, key slots per bucket.
    :param eviction_ratio: negative-to-positive vote multiple required to
        recycle the weakest cell of a full bucket; see as_ratio.
    :param candidate_capacity: r for the per-cell estimators.
    :param representative_capacity: s for the per-cell estimators.
    :param quantile: w answered by every estimator.
    :param seed: drives bucket placement and the one calibration stream.
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
        self._r = candidate_capacity
        self._s = representative_capacity
        self._u = buckets
        self._d = cells_per_bucket
        # A partial, not a lambda, so the sketch still pickles.
        self._bucket_hash = partial(hash_key, seed=seed) if hash_fn is None else hash_fn
        self._admit = self._open_gate
        self._gate_threshold = 0
        # Key -> its cell, over every occupied cell; a key holds at most one.
        self._resident: dict[int, Cell] = {}
        # list.__init__ copies the one row into each bucket, in C.
        self.buckets: list[Bucket] = list(map(Bucket, repeat([None] * cells_per_bucket, buckets)))
        for bucket in self.buckets:
            bucket.vote_minus = 0
        # Per-bucket vote floor and count of empty cells; see Bucket.
        self._floors = [1] * buckets
        self._room = [cells_per_bucket] * buckets

    def _open_gate(self, key: int, threshold: int) -> int:
        """A standalone table's gate: open at any threshold, at the key's seeded bucket."""
        return self._bucket_hash(key) % self._u

    def _new_cell(self, key: int, bucket_index: int) -> Cell:
        # The caller puts the cell into an empty slot of bucket bucket_index.
        cell = Cell(key, 1)
        self._resident[key] = cell
        self._room[bucket_index] -= 1
        return cell

    def insert(self, key: int, value: Value) -> InsertResult | None:
        """Feed one (key, value) pair; returns what happened to the key, None if gated.

        Matched: the key held a cell. Placed: it claimed an empty cell.
        Evicted: it took the cell of its full bucket's weakest resident, whose
        key rides along in the result. Rejected: only the negative vote moved.

        Resident first: a key that holds a cell skips the gate, which opened
        before it was placed and never closes (the tower's counters only
        grow, and a saturated one only leaves the min). Any other key takes
        one gate step, and once admitted goes to ``_place`` in the bucket
        that step returns. Matched, placed and evicted items then take the
        one push, ``PointEstimator.insert`` on the cell; TestVoteFloor and
        TestResidentFirst pin it to that reference.

        Keys follow ``as_key`` and values ``check_value``, gated or not, and
        both are checked before anything changes.
        """
        if type(key) is not int:
            key = as_key(key)
        if type(value) is not float or not isfinite(value):
            check_value(value)
        cell = self._resident.get(key)
        # The matched branch comes second, so it falls through to the push with no jump.
        if cell is None:
            if not 0 <= key <= _MASK:
                as_key(key)  # raises the range error
            # Via a local: CPython 3.11 does not specialize self._admit(...), an instance attribute.
            admit = self._admit
            b = admit(key, self._gate_threshold)
            if b is None:
                return None
            result = self._place(key, b)
            if result is _REJECTED:
                return result
            cell = self._resident[key]
        else:
            cell.vote_plus += 1
            result = _MATCHED
        r = self._r
        cal = self._calibrator
        sentinel = cal.sentinel
        if sentinel is not None:
            z = next(cal.draws, 0) or cal._next_block()
            while z > 1:
                z -= 1
                cell.append(sentinel)
                if len(cell) >= r:
                    self._flush(cell)
        cell.append(value)
        if len(cell) >= r:
            self._flush(cell)
        return result

    def _flush(self, c: Cell) -> None:
        """``PointEstimator._flush`` on a sorted representative: the middle pair in, both ends out.

        The batch's two middle values are inserted by bisection, and a
        representative past s then loses its min and max. It stays sorted so
        that a query reads its median by index, and so that the sentinel
        repair reads the ends it writes over.
        """
        c.sort()
        half = self._r >> 1
        lo = c[half - 1]
        hi = c[half]
        rep = c.representative
        insort(rep, lo)
        insort(rep, hi)
        if len(rep) > self._s:
            del rep[0], rep[-1]
        # PointEstimator._flush's sentinel repair, read at the sorted ends.
        if hi == POS_INF:
            if rep[0] == POS_INF and c[0] != POS_INF:
                rep[0] = c[bisect_left(c, POS_INF) - 1]
        elif lo == NEG_INF:
            if rep[-1] == NEG_INF and c[-1] != NEG_INF:
                rep[-1] = c[bisect_right(c, NEG_INF)]
        c.clear()

    def _place(self, key: int, bucket_index: int) -> InsertResult:
        """Pick a cell of bucket bucket_index for a checked key without one, or reject the key.

        It only picks the cell and empties a reused one; the caller has found
        that the key holds no cell, checked it, picked the bucket, and pushes
        the value. An empty cell is claimed first. A full bucket takes one more
        negative vote. If that vote falls short of the ratio times the
        bucket's floor, it falls short of the weakest cell too, and the key is
        rejected with no scan. Otherwise the cells are scanned for the weakest
        (lowest index on ties): a rejection raises the floor to its vote, and
        an eviction reuses the victim's cell in place, whose draws continue
        the sketch's one calibration stream.
        """
        bucket = self.buckets[bucket_index]
        if self._room[bucket_index]:
            bucket[bucket.index(None)] = self._new_cell(key, bucket_index)
            return _PLACED
        vote_minus = bucket.vote_minus + 1
        bucket.vote_minus = vote_minus
        threshold = vote_minus * self._ratio_den
        num = self._ratio_num
        floors = self._floors
        if threshold < num * floors[bucket_index]:
            return _REJECTED
        victim = bucket[0]
        for cell in bucket:
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
        victim.clear()
        # array has no clear() before Python 3.13.
        del victim.representative[:]
        return tuple.__new__(InsertResult, (_EVICTED, evicted_key))

    def query(self, key: int) -> Value:
        """Quantile estimate for a tracked key, as ``answer`` gives it. Keys follow ``as_key``.

        :raises KeyError: if the key holds no cell ("not tracked").
        """
        if type(key) is not int:
            key = as_key(key)
        cell = self._resident.get(key)
        if cell is None:
            as_key(key)  # raises the range error
            raise KeyError(f"key {key!r} not tracked")
        rep = cell.representative
        if rep and isfinite(v := rep[(len(rep) - 1) >> 1]):
            return v
        return answer(rep, cell, self._calibrator.w)

    def tracked_keys(self) -> list[int]:
        """Keys of all occupied cells, in the order they claimed their cells."""
        return list(self._resident)

    def __repr__(self) -> str:
        return (
            f"ValueSketch(buckets={self._u}, cells_per_bucket={self._d}, "
            f"tracked={len(self._resident)})"
        )
