"""Exact multiset quantiles and the rank-space error metric.

Quantile convention used throughout the package: for a multiset of n values
sorted ascending as a_1 <= ... <= a_n, the w-quantile (0 <= w <= 1) is the
element of 1-indexed rank floor(w * (n - 1)) + 1, and the rank of a_k is
(k - 1) / (n - 1). Estimation error is always measured in rank space: an
estimate x against a reference multiset scores |rank(x) - w|, which is scale
free and invariant under strictly increasing transforms of the values.

These functions are the ground truth the sketches are judged against, so they
favor exactness over speed: the quantile index is computed in rational
arithmetic (floor(w * (n - 1)) in binary floating point can land on the wrong
side of an integer boundary), and everything is brute force over sorted lists.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

NEG_INF = float("-inf")
POS_INF = float("inf")

Value = int | float


def check_weight(w: float) -> None:
    """The one check of a quantile weight: a number in [0, 1], not NaN."""
    if isinstance(w, float) and math.isnan(w):
        raise ValueError("quantile weight must not be NaN")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"quantile weight must lie in [0, 1], got {w!r}")


def quantile_index(n: int, w: float) -> int:
    """0-based index of the w-quantile in a sorted multiset of size n.

    Exact: the product w * (n - 1) is floored in rational arithmetic for the
    float w the caller actually passed, never in binary floating point.
    """
    check_weight(w)
    if n < 1:
        raise ValueError("empty multiset has no quantile")
    frac = Fraction(w)
    return int((frac.numerator * (n - 1)) // frac.denominator)


def exact_quantile(values: Sequence[Value], w: float) -> Value:
    """The w-quantile of a multiset, by full sort.

    :param values: non-empty sequence of finite values.
    :param w: quantile weight in [0, 1].
    :raises ValueError: on an empty multiset or out-of-range w.
    """
    n = len(values)
    if n == 0:
        raise ValueError("empty multiset has no quantile")
    return sorted(values)[quantile_index(n, w)]


def rank_of(values: Sequence[Value], x: Value) -> float:
    """Rank (k - 1) / (n - 1) of x in the multiset, lowest index on ties.

    A singleton multiset ranks its only element 0.5 (the rank grid degenerates
    and the midpoint is the only unbiased choice).

    :raises ValueError: if x is not an element of the multiset.
    """
    n = len(values)
    if n == 0:
        raise ValueError("empty multiset has no ranks")
    ordered = sorted(values)
    i = bisect_left(ordered, x)
    if i == n or ordered[i] != x:
        raise ValueError(f"value {x!r} absent from multiset")
    if n == 1:
        return 0.5
    return i / (n - 1)


def rank_toward(ordered: Sequence[Value], x: Value, w: float) -> float:
    """Rank of x resolved toward the target w when x is duplicated.

    Equal values span a closed interval of ranks; this returns the point of
    that interval nearest w, so an estimate equal to the true w-quantile value
    scores zero error even when the value repeats. For a unique x it equals
    ``rank_of``. ``ordered`` must already be sorted ascending.
    """
    check_weight(w)
    n = len(ordered)
    if n == 0:
        raise ValueError("empty multiset has no ranks")
    lo = bisect_left(ordered, x)
    hi = bisect_right(ordered, x) - 1
    if hi < lo:
        raise ValueError(f"value {x!r} absent from multiset")
    if n == 1:
        return 0.5
    lo_rank = lo / (n - 1)
    hi_rank = hi / (n - 1)
    return min(max(w, lo_rank), hi_rank)


def nearest_value(ordered: Sequence[Value], x: Value) -> Value:
    """Element of the sorted multiset nearest to x; ties pick the smaller.

    Used to snap a sketch estimate onto the reference multiset before ranking
    it. A sketch that only ever returns inserted values makes this a no-op.
    """
    n = len(ordered)
    if n == 0:
        raise ValueError("empty multiset has no nearest value")
    i = bisect_left(ordered, x)
    if i < n and ordered[i] == x:
        return x
    if i == 0:
        return ordered[0]
    if i == n:
        return ordered[n - 1]
    left, right = ordered[i - 1], ordered[i]
    if x - left <= right - x:
        return left
    return right


def rank_error(ordered: Sequence[Value], estimate: Value, w: float) -> tuple[float, float]:
    """(rank, |rank - w|) of an estimate against a sorted multiset.

    The estimate is snapped to the nearest present value and ranked with
    ties resolved toward w: the one scoring rule of the package.
    """
    rank = rank_toward(ordered, nearest_value(ordered, estimate), w)
    return rank, abs(rank - w)


class ExactOracle:
    """Exact per-key multisets, kept for judging sketch output.

    Stores every inserted value, so this is strictly a test/benchmark aid;
    sorted views are cached per key and invalidated on insert.
    """

    def __init__(self) -> None:
        self._values: dict[int, list[Value]] = {}
        self._sorted: dict[int, list[Value]] = {}

    def insert(self, key: int, value: Value) -> None:
        if not math.isfinite(value):
            raise ValueError(f"oracle values must be finite, got {value!r}")
        self._values.setdefault(key, []).append(value)
        self._sorted.pop(key, None)

    def keys(self) -> Iterable[int]:
        return self._values.keys()

    def count(self, key: int) -> int:
        vals = self._values.get(key)
        return 0 if vals is None else len(vals)

    def sorted_values(self, key: int) -> list[Value]:
        try:
            return self._sorted[key]
        except KeyError:
            pass
        try:
            ordered = sorted(self._values[key])
        except KeyError:
            raise KeyError(f"key {key!r} absent from oracle") from None
        self._sorted[key] = ordered
        return ordered

    def query(self, key: int, w: float) -> Value:
        ordered = self.sorted_values(key)
        return ordered[quantile_index(len(ordered), w)]


def average_error(
    estimates: Iterable[tuple[int, Value]],
    oracle: ExactOracle,
    w: float,
) -> float:
    """Mean rank-space error of per-key estimates against exact multisets.

    Each (key, estimate) pair is scored by ``rank_error`` against the key's
    multiset.

    :raises ValueError: if the estimate sequence is empty ("no queries") or a
        key is absent from the oracle.
    """
    check_weight(w)
    total = 0.0
    count = 0
    for key, estimate in estimates:
        if not math.isfinite(estimate):
            raise ValueError(f"estimate for key {key!r} must be finite, got {estimate!r}")
        total += rank_error(oracle.sorted_values(key), estimate, w)[1]
        count += 1
    if count == 0:
        raise ValueError("no queries to average")
    return total / count
