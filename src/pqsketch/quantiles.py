"""The rank convention and the one scoring rule every sketch answer is judged by.

For a multiset of n values sorted ascending as a_1 <= ... <= a_n, the rank of
a_k is (k - 1) / (n - 1), and a singleton ranks its only value 0.5. Equal
values span a closed interval of ranks; a value is ranked at the point of its
interval nearest the target w. An estimate x scores |rank(x) - w| after it is
snapped to the nearest present value, which is scale free and invariant under
strictly increasing transforms of the values.

The reference multisets themselves are built once from the stream's arrays
(see ``bench``); these functions only rank within one sorted list.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

NEG_INF = float("-inf")
POS_INF = float("inf")

Value = int | float


def check_weight(w: float) -> None:
    """The one check of a quantile weight: a number in [0, 1], not NaN."""
    if isinstance(w, float) and math.isnan(w):
        raise ValueError("quantile weight must not be NaN")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"quantile weight must lie in [0, 1], got {w!r}")


def check_count(name: str, value: int, even: bool = False) -> None:
    """The one check of a size parameter: a positive (and, if asked, even) int."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1 or (even and value % 2):
        kind = "positive even integer" if even else "positive integer"
        raise ValueError(f"{name} must be a {kind}, got {value!r}")


def rank_toward(ordered: Sequence[Value], x: Value, w: float) -> float:
    """Rank of x resolved toward the target w when x is duplicated.

    Equal values span a closed interval of ranks; this returns the point of
    that interval nearest w, so an estimate equal to the true w-quantile value
    scores zero error even when the value repeats. For a unique x it is the
    plain rank. ``ordered`` must already be sorted ascending.
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
