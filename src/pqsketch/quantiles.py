"""The rank convention and the one scoring rule every sketch answer is judged by.

For a multiset of n values sorted ascending as a_1 <= ... <= a_n, the rank of
a_k is (k - 1) / (n - 1), and a singleton ranks its only value 0.5. Equal
values span a closed interval of ranks; a value is ranked at the point of its
interval nearest the target w. An estimate x scores |rank(x) - w| after it is
snapped to the nearest present value, which is scale free and invariant under
strictly increasing transforms of the values.
"""
from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from typing import Sequence

NEG_INF = float("-inf")
POS_INF = float("inf")

Value = int | float


def check_weight(w: float) -> None:
    """The one check of a quantile weight: a real number in [0, 1], not NaN or a bool."""
    if isinstance(w, bool):
        raise ValueError(f"quantile weight must be a number, not a bool, got {w!r}")
    if not isinstance(w, numbers.Real):
        raise ValueError(f"quantile weight must be a real number, got {w!r}")
    if isinstance(w, float) and math.isnan(w):
        raise ValueError("quantile weight must not be NaN")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"quantile weight must lie in [0, 1], got {w!r}")


def check_count(name: str, value: int, even: bool = False, nonnegative: bool = False) -> None:
    """The one check of a count: a positive int, or with ``even`` a positive even one, or with ``nonnegative`` 0 too."""
    if isinstance(value, bool) or not isinstance(value, int) or value < (0 if nonnegative else 1) or (even and value % 2):
        kind = "nonnegative integer" if nonnegative else "positive even integer" if even else "positive integer"
        raise ValueError(f"{name} must be a {kind}, got {value!r}")


def check_value(value) -> None:
    """The one check of an inserted value: a finite real number, not a bool.

    A number too large for a float (``10**400``) is out of the domain, like
    inf: ValueError, not the OverflowError of converting it.
    """
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise TypeError(f"inserted values must be real numbers, not {type(value).__name__}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        # No repr: a huge int may exceed the digit limit of int-to-str conversion.
        kind = type(value).__name__
        raise ValueError(f"inserted values must be finite, got a value of type {kind} beyond the float range") from None
    if not finite:
        raise ValueError(f"inserted values must be finite, got {value!r}")


def rank_toward(ordered: Sequence[Value], x: Value, w: float) -> float:
    """Rank of x, resolved toward w when x repeats (see the module), so an estimate
    equal to the true w-quantile value scores zero error. ``ordered`` must
    already be sorted ascending.
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
