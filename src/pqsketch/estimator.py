"""Single-stream point estimator for one quantile.

Two tiny buffers per stream. Values land in a candidate buffer of capacity r;
when it fills, its two middle order statistics (sorted ranks r/2 and r/2 + 1)
move to a representative buffer of capacity s and the candidate is discarded.
If the representative would overflow, the global minimum and maximum of the
s + 2 values present are dropped, squeezing the buffer toward the middle of
the distribution. The query answer is the lower median of the representative
(the key table's cells keep it sorted; see ``value_sketch.Cell``).

Batching through medians keeps the estimate unbiased around the median of the
input stream, and the min/max eviction concentrates it there; combined with a
Calibrator the same machinery answers any fixed w. Everything is O(r + s)
memory and amortized O((r + s) / r) comparisons per insert.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .calibration import Calibrator
from .quantiles import NEG_INF, POS_INF, Value, check_count


class PointEstimator:
    """Fixed-memory estimator of one quantile of one value stream.

    The append-order reference that the key table's push and flush
    (``ValueSketch.insert`` and ``_flush``) are pinned to in tests.

    :param candidate_capacity: r, a positive even batch size.
    :param representative_capacity: s, a positive even retention size.
    :param calibrator: quantile recentering stage; defaults to a new
        identity (w = 0.5), whose draws are all ones.
    """

    __slots__ = ("candidate", "representative", "_r", "_s", "_calibrator")

    def __init__(
        self,
        candidate_capacity: int = 16,
        representative_capacity: int = 10,
        calibrator: Calibrator | None = None,
    ) -> None:
        check_count("candidate_capacity", candidate_capacity, even=True)
        check_count("representative_capacity", representative_capacity, even=True)
        self._r = candidate_capacity
        self._s = representative_capacity
        self._calibrator = calibrator if calibrator is not None else Calibrator(0.5)
        self.candidate: list[Value] = []
        self.representative: list[Value] = []

    def insert(self, value: Value) -> None:
        """Insert one finite value: append its calibrated run, flushing whenever the candidate fills."""
        c = self.candidate
        for v in self._calibrator.calibrate(value):
            c.append(v)
            if len(c) >= self._r:
                self._flush()

    def extend(self, values) -> None:
        insert = self.insert
        for v in values:
            insert(v)

    def _flush(self) -> None:
        """Move the full candidate's middle pair into the representative."""
        c = self.candidate
        c.sort()
        half = self._r >> 1
        lo = c[half - 1]
        hi = c[half]
        rep = self.representative
        rep.append(lo)
        rep.append(hi)
        if len(rep) > self._s:
            rep.remove(max(rep))
            rep.remove(min(rep))
        # The representative can end up all sentinels (a batch of sentinels,
        # or eviction of its last finite value as an extreme) only when the
        # pair reached a sentinel. Then the batch's finite value nearest the
        # middle takes a sentinel's place, so the estimate keeps a finite value.
        if hi == POS_INF:
            if min(rep) == POS_INF and c[0] != POS_INF:
                rep[-1] = c[bisect_left(c, POS_INF) - 1]
        elif lo == NEG_INF:
            if max(rep) == NEG_INF and c[-1] != NEG_INF:
                rep[-1] = c[bisect_right(c, NEG_INF)]
        c.clear()

    def query(self) -> Value:
        """Current estimate: ``answer`` over the sorted representative."""
        return answer(sorted(self.representative), self.candidate, self._calibrator.w)

    def __repr__(self) -> str:
        return (
            f"PointEstimator(r={self._r}, s={self._s}, "
            f"candidate={len(self.candidate)}, representative={len(self.representative)})"
        )


def answer(ordered, candidate: list[Value], w: float) -> Value:
    """The estimate of a representative, sorted as ``ordered``, and its candidate.

    The answer is the lower median of ``ordered``. If that median is a
    calibration sentinel, its nearest finite neighbor in sorted order is
    returned instead. A representative with no finite value leaves the answer
    to the candidate's n finite values: their w-quantile, at sorted index
    ceil(w (n - 1) - 1/2), which rounds half down, so w = 0.5 gives the lower
    median and a short stream still gets its exact quantile back.

    :raises ValueError: "insufficient data" while both buffers are empty
        (before any insert); "degenerate estimate" if only sentinels remain,
        which inserts never bring about (see ``PointEstimator._flush``), only
        buffers set by hand.
    """
    if ordered:
        idx = (len(ordered) - 1) >> 1
        v = ordered[idx]
        if math.isfinite(v):
            return v
        if v == NEG_INF:
            scan = range(idx + 1, len(ordered))
        else:
            scan = range(idx - 1, -1, -1)
        for j in scan:
            if math.isfinite(ordered[j]):
                return ordered[j]
    finite = [x for x in candidate if math.isfinite(x)]
    if finite:
        finite.sort()
        return finite[math.ceil(w * (len(finite) - 1) - 0.5)]
    if not (ordered or candidate):
        raise ValueError("insufficient data: no finite values inserted")
    raise ValueError("degenerate estimate: only sentinels retained")
