"""Single-stream point estimator for one quantile.

Two tiny buffers per stream. Values land in a candidate buffer of capacity r;
when it fills, its two middle order statistics (sorted ranks r/2 and r/2 + 1)
move to a representative buffer of capacity s and the candidate is discarded.
If the representative would overflow, the global minimum and maximum of the
s + 2 values present are dropped, squeezing the buffer toward the middle of
the distribution. The query answer is the lower median of the representative.

Batching through medians keeps the estimate unbiased around the median of the
input stream, and the min/max eviction concentrates it there; combined with a
Calibrator the same machinery answers any fixed w. Everything is O(r + s)
memory and amortized O((r + s) / r) comparisons per insert.
"""
from __future__ import annotations

import math

from .calibration import Calibrator
from .quantiles import NEG_INF, Value


def check_count(name: str, value: int, even: bool = False) -> None:
    """The one check of a size parameter: a positive (and, if asked, even) int."""
    if not isinstance(value, int) or value < 1 or (even and value % 2):
        kind = "positive even integer" if even else "positive integer"
        raise ValueError(f"{name} must be a {kind}, got {value!r}")


class PointEstimator:
    """Fixed-memory estimator of one quantile of one value stream.

    :param candidate_capacity: r, a positive even batch size.
    :param representative_capacity: s, a positive even retention size.
    :param calibrator: quantile recentering stage; defaults to the identity
        (w = 0.5) with seed 0.
    """

    __slots__ = ("candidate", "representative", "_r", "_s", "_calibrator", "_finite_seen")

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
        self._calibrator = calibrator if calibrator is not None else Calibrator(0.5, 0)
        self.candidate: list[Value] = []
        self.representative: list[Value] = []
        self._finite_seen = 0

    @property
    def calibrator(self) -> Calibrator:
        return self._calibrator

    @property
    def candidate_capacity(self) -> int:
        return self._r

    @property
    def representative_capacity(self) -> int:
        return self._s

    def insert(self, value: Value) -> None:
        """Insert one finite value, expanding it through the calibrator."""
        if not math.isfinite(value):
            raise ValueError(f"inserted values must be finite, got {value!r}")
        self._finite_seen += 1
        # Candidate stays strictly below capacity between operations: the
        # append that reaches r triggers an immediate flush.
        c = self.candidate
        r = self._r
        cal = self._calibrator
        sentinel = cal.sentinel
        # An identity calibrator is not asked: its Z is always 1, drawn from nothing.
        if sentinel is not None:
            z = cal.sample_geometric()
            while z > 1:
                z -= 1
                c.append(sentinel)
                if len(c) >= r:
                    self._flush()
        c.append(value)
        if len(c) >= r:
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
        c.clear()
        rep = self.representative
        rep.append(lo)
        rep.append(hi)
        if len(rep) > self._s:
            rep.remove(max(rep))
            rep.remove(min(rep))

    def query(self) -> Value:
        """Current estimate: the lower median of the representative.

        If that median is a calibration sentinel, the nearest finite neighbor
        in sorted order is returned instead (scanning toward larger values
        from -inf, smaller from +inf). With no usable representative the
        candidate's finite values answer, so a short stream still gets its
        exact median back.

        :raises ValueError: "insufficient data" before any finite insert;
            "degenerate estimate" if only sentinels remain buffered.
        """
        rep = self.representative
        if rep:
            ordered = sorted(rep)
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
        finite = [x for x in self.candidate if math.isfinite(x)]
        if finite:
            finite.sort()
            return finite[(len(finite) - 1) >> 1]
        if self._finite_seen == 0:
            raise ValueError("insufficient data: no finite values inserted")
        raise ValueError("degenerate estimate: only sentinels retained")

    def __repr__(self) -> str:
        return (
            f"PointEstimator(r={self._r}, s={self._s}, "
            f"candidate={len(self.candidate)}, representative={len(self.representative)})"
        )
