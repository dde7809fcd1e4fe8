"""The benchmark's own exact reference: every key's sorted values.

It scores sketch answers the way the paper does: snap the estimate to the
nearest inserted value of the key (ties to the smaller), rank it with equal
values resolved toward the target w, and take |rank - w|. It also checks that
every answer is a value that was actually inserted for its key.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Score:
    ae: float | None  # mean rank error over evaluated keys that answered
    coverage: float  # evaluated keys / eligible keys
    eligible: int  # keys with true frequency >= f_eval
    evaluated: int  # tracked keys among the eligible
    failed_keys: list[int]  # tracked keys whose query raised
    foreign_keys: list[int]  # tracked keys answered with a value never inserted for them


class Reference:
    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        order = np.lexsort((values, keys))
        self._values = values[order]
        uniq, start, count = np.unique(keys[order], return_index=True, return_counts=True)
        self._slices = {k: (s, s + c) for k, s, c in zip(uniq.tolist(), start.tolist(), count.tolist())}

    def count(self, key: int) -> int:
        lo, hi = self._slices.get(key, (0, 0))
        return hi - lo

    def sorted_values(self, key: int) -> np.ndarray:
        lo, hi = self._slices[key]
        return self._values[lo:hi]

    def score(self, tracked: list[int], answers: list[float | None], w: float, f_eval: int) -> Score:
        """Score the answers of the tracked keys; None marks a failed query.

        Keys are visited in the order given, which fixes the summation order
        of the mean error.
        """
        eligible = sum(1 for lo, hi in self._slices.values() if hi - lo >= f_eval)
        evaluated = 0
        answered = 0
        total = 0.0
        failed: list[int] = []
        foreign: list[int] = []
        for key, answer in zip(tracked, answers):
            if answer is None:
                failed.append(key)
            elif key not in self._slices or not _contains(self.sorted_values(key), answer):
                foreign.append(key)
            if self.count(key) < f_eval:
                continue
            evaluated += 1
            if answer is None:
                continue
            total += abs(_rank_toward(self.sorted_values(key), answer, w) - w)
            answered += 1
        return Score(
            ae=total / answered if answered else None,
            coverage=evaluated / eligible if eligible else 1.0,
            eligible=eligible,
            evaluated=evaluated,
            failed_keys=failed,
            foreign_keys=foreign,
        )


def _contains(ordered: np.ndarray, x: float) -> bool:
    i = int(np.searchsorted(ordered, x, side="left"))
    return i < len(ordered) and ordered[i] == x


def _rank_toward(ordered: np.ndarray, estimate: float, w: float) -> float:
    """Rank of the estimate snapped to the nearest value, ties toward w."""
    n = len(ordered)
    i = int(np.searchsorted(ordered, estimate, side="left"))
    if i == n:
        x = ordered[n - 1]
    elif ordered[i] == estimate or i == 0:
        x = ordered[i]
    else:
        left, right = ordered[i - 1], ordered[i]
        x = left if estimate - left <= right - estimate else right
    if n == 1:
        return 0.5
    lo = int(np.searchsorted(ordered, x, side="left"))
    hi = int(np.searchsorted(ordered, x, side="right")) - 1
    return min(max(w, lo / (n - 1)), hi / (n - 1))
