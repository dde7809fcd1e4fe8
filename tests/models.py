"""Reference models of the key table, shared by the tests that pin it.

``ScanningModel`` is the table written the slow, obvious way, with a
``PointEstimator`` per cell; ``sketch_state`` reads a sketch in the shape
the models give; ``draws`` reads a calibrator's stream.
"""
from __future__ import annotations

from pqsketch import Calibrator, InsertOutcome, PointEstimator
from pqsketch.value_sketch import as_ratio


class ScanningModel:
    """Reference for ValueSketch placement: a full scan on every full-bucket
    miss, and a fresh cell (new estimator, new buffers) on every eviction.
    Every cell's estimator draws from one calibrator, as the table's do."""

    def __init__(self, buckets, cells, ratio, route, r, s, quantile, seed):
        self.u = buckets
        self.ratio = as_ratio(ratio)
        self.route = route
        self.r, self.s = r, s
        self.calibrator = Calibrator(quantile, seed)
        self.cells = [[None] * cells for _ in range(buckets)]  # [key, vote, estimator]
        self.vote_minus = [0] * buckets
        self.resident: dict[int, list] = {}

    def fresh(self, key, value):
        cell = [key, 1, PointEstimator(self.r, self.s, self.calibrator)]
        cell[2].insert(value)
        self.resident[key] = cell
        return cell

    def insert(self, key, value):
        cell = self.resident.get(key)
        if cell is not None:
            cell[2].insert(value)
            cell[1] += 1
            return InsertOutcome.MATCHED, None
        b = self.route(key) % self.u
        cells = self.cells[b]
        if None in cells:
            cells[cells.index(None)] = self.fresh(key, value)
            return InsertOutcome.PLACED, None
        self.vote_minus[b] += 1
        weakest = min(range(len(cells)), key=lambda j: cells[j][1])  # first minimum
        if self.vote_minus[b] < self.ratio * cells[weakest][1]:
            return InsertOutcome.REJECTED, None
        evicted = cells[weakest][0]
        del self.resident[evicted]
        cells[weakest] = self.fresh(key, value)
        self.vote_minus[b] = 0
        return InsertOutcome.EVICTED, evicted

    def state(self):
        # A cell keeps its representative sorted, a PointEstimator in append order.
        return [
            (minus, [None if c is None else (c[0], c[1], c[2].candidate, sorted(c[2].representative)) for c in cells])
            for minus, cells in zip(self.vote_minus, self.cells)
        ]


def sketch_state(sketch):
    """Each bucket's negative vote and cells, as ``ScanningModel.state`` gives them.

    A composed sketch's tower counters follow, as a second element.
    """
    buckets = [
        (
            bucket.vote_minus,
            [
                None if c is None else (c.key, c.vote_plus, list(c.candidate), sorted(c.representative))
                for c in bucket.cells
            ],
        )
        for bucket in sketch.buckets
    ]
    tower = getattr(sketch, "tower", None)
    if tower is None:
        return buckets
    return buckets, [list(arr) for _, _, arr in tower._layers]


def draws(cal, n):
    """The next n draws of a calibrator, taken one by one by ``sample_geometric``."""
    return [cal.sample_geometric() for _ in range(n)]
