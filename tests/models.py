"""Reference models of the key table, shared by the tests that pin it.

``ScanningModel`` is the table written the slow, obvious way, with a
``PointEstimator`` per cell, and ``GateFirstModel`` puts a tower in front of
it that every item asks first; ``replay`` checks a table against one of them
after every item of a stream, which ``runs`` draws. ``placement_bucket`` is
the tower's placement rule; ``sketch_state`` reads a sketch in the shape the
models give; ``draws`` reads a calibrator's stream. ``KeyRules`` holds the
table's key and value rule cases, which a ``TestKeys`` class runs on each build.
"""
from __future__ import annotations

import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

from pqsketch import Calibrator, InsertOutcome, InsertResult, PointEstimator, TowerFilter
from pqsketch.hashing import child_seed, hash_key
from pqsketch.sketch import SEED_TOWER, SEED_VALUES
from pqsketch.value_sketch import as_ratio

# Values outside the domain; 10**400 is an int too large for a float.
NON_FINITE = [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")]


def runs(keys):
    """Items of keys 0 .. keys - 1 in runs of one key, so residents build up votes
    and flush. A small pool repeats values and holds both zeros."""
    values = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 7.0]) | st.floats(-1e6, 1e6, allow_nan=False)
    run = st.tuples(st.integers(0, keys - 1), st.lists(values, min_size=1, max_size=5))
    return st.lists(run, max_size=100).map(lambda runs: [(key, value) for key, values in runs for value in values])


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

    def query(self, key):
        """The key's estimate as its ``PointEstimator`` gives it; KeyError if it holds no cell."""
        if key not in self.resident:
            raise KeyError(f"key {key!r} not tracked")
        return self.resident[key][2].query()

    def state(self):
        # A cell keeps its representative sorted, a PointEstimator in append order.
        return [
            (minus, [None if c is None else (c[0], c[1], c[2].candidate, sorted(c[2].representative)) for c in cells])
            for minus, cells in zip(self.vote_minus, self.cells)
        ]


class GateFirstModel(ScanningModel):
    """The composed sketch without the resident shortcut: a reference tower, under
    the sketch's seeds, gates every item, and ``placement_bucket`` on it routes
    the admitted ones. Each step asserts that no gate among ``keys`` closes
    again and that every resident key's gate is open."""

    def __init__(self, sketch, keys):
        params, plan = sketch.params, sketch.plan
        self.threshold = params.gate_threshold
        self.keys, self.opened = keys, set()
        self.tower = TowerFilter(
            plan.tower_bytes_per_array, seed=child_seed(params.seed, SEED_TOWER), buckets=plan.buckets
        )
        super().__init__(
            plan.buckets,
            params.cells_per_bucket,
            params.eviction_ratio,
            lambda key: placement_bucket(self.tower, key),
            params.candidate_capacity,
            params.representative_capacity,
            params.quantile,
            child_seed(params.seed, SEED_VALUES),
        )

    def insert(self, key, value):
        if self.tower.query(key) < self.threshold:
            self.tower.insert(key)
            result = None
        else:
            result = super().insert(key, value)
        opened = {k for k in self.keys if self.tower.query(k) >= self.threshold}
        assert self.opened <= opened, "a gate closed again"
        assert set(self.resident) <= opened
        self.opened = opened
        return result

    def state(self):
        """``sketch_state``'s shape: the table's buckets, then the tower's counters."""
        return super().state(), [list(arr) for _, _, arr in self.tower._layers]


def placement_bucket(tower, key):
    """What ``tower.admit`` returns for key once its gate is open, computed from hash_key.

    The tower's hash x (64 bits, or 128 on a wide layout) less its three
    counter digits leaves the quotient q = x // (n0 n1 n2). Of the tower's u
    buckets it picks q % u while n0 n1 n2 u <= 2^(bits - 10); past that the
    bucket comes from one more hash, under the tower's second child seed."""
    n0, n1, n2 = (layer[0] for layer in tower._layers)
    s0, s1 = tower._step[:2]
    u, rehash_seed = tower._step[-2:]
    x, bits = hash_key(key, s0), 64
    if s1 is not None:
        x, bits = x | hash_key(key, s1) << 64, 128
    digit = n0 * n1 * n2 * u <= 1 << (bits - 10)
    assert (rehash_seed is None) == digit
    if digit:
        return x // (n0 * n1 * n2) % u
    return hash_key(key, rehash_seed) % u


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


def answer(query, key):
    """What query(key) gives: its estimate, or its error's type and message."""
    try:
        return query(key)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


def replay(table, model, items, probes):
    """Feed items to a key table and its model one by one, and return the outcomes.

    After each item: the outcome (an ``InsertResult``, or None if gated), the
    state, the tracked keys, the key index against a bucket scan, the vote
    floors, the empty cells against the room, and each probe's answer or error
    agree. At the end, both calibration streams go on alike for 50 draws."""
    results = []
    for key, value in items:
        result = table.insert(key, value)
        assert result is None or type(result) is InsertResult
        assert result == model.insert(key, value)
        results.append(result)
        assert sketch_state(table) == model.state()
        assert table.tracked_keys() == list(model.resident)
        held = {cell.key: id(cell) for bucket in table.buckets for cell in bucket.cells if cell is not None}
        assert {k: id(cell) for k, cell in table._resident.items()} == held
        for floor, room, bucket in zip(table._floors, table._room, table.buckets):
            cells = bucket.cells
            if None not in cells:
                assert floor <= min(c.vote_plus for c in cells)
            used = len(cells) - room
            assert cells == cells[:used] + [None] * room and None not in cells[:used]
        for probe in probes:
            assert answer(table.query, probe) == answer(model.query, probe)
    assert draws(copy.deepcopy(table._calibrator), 50) == draws(copy.deepcopy(model.calibrator), 50)
    return results


class KeyRules:
    """insert and query follow hashing.as_key's key rule and check_value's value
    rule, on a resident key and at the gate; a refused item changes nothing.

    A subclass named ``TestKeys`` runs every case on one build: its ``build(quantile)``
    returns an empty key table whose gate is open."""

    def build(self, quantile=0.5):
        raise NotImplementedError

    @pytest.fixture
    def table(self):
        return self.build()

    def test_numpy_key_becomes_its_int(self, table):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert table.insert(np.uint64(5), 1.0).outcome is InsertOutcome.PLACED
            assert table.insert(np.uint64(5), 2.0).outcome is InsertOutcome.MATCHED
            assert table.insert(5, 3.0).outcome is InsertOutcome.MATCHED
            assert table.insert(np.int64(6), 4.0).outcome is InsertOutcome.PLACED
        keys = table.tracked_keys()
        assert keys == [5, 6] and all(type(k) is int for k in keys)

    def test_resident_numpy_key_is_matched(self, table):
        table.insert(5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert table.insert(np.uint64(5), 2.0).outcome is InsertOutcome.MATCHED
            assert table.insert(np.int64(5), 3.0).outcome is InsertOutcome.MATCHED
        assert table.tracked_keys() == [5]

    def test_keys_outside_the_unsigned_64_bit_range_raise(self, table):
        for bad in (-1, 1 << 64):
            with pytest.raises(ValueError, match="unsigned 64-bit"):
                table.insert(bad, 1.0)
        assert table.tracked_keys() == []
        # -1 does not alias the top key: only the top key itself is tracked.
        assert table.insert((1 << 64) - 1, 1.0).outcome is InsertOutcome.PLACED
        assert table.tracked_keys() == [(1 << 64) - 1]

    @staticmethod
    def refuse_keys(table, resident, bads):
        """Hold a cell for each resident key, then insert each bad key: each
        raises a TypeError naming its type, and the cells keep their vote and buffers."""
        for key in resident:
            table.insert(key, 1.0)
        for bad in bads:
            with pytest.raises(TypeError, match=type(bad).__name__):
                table.insert(bad, 2.0)
        assert table.tracked_keys() == resident
        cells = table._resident.values()
        assert [(c.vote_plus, list(c.candidate), list(c.representative)) for c in cells] == [(1, [1.0], [])] * len(resident)

    def test_float_key_raises_even_when_its_int_holds_a_cell(self, table):
        self.refuse_keys(table, [], (1.5, 5.0, 6.0))
        self.refuse_keys(table, [1, 5], (1.5, 5.0, 6.0))

    def test_bool_key_raises(self, table):
        self.refuse_keys(table, [], (False, True))

    def test_bool_key_raises_even_when_its_int_holds_a_cell(self, table):
        self.refuse_keys(table, [0, 1], (False, True))

    def refuse_values(self, bads, error, match):
        """Insert each bad value at w = 0.9, where every push draws: for key 5,
        which holds a cell, and key 6, which meets the gate. No cell changes,
        no tower moves and no draw is taken: the stream goes on as its copy does."""
        table = self.build(quantile=0.9)
        for value in (1.0, 2.0, 3.0):
            table.insert(5, value)
        before, answer, twin = sketch_state(table), table.query(5), copy.deepcopy(table._calibrator)
        for key in (5, 6):
            for bad in bads:
                with pytest.raises(error, match=match):
                    table.insert(key, bad)
        assert sketch_state(table) == before and table.query(5) == answer
        assert draws(table._calibrator, 50) == draws(twin, 50)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_resident_key_refuses_non_finite_values(self, bad):
        self.refuse_values([bad], ValueError, "finite")

    def test_bool_and_non_real_values_are_refused(self):
        self.refuse_values([True, False, "1", None, 1j], TypeError, "real")

    def test_query_untracked_key(self, table):
        with pytest.raises(KeyError, match="not tracked"):
            table.query(123)

    def test_query_keys_follow_the_insert_rule(self, table):
        table.insert(1, 4.0)
        # A float or bool equal to a resident key does not answer for it.
        for bad in (1.0, True, False, "1"):
            with pytest.raises(TypeError):
                table.query(bad)
        for bad in (-1, 1 << 64):
            with pytest.raises(ValueError, match="unsigned 64-bit"):
                table.query(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert table.query(np.uint64(1)) == table.query(np.int64(1)) == table.query(1) == 4.0
        with pytest.raises(KeyError, match="not tracked"):
            table.query(2)
