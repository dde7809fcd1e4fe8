"""Tests for the bucketed key table and its vote-based eviction."""
from __future__ import annotations

import random
import warnings
from array import array
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsketch import (
    POS_INF,
    Calibrator,
    InsertOutcome,
    PerKeyQuantileSketch,
    PointEstimator,
    SketchParams,
    ValueSketch,
    collision_probability,
    rank_error,
)
from pqsketch.estimator import answer as estimator_answer
from pqsketch.hashing import child_seed
from pqsketch.value_sketch import Bucket, Cell, as_ratio

from models import ScanningModel, draws, sketch_state


def single_bucket(eviction_ratio=4, cells=2, **kwargs):
    """One-bucket sketch: every key collides, which makes votes observable."""
    return ValueSketch(
        buckets=1,
        cells_per_bucket=cells,
        eviction_ratio=eviction_ratio,
        hash_fn=lambda key: 0,
        **kwargs,
    )


class TestConstruction:
    @pytest.mark.parametrize("seed", ["x", True, 1.5, None])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ValueSketch(4, 2, seed=seed)

    def test_buckets_are_distinct_rows_of_empty_cells(self):
        # Every bucket copies one row of Nones: writing a cell or a vote into
        # one bucket must leave the others as they were.
        vs = ValueSketch(3, 4, hash_fn=lambda key: 0)
        assert len({id(bucket) for bucket in vs.buckets}) == 3
        for bucket in vs.buckets:
            assert type(bucket) is Bucket and bucket.cells is bucket
            assert bucket == [None] * 4 and bucket.vote_minus == 0
        for key in range(6):
            vs.insert(key, 1.0)
        assert [cell.key for cell in vs.buckets[0].cells] == [0, 1, 2, 3]
        assert vs.buckets[0].vote_minus == 2
        for bucket in vs.buckets[1:]:
            assert bucket == [None] * 4 and bucket.vote_minus == 0


class TestAsRatio:
    def test_int_and_fraction_pass_through(self):
        assert as_ratio(4) == Fraction(4)
        assert as_ratio(Fraction(5, 2)) == Fraction(5, 2)

    def test_float_uses_decimal_reading(self):
        assert as_ratio(0.1) == Fraction(1, 10)
        assert as_ratio(2.5) == Fraction(5, 2)
        # Any real that is not rational is read as a Python float.
        assert as_ratio(np.float32(4.0)) == Fraction(4)
        assert as_ratio(np.float32(2.5)) == Fraction(5, 2)
        assert SketchParams(eviction_ratio=np.float32(4.0)).eviction_ratio == Fraction(4)

    def test_string_parses(self):
        assert as_ratio("2.5") == Fraction(5, 2)
        assert as_ratio("1/3") == Fraction(1, 3)

    def test_rejects_non_positive_and_non_finite(self):
        for bad in (0, -1, -0.5, float("inf"), float("nan"), np.float32("inf")):
            with pytest.raises(ValueError):
                as_ratio(bad)

    def test_division_by_zero_is_a_value_error(self):
        with pytest.raises(ValueError, match="eviction ratio"):
            as_ratio("1/0")

    @pytest.mark.parametrize("bad", [None, 1j, [1]])
    def test_non_numbers_are_value_errors(self, bad):
        with pytest.raises(ValueError, match="eviction ratio must be a number"):
            as_ratio(bad)
        with pytest.raises(ValueError, match="eviction ratio must be a number"):
            SketchParams(eviction_ratio=bad)


class TestOutcomes:
    def test_place_then_match(self):
        vs = single_bucket()
        assert vs.insert(1, 5.0).outcome is InsertOutcome.PLACED
        assert vs.insert(1, 6.0).outcome is InsertOutcome.MATCHED
        assert vs.insert(2, 1.0).outcome is InsertOutcome.PLACED

    def test_first_empty_slot_claimed(self):
        vs = single_bucket(cells=3)
        for key in (10, 11, 12):
            vs.insert(key, 1.0)
        assert [cell.key for cell in vs.buckets[0].cells] == [10, 11, 12]

    def test_full_bucket_rejects_until_vote_threshold(self):
        # With two residents at vote 1 and ratio 2, the second negative vote
        # triggers the eviction, and the lowest-index weakest cell loses.
        vs = single_bucket(eviction_ratio=2)
        vs.insert(1, 1.0)
        vs.insert(2, 1.0)
        first = vs.insert(3, 1.0)
        assert first.outcome is InsertOutcome.REJECTED
        assert vs.buckets[0].vote_minus == 1
        second = vs.insert(3, 1.0)
        assert second.outcome is InsertOutcome.EVICTED
        assert second.evicted_key == 1
        assert vs.buckets[0].vote_minus == 0
        assert sorted(cell.key for cell in vs.buckets[0].cells) == [2, 3]

    def test_matches_strengthen_against_eviction(self):
        vs = single_bucket(eviction_ratio=1)
        vs.insert(1, 1.0)
        vs.insert(1, 1.0)  # vote_plus = 2
        vs.insert(2, 1.0)  # vote_plus = 1
        result = vs.insert(3, 1.0)
        assert result.outcome is InsertOutcome.EVICTED
        assert result.evicted_key == 2

    def test_rejection_mutates_only_the_negative_vote(self):
        vs = single_bucket(eviction_ratio=100)
        vs.insert(1, 1.0)
        vs.insert(2, 1.0)
        keys_before = [cell.key for cell in vs.buckets[0].cells]
        votes_before = [cell.vote_plus for cell in vs.buckets[0].cells]
        for i in range(1, 11):
            assert vs.insert(3, 1.0).outcome is InsertOutcome.REJECTED
            assert vs.buckets[0].vote_minus == i
        assert [cell.key for cell in vs.buckets[0].cells] == keys_before
        assert [cell.vote_plus for cell in vs.buckets[0].cells] == votes_before
        with pytest.raises(KeyError, match="not tracked"):
            vs.query(3)

    def test_fractional_ratio_is_exact(self):
        # ratio 1/2: one negative vote covers a resident with vote_plus 2.
        vs = single_bucket(eviction_ratio="1/2")
        vs.insert(1, 1.0)
        vs.insert(1, 1.0)
        vs.insert(2, 1.0)
        vs.insert(2, 1.0)
        assert vs.insert(3, 1.0).outcome is InsertOutcome.EVICTED

    def test_float_ratio_matches_decimal_meaning(self):
        vs = single_bucket(eviction_ratio=2.5)
        vs.insert(1, 1.0)
        vs.insert(2, 1.0)
        outcomes = [vs.insert(3, 1.0).outcome for _ in range(3)]
        # Threshold 2.5 * 1: votes 1 and 2 reject, 3 >= 2.5 evicts.
        assert outcomes == [
            InsertOutcome.REJECTED,
            InsertOutcome.REJECTED,
            InsertOutcome.EVICTED,
        ]


class TestVoteAccounting:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_votes_shadow_insert_outcomes(self, seed):
        rng = random.Random(seed)
        vs = ValueSketch(buckets=4, cells_per_bucket=2, eviction_ratio=1, seed=seed)
        shadow: dict[int, int] = {}
        for _ in range(2_000):
            key = rng.randrange(30)
            result = vs.insert(key, rng.random())
            if result.outcome is InsertOutcome.MATCHED:
                shadow[key] += 1
            elif result.outcome is InsertOutcome.PLACED:
                shadow[key] = 1
            elif result.outcome is InsertOutcome.EVICTED:
                del shadow[result.evicted_key]
                shadow[key] = 1
            tracked = {
                cell.key: cell.vote_plus
                for bucket in vs.buckets
                for cell in bucket.cells
                if cell is not None
            }
            assert tracked == shadow

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), ratio=st.sampled_from([1, 2, 4, Fraction(1, 2)]))
    def test_eviction_fires_exactly_at_threshold(self, seed, ratio):
        rng = random.Random(seed)
        vs = ValueSketch(buckets=3, cells_per_bucket=2, eviction_ratio=ratio, seed=seed)
        frac = Fraction(ratio)
        for _ in range(1_500):
            key = rng.randrange(40)
            b = vs.buckets[vs._admit(key, 0)]
            pre_minus = b.vote_minus
            pre_votes = [cell.vote_plus for cell in b.cells if cell is not None]
            full = all(cell is not None for cell in b.cells)
            held = any(cell is not None and cell.key == key for cell in b.cells)
            result = vs.insert(key, rng.random())
            if result.outcome is InsertOutcome.EVICTED:
                assert full and not held
                assert pre_minus + 1 >= frac * min(pre_votes)
                assert b.vote_minus == 0
            elif result.outcome is InsertOutcome.REJECTED:
                assert full and not held
                assert pre_minus + 1 < frac * min(pre_votes)
                assert b.vote_minus == pre_minus + 1

    def test_victim_is_lowest_index_weakest(self):
        vs = single_bucket(eviction_ratio=1, cells=3)
        for key in (1, 2, 3):
            vs.insert(key, 1.0)
        vs.insert(2, 1.0)  # votes now [1, 2, 1]; index 0 is the first minimum
        result = vs.insert(9, 1.0)
        assert result.outcome is InsertOutcome.EVICTED
        assert result.evicted_key == 1


def answer(query):
    """What a query gives: its estimate, or its error's message."""
    try:
        return query()
    except ValueError as exc:
        return str(exc)


class TestSortedRepresentative:
    """A cell keeps its representative sorted; PointEstimator, which keeps
    append order, is its reference."""

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.sampled_from([0.1, 0.5, 0.9, 0.99]),
        r=st.sampled_from([2, 4, 6]),
        s=st.sampled_from([2, 4, 6]),
        seed=st.integers(0, 3),
        # A small pool repeats values, and holds both zeros. At r = 2 most
        # flushes take a pair with a sentinel in it, so both sentinel repairs
        # of _flush occur, at w = 0.1 and at w = 0.9 and 0.99.
        values=st.lists(
            st.sampled_from([-0.0, 0.0, 1.0, -2.5, 7.0]) | st.floats(-1e6, 1e6, allow_nan=False),
            max_size=150,
        ),
    )
    def test_cell_agrees_with_a_point_estimator(self, w, r, s, seed, values):
        # One cell in one bucket: key 1 is placed once and matched after.
        vs = ValueSketch(1, 1, candidate_capacity=r, representative_capacity=s, quantile=w, seed=seed)
        ref = PointEstimator(r, s, Calibrator(w, seed))
        empty = Cell(1, 1)
        assert answer(lambda: estimator_answer(empty.representative, empty.candidate, w)) == answer(ref.query)
        for value in values:
            vs.insert(1, value)
            ref.insert(value)
            cell = vs._resident[1]
            assert cell.candidate == ref.candidate
            # == holds 0.0 and -0.0 equal: equal extremes may leave either.
            assert list(cell.representative) == sorted(ref.representative)
            assert answer(lambda: vs.query(1)) == answer(ref.query)

    @settings(max_examples=300, deadline=None)
    @given(
        r=st.sampled_from([2, 4, 6]),
        s=st.sampled_from([2, 4, 6]),
        data=st.data(),
    )
    def test_case_split_is_insort_then_trim_bit_for_bit(self, r, s, data):
        # ValueSketch._flush is the rule this model states. Ties, both zeros
        # and both sentinel signs, so every case of where the pair lands
        # meets equal ends and either repair.
        pool = st.sampled_from([-0.0, 0.0, 1.0, -2.5, POS_INF, -POS_INF])
        size = data.draw(st.sampled_from(range(0, s + 1, 2)))
        rep = sorted(data.draw(st.lists(pool, min_size=size, max_size=size)))
        batch = data.draw(st.lists(pool, min_size=r, max_size=r))
        vs = ValueSketch(1, 1, candidate_capacity=r, representative_capacity=s)
        cell = Cell(1, 1)
        cell.representative = array("d", rep)
        cell.candidate[:] = batch
        vs._flush(cell)
        c = sorted(batch)
        lo, hi = c[r // 2 - 1], c[r // 2]
        model = rep[:]
        insort(model, lo)
        insort(model, hi)
        if len(model) > s:
            del model[0], model[-1]
        # PointEstimator._flush's repair: only on the sentinel the pair holds.
        if hi == POS_INF:
            if model[0] == POS_INF and c[0] != POS_INF:
                model[0] = c[bisect_left(c, POS_INF) - 1]
        elif lo == -POS_INF:
            if model[-1] == -POS_INF and c[-1] != -POS_INF:
                model[-1] = c[bisect_right(c, -POS_INF)]
        assert [v.hex() for v in cell.representative] == [float(v).hex() for v in model]
        assert cell.candidate == []

    # A full representative [1, 2, 3, 4] (s = 4) and a pair (lo, hi) from
    # r = 2: four examples of the one rule, insert the pair and trim both
    # ends, one for each side of the ends a = 1, b = 4 that lo and hi fall on.
    @pytest.mark.parametrize(
        "pair, after",
        [
            ((0.0, 5.0), [1.0, 2.0, 3.0, 4.0]),  # lo < a, hi >= b: unchanged
            ((0.0, 2.5), [1.0, 2.0, 2.5, 3.0]),  # lo < a, hi < b: b out, hi in
            ((1.5, 2.5), [1.5, 2.0, 2.5, 3.0]),  # lo >= a, hi < b: both ends out, both in
            ((2.5, 9.0), [2.0, 2.5, 3.0, 4.0]),  # lo >= a, hi >= b: a out, lo in
        ],
        ids=["lo-below-hi-above", "lo-below", "both-inside", "hi-above"],
    )
    def test_each_branch_of_the_full_flush(self, pair, after):
        vs = ValueSketch(1, 1, candidate_capacity=2, representative_capacity=4)
        cell = Cell(1, 1)
        cell.representative = array("d", [1.0, 2.0, 3.0, 4.0])
        cell.candidate[:] = pair
        ref = PointEstimator(2, 4)
        ref.representative = [1.0, 2.0, 3.0, 4.0]
        ref.candidate = list(pair)
        vs._flush(cell)
        ref._flush()
        assert list(cell.representative) == after == sorted(ref.representative)


class TestVoteFloor:
    """A full bucket's vote floor only skips scans: placement agrees step for
    step with a model that scans every time and never reuses a cell."""

    KEYS = 12

    @settings(max_examples=80, deadline=None)
    @given(
        route=st.lists(st.integers(0, 2), min_size=KEYS, max_size=KEYS),
        buckets=st.integers(1, 3),
        cells=st.integers(1, 3),
        ratio=st.sampled_from([1, 4, Fraction(5, 2), "0.1"]),
        quantile=st.sampled_from([0.5, 0.9]),
        seed=st.integers(0, 3),
        # Runs of one key against at most 9 cells for 12 keys: matched,
        # placed, rejected and evicted items all occur, and residents build
        # up votes, so scans raise floors above 1 before evictions.
        runs=st.lists(
            st.tuples(st.integers(0, KEYS - 1), st.integers(1, 5), st.floats(-1e6, 1e6, allow_nan=False)),
            max_size=100,
        ),
    )
    def test_agrees_with_a_scanning_model(self, route, buckets, cells, ratio, quantile, seed, runs):
        items = [(key, value + i) for key, length, value in runs for i in range(length)]
        options = dict(candidate_capacity=4, representative_capacity=4, quantile=quantile, seed=seed)
        vs = ValueSketch(buckets, cells, eviction_ratio=ratio, hash_fn=route.__getitem__, **options)
        model = ScanningModel(
            buckets, cells, ratio, route.__getitem__, options["candidate_capacity"],
            options["representative_capacity"], quantile, seed,
        )
        for key, value in items:
            result = vs.insert(key, value)
            assert (result.outcome, result.evicted_key) == model.insert(key, value)
            assert sketch_state(vs) == model.state()
            assert vs.tracked_keys() == list(model.resident)
            for floor, room, bucket in zip(vs._floors, vs._room, vs.buckets):
                if None not in bucket.cells:
                    assert floor <= min(c.vote_plus for c in bucket.cells)
                # The occupied cells are a prefix, and room counts the rest.
                assert bucket.cells == bucket.cells[: cells - room] + [None] * room
                assert None not in bucket.cells[: cells - room]


class TestResidentIndex:
    """The key index holds exactly the occupied cells, so lookups through it
    give what a scan of the key's bucket gives."""

    KEYS = 12

    @settings(max_examples=60, deadline=None)
    @given(
        route=st.lists(st.integers(0, 2), min_size=KEYS, max_size=KEYS),
        buckets=st.integers(1, 3),
        cells=st.integers(1, 3),
        ratio=st.sampled_from([1, 4]),
        items=st.lists(
            st.tuples(st.integers(0, KEYS - 1), st.floats(-1e6, 1e6, allow_nan=False)),
            max_size=200,
        ),
    )
    def test_index_matches_a_bucket_scan(self, route, buckets, cells, ratio, items):
        # At most 9 cells for 12 keys, so full buckets evict.
        vs = ValueSketch(
            buckets=buckets,
            cells_per_bucket=cells,
            eviction_ratio=ratio,
            hash_fn=route.__getitem__,
        )

        def scan():
            return {
                cell.key: cell
                for bucket in vs.buckets
                for cell in bucket.cells
                if cell is not None
            }

        # Two keys past the inserted range are never inserted.
        probes = range(self.KEYS + 2)
        for key, value in items:
            vs.insert(key, value)
            held = scan()
            assert vs._resident == held
            for probe in probes:
                if probe in held:
                    cell = held[probe]
                    assert vs.query(probe) == estimator_answer(cell.representative, cell.candidate, vs._calibrator.w)
                else:
                    with pytest.raises(KeyError, match="not tracked"):
                        vs.query(probe)
        # A resident key's insert is matched in its own cell; any other key's
        # is not, and the index still tracks whatever cells it takes.
        for probe in range(self.KEYS):
            held = scan()
            cell = held.get(probe)
            votes = None if cell is None else cell.vote_plus
            outcome = vs.insert(probe, 1.0).outcome
            assert (outcome is InsertOutcome.MATCHED) == (cell is not None)
            if cell is not None:
                assert cell.vote_plus == votes + 1
                assert scan() == held
            assert vs._resident == scan()


class TestKeys:
    """ValueSketch.insert follows the key rule of hashing.as_key."""

    def test_keys_outside_the_unsigned_64_bit_range_raise(self):
        vs = ValueSketch(buckets=64, cells_per_bucket=2, seed=1)
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            vs.insert(-1, 1.0)
        assert vs.insert((1 << 64) - 1, 1.0).outcome is InsertOutcome.PLACED
        assert vs.tracked_keys() == [(1 << 64) - 1]

    def test_float_key_raises_even_when_its_int_holds_a_cell(self):
        vs = ValueSketch(buckets=8, cells_per_bucket=2, seed=1)
        vs.insert(5, 1.0)
        cell = vs._resident[5]
        with pytest.raises(TypeError):
            vs.insert(5.0, 2.0)
        assert cell.vote_plus == 1
        assert cell.estimator.candidate == [1.0] and list(cell.estimator.representative) == []

    def test_bool_key_raises(self):
        vs = ValueSketch(buckets=8, cells_per_bucket=2, seed=1)
        for bad in (False, True):
            with pytest.raises(TypeError, match="bool"):
                vs.insert(bad, 2.0)
        assert vs.tracked_keys() == []

    def test_bool_and_non_real_values_are_refused(self):
        vs = ValueSketch(buckets=8, cells_per_bucket=2, seed=1)
        vs.insert(5, 1.0)
        cell = vs._resident[5]
        for key in (5, 6):
            for bad in (True, False, "1", None, 1j):
                with pytest.raises(TypeError, match="real"):
                    vs.insert(key, bad)
        assert vs.tracked_keys() == [5] and cell.vote_plus == 1
        assert cell.estimator.candidate == [1.0]

    def test_resident_numpy_key_is_matched(self):
        vs = ValueSketch(buckets=8, cells_per_bucket=2, seed=1)
        vs.insert(5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert vs.insert(np.uint64(5), 2.0).outcome is InsertOutcome.MATCHED
            assert vs.insert(np.int64(6), 3.0).outcome is InsertOutcome.PLACED
        assert vs.tracked_keys() == [5, 6] and all(type(k) is int for k in vs.tracked_keys())

    def test_query_keys_follow_the_insert_rule(self):
        vs = ValueSketch(buckets=8, cells_per_bucket=2, seed=1)
        vs.insert(1, 4.0)
        for bad in (1.0, True, False, "1"):
            with pytest.raises(TypeError):
                vs.query(bad)
        for bad in (-1, 1 << 64):
            with pytest.raises(ValueError, match="unsigned 64-bit"):
                vs.query(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert vs.query(np.int64(1)) == vs.query(1) == 4.0


class TestPlacement:
    def test_keys_live_in_their_hash_bucket(self):
        rng = random.Random(3)
        vs = ValueSketch(buckets=16, cells_per_bucket=3, eviction_ratio=2, seed=8)
        for _ in range(5_000):
            vs.insert(rng.randrange(200), rng.random())
        for index, bucket in enumerate(vs.buckets):
            for cell in bucket.cells:
                if cell is not None:
                    assert vs._admit(cell.key, 0) == index

    def test_keys_iterates_occupied_cells(self):
        vs = ValueSketch(buckets=8, cells_per_bucket=2, seed=1)
        for key in (5, 6, 7):
            vs.insert(key, 1.0)
        assert sorted(vs.tracked_keys()) == [5, 6, 7]
        assert len(vs.tracked_keys()) == 3

    def test_query_untracked_key(self):
        vs = ValueSketch(buckets=8, cells_per_bucket=2, seed=1)
        with pytest.raises(KeyError, match="not tracked"):
            vs.query(123)

    def test_validation(self):
        with pytest.raises(ValueError, match="bucket count"):
            ValueSketch(buckets=0, cells_per_bucket=2)
        with pytest.raises(ValueError, match="cells per bucket"):
            ValueSketch(buckets=2, cells_per_bucket=0)
        for bad in (float("nan"), 10**400):
            with pytest.raises(ValueError, match="finite"):
                ValueSketch(buckets=2, cells_per_bucket=2).insert(1, bad)

    def test_cell_estimators_use_distinct_streams(self):
        # Cells take disjoint slices of the sketch's one stream: the second
        # cell's calibration draws start where the first cell's stopped.
        vs = single_bucket(cells=2, quantile=0.9, seed=0)
        z1, z2, z3 = draws(Calibrator(0.9, seed=0), 3)
        assert z1 != z2  # so a replayed stream would show
        vs.insert(1, 1.0)
        vs.insert(2, 1.0)
        cells = vs.buckets[0].cells
        assert cells[0].estimator.candidate == [POS_INF] * (z1 - 1) + [1.0]
        assert cells[1].estimator.candidate == [POS_INF] * (z2 - 1) + [1.0]
        assert draws(vs._calibrator, 1) == [z3]

    def test_reclaimed_cell_gets_a_fresh_stream(self):
        vs = single_bucket(eviction_ratio=1, cells=1, quantile=0.9)
        held = 10
        zs = draws(Calibrator(0.9, seed=0), held + 2)
        # Key 2's first draw differs from the stream's first, so a replayed
        # stream would show.
        assert zs[0] != zs[held]
        for i in range(held):
            vs.insert(1, float(i))
        cell = vs.buckets[0].cells[0]
        assert cell.vote_plus == held and cell.estimator.representative
        outcomes = [vs.insert(2, 1.0).outcome for _ in range(held)]
        assert outcomes == [InsertOutcome.REJECTED] * (held - 1) + [InsertOutcome.EVICTED]
        cell = vs.buckets[0].cells[0]
        assert cell.key == 2 and cell.vote_plus == 1
        assert vs._resident == {2: cell}
        # Nothing of key 1 is left, and the draws continue the stream.
        estimator = cell.estimator
        assert list(estimator.representative) == []
        assert estimator.candidate == [POS_INF] * (zs[held] - 1) + [1.0]
        assert draws(vs._calibrator, 1) == [zs[held + 1]]

    @pytest.mark.parametrize("w", [0.5, 0.9])
    def test_every_cell_draws_from_the_sketch_calibrator(self, w):
        vs = ValueSketch(buckets=4, cells_per_bucket=2, eviction_ratio=1, quantile=w, seed=3)
        results = [vs.insert(i % 23, float(i)) for i in range(200)]
        # Eviction ratio 1 over 23 keys for 8 cells: cells are reclaimed too.
        assert len(vs.tracked_keys()) == 8
        assert sum(r.outcome is InsertOutcome.EVICTED for r in results) > 0
        # A cell holds no calibrator, and each push (every item not
        # rejected) took one draw from the sketch's, which stands just past them.
        assert not any(hasattr(cell, "_calibrator") for cell in vs._resident.values())
        assert vs._calibrator.w == w
        pushes = sum(r.outcome is not InsertOutcome.REJECTED for r in results)
        stream = draws(Calibrator(w, seed=3), pushes + 50)
        assert draws(vs._calibrator, 50) == stream[pushes:]


class TestEndToEnd:
    def test_interleaved_streams_estimate_medians(self):
        rng = random.Random(17)
        vs = ValueSketch(buckets=64, cells_per_bucket=7, eviction_ratio=4, seed=5)
        per_key: dict[int, list[float]] = {}
        pairs = [(key, rng.random()) for key in range(50) for _ in range(1000)]
        rng.shuffle(pairs)
        for key, value in pairs:
            vs.insert(key, value)
            per_key.setdefault(key, []).append(value)
        keys = sorted(vs.tracked_keys())
        assert len(keys) == 50  # capacity 448 cells, no evictions needed
        errors = [rank_error(sorted(per_key[k]), vs.query(k), 0.5)[1] for k in keys]
        assert sum(errors) / len(errors) <= 0.1

    def test_determinism_across_instances(self):
        rng = random.Random(23)
        pairs = [(rng.randrange(300), rng.random()) for _ in range(20_000)]
        a = ValueSketch(buckets=8, cells_per_bucket=4, eviction_ratio=2, seed=9)
        b = ValueSketch(buckets=8, cells_per_bucket=4, eviction_ratio=2, seed=9)
        for key, value in pairs:
            assert a.insert(key, value) == b.insert(key, value)
        assert sorted(a.tracked_keys()) == sorted(b.tracked_keys())
        for key in a.tracked_keys():
            assert a.query(key) == b.query(key)


class TestSingleKeyBias:
    """Mean signed rank error (rank - w) of one key at high w.

    One-cell ValueSketch, r = 16, s = 10, n = 5,000 Uniform(0, 1) values,
    200 fixed seeds (values child_seed(2026, i), sketch child_seed(2027, i)).
    Readings when the test was written: -0.0057 (se 0.0028) at w = 0.9 and
    -0.0199 (se 0.0022) at w = 0.99. Bounds: |mean| <= 0.015 at w = 0.9, and
    mean >= -0.03 at w = 0.99. The w = 0.99 bias is not yet explained (see
    the README's note on single-key bias): the bound records it, and a fix
    would tighten it.
    """

    @pytest.mark.parametrize("w, lo, hi", [(0.9, -0.015, 0.015), (0.99, -0.03, POS_INF)])
    def test_mean_signed_rank_error(self, w, lo, hi):
        errors = []
        for i in range(200):
            values = np.random.default_rng(child_seed(2026, i)).random(5_000).tolist()
            vs = ValueSketch(
                1, 1, candidate_capacity=16, representative_capacity=10, quantile=w, seed=child_seed(2027, i)
            )
            for value in values:
                vs.insert(1, value)
            errors.append(rank_error(sorted(values), vs.query(1), w)[0] - w)
        assert lo <= float(np.mean(errors)) <= hi


class TestCollisionModel:
    def test_overflow_rate_matches_closed_form(self):
        # Fraction of buckets receiving more than d of H hashed keys, against
        # the Poisson tail model with rate H/u.
        trials = 100
        total = 0.0
        for t in range(trials):
            vs = ValueSketch(buckets=500, cells_per_bucket=4, seed=t)
            loads = [0] * 500
            for key in range(1000):
                loads[vs._admit(key + t * 1000, 0)] += 1
            total += sum(1 for load in loads if load > 4) / 500
        predicted = collision_probability(1000, 500, 4)
        assert total / trials == pytest.approx(predicted, abs=0.01)

    def test_composed_sketch_overflow_rate_through_the_quotient(self):
        # The composed sketch takes an admitted key's bucket from the tower
        # hash's quotient. At T = 0 admit opens for every key, changes nothing
        # and returns the quotient's digit, so its loads must follow the same model.
        # At 548,889 bytes with d = 4 the plan buys exactly 500 buckets.
        trials = 100
        total = 0.0
        for t in range(trials):
            params = SketchParams(total_memory_bytes=548_889, gate_threshold=0, cells_per_bucket=4, seed=t)
            sk = PerKeyQuantileSketch(params)
            assert sk.plan.buckets == 500 and sk.tower._step[-2:] == (500, None)
            loads = [0] * 500
            for key in range(1000):
                loads[sk.tower.admit(key + t * 1000, 0)] += 1
            total += sum(1 for load in loads if load > 4) / 500
            # Inserting the keys fills exactly the cells those loads predict.
            placed = sum(
                sk.insert(key + t * 1000, 1.0).outcome is InsertOutcome.PLACED for key in range(1000)
            )
            assert placed == sum(min(load, 4) for load in loads)
        predicted = collision_probability(1000, 500, 4)
        assert total / trials == pytest.approx(predicted, abs=0.01)
