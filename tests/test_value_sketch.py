"""Tests for the bucketed key table and its vote-based eviction.

The table's key and value rules, written once in ``models.KeyRules``, run on
two builds: the standalone ``ValueSketch``, whose gate is always open, in
``TestKeys`` here, and the composed ``PerKeyQuantileSketch``, the same table
behind its tower, in test_sketch.py's ``TestKeys``. The determinism case runs
on both builds here. ``TestVoteFloor`` replays the standalone table against
``ScanningModel``, as test_sketch.py's ``TestResidentFirst`` does the composed one;
the vote, representative, key-index and calibrator cases drive the same
``models.replay`` over their own streams.
"""
from __future__ import annotations

import random
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
from pqsketch.hashing import child_seed, hash_key
from pqsketch.value_sketch import Bucket, Cell, as_ratio

from models import KeyRules, ScanningModel, draws, replay, runs


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
        # The model's resident map is the shadow of the votes; replay checks
        # the table's against it after each of 2,000 items over 30 keys.
        rng = random.Random(seed)
        items = [(rng.randrange(30), rng.random()) for _ in range(2_000)]
        vs = ValueSketch(buckets=4, cells_per_bucket=2, eviction_ratio=1, seed=seed)
        model = ScanningModel(4, 2, 1, lambda key: hash_key(key, seed), 16, 10, 0.5, seed)
        replay(vs, model, items, ())

    def test_victim_is_lowest_index_weakest(self):
        vs = single_bucket(eviction_ratio=1, cells=3)
        for key in (1, 2, 3):
            vs.insert(key, 1.0)
        vs.insert(2, 1.0)  # votes now [1, 2, 1]; index 0 is the first minimum
        result = vs.insert(9, 1.0)
        assert result.outcome is InsertOutcome.EVICTED
        assert result.evicted_key == 1


class TestSortedRepresentative:
    """A cell keeps its representative sorted; PointEstimator, which keeps
    append order, is its reference."""

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.sampled_from([0.1, 0.5, 0.9, 0.99]),
        r=st.sampled_from([2, 4, 6]),
        s=st.sampled_from([2, 4, 6]),
        seed=st.integers(0, 3),
        # A small pool repeats values and holds both zeros. At r = 2 most
        # flushes take a pair with a sentinel in it, so both sentinel repairs
        # occur, at w = 0.1 and at w = 0.9 and 0.99.
        values=st.lists(
            st.sampled_from([-0.0, 0.0, 1.0, -2.5, 7.0]) | st.floats(-1e6, 1e6, allow_nan=False),
            max_size=150,
        ),
    )
    def test_cell_agrees_with_a_point_estimator(self, w, r, s, seed, values):
        # One cell in one bucket: key 1 is placed once and matched after, and
        # replay compares the cell with the model's PointEstimator each time.
        vs = ValueSketch(1, 1, candidate_capacity=r, representative_capacity=s, quantile=w, seed=seed)
        model = ScanningModel(1, 1, 4, lambda key: 0, r, s, w, seed)
        replay(vs, model, [(1, value) for value in values], [1])

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
    """A full bucket's vote floor only skips scans: the table agrees step for
    step, by ``models.replay``, with a model that scans every time, never
    reuses a cell and keeps each representative in append order."""

    KEYS = 12

    # Runs of one key against at most 9 cells for 12 keys: matched, placed,
    # rejected and evicted items all occur, and residents build up votes, so
    # scans raise floors above 1 before evictions. At r = 2 most flushes take
    # a pair with a sentinel in it, so both sentinel repairs occur.
    @settings(max_examples=150, deadline=None)
    @given(
        route=st.lists(st.integers(0, 2), min_size=KEYS, max_size=KEYS),
        buckets=st.integers(1, 3),
        cells=st.integers(1, 3),
        ratio=st.sampled_from([1, 2, 4, Fraction(1, 2), Fraction(5, 2), "0.1"]),
        w=st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.99, 1.0]),
        r=st.sampled_from([2, 4, 6]),
        s=st.sampled_from([2, 4, 6]),
        seed=st.integers(0, 3),
        items=runs(KEYS),
    )
    def test_agrees_with_a_scanning_model(self, route, buckets, cells, ratio, w, r, s, seed, items):
        vs = ValueSketch(buckets, cells, ratio, r, s, w, seed, hash_fn=route.__getitem__)
        model = ScanningModel(buckets, cells, ratio, route.__getitem__, r, s, w, seed)
        # Last, one item of each key: matched exactly when the key holds a cell.
        # Two keys past the inserted range are never inserted.
        replay(vs, model, items + [(key, 1.0) for key in range(self.KEYS)], range(self.KEYS + 2))

    @pytest.mark.parametrize("w", [0.5, 0.9])
    @pytest.mark.parametrize("ratio", [1, 2, 4, pytest.param(Fraction(1, 2), id="1/2")])
    def test_long_streams_agree_with_a_scanning_model(self, ratio, w):
        # 2,000 items over 30 keys for 8 cells, placed by the seeded bucket hash.
        rng = random.Random(11)
        items = [(rng.randrange(30), rng.random()) for _ in range(2_000)]
        vs = ValueSketch(4, 2, eviction_ratio=ratio, quantile=w, seed=3)
        model = ScanningModel(4, 2, ratio, lambda key: hash_key(key, 3), 16, 10, w, 3)
        results = replay(vs, model, items, range(32))
        # Every outcome occurs and every cell ends up held; no cell holds a calibrator.
        assert {result.outcome for result in results} == set(InsertOutcome)
        assert len(vs.tracked_keys()) == 8
        assert not any(hasattr(cell, "_calibrator") for cell in vs._resident.values())


class TestResidentIndex:
    """The key index holds exactly the occupied cells, so lookups through it
    give what a scan of the key's bucket gives: ``replay`` checks both."""

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
        # At most 9 cells for 12 keys, so full buckets evict. Keys come in any
        # order, not in runs. Last, one item of each key is matched exactly
        # when the key holds a cell; two keys past the range are never inserted.
        vs = ValueSketch(buckets=buckets, cells_per_bucket=cells, eviction_ratio=ratio, hash_fn=route.__getitem__)
        model = ScanningModel(buckets, cells, ratio, route.__getitem__, 16, 10, 0.5, 0)
        replay(vs, model, items + [(key, 1.0) for key in range(self.KEYS)], range(self.KEYS + 2))


class TestKeys(KeyRules):
    """The key table's rules on a standalone ValueSketch, whose gate is always open."""

    def build(self, quantile=0.5):
        return ValueSketch(8, 2, quantile=quantile, seed=1)


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

    def test_validation(self):
        with pytest.raises(ValueError, match="bucket count"):
            ValueSketch(buckets=0, cells_per_bucket=2)
        with pytest.raises(ValueError, match="cells per bucket"):
            ValueSketch(buckets=2, cells_per_bucket=0)

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

    @pytest.mark.parametrize("w", [0.5, 0.9])
    def test_every_cell_draws_from_the_sketch_calibrator(self, w):
        vs = ValueSketch(buckets=4, cells_per_bucket=2, eviction_ratio=1, quantile=w, seed=3)
        model = ScanningModel(4, 2, 1, lambda key: hash_key(key, 3), 16, 10, w, 3)
        # replay ends by checking that the table's calibrator and the model's,
        # which every estimator draws from, go on alike.
        results = replay(vs, model, [(i % 23, float(i)) for i in range(200)], range(24))
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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ValueSketch(buckets=8, cells_per_bucket=4, eviction_ratio=2, seed=9),
            lambda: PerKeyQuantileSketch(SketchParams(total_memory_bytes=60_000, gate_threshold=3, seed=11)),
        ],
        ids=["standalone", "composed"],
    )
    def test_determinism_across_instances(self, build):
        rng = random.Random(23)
        pairs = [(rng.randrange(500), rng.random()) for _ in range(20_000)]
        a, b = build(), build()
        outcomes = set()
        for key, value in pairs:
            result = a.insert(key, value)
            assert result == b.insert(key, value)
            outcomes.add(result and result.outcome)
        # Every outcome replays, and so do gated items (None) behind a tower.
        assert outcomes - {None} == set(InsertOutcome)
        assert (None in outcomes) == isinstance(a, PerKeyQuantileSketch)
        assert a.tracked_keys() == b.tracked_keys()
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
