"""Tests for the two-buffer point estimator."""
from __future__ import annotations

import math
import numbers
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsketch import NEG_INF, POS_INF, Calibrator, PointEstimator, rank_toward

from models import draws


class CountingValue:
    """Float stand-in that tallies every comparison made against it."""

    __slots__ = ("x",)
    comparisons = 0

    def __init__(self, x: float) -> None:
        self.x = x

    def __lt__(self, other: "CountingValue") -> bool:
        CountingValue.comparisons += 1
        return self.x < other.x

    def __gt__(self, other: "CountingValue") -> bool:
        CountingValue.comparisons += 1
        return self.x > other.x

    def __le__(self, other: "CountingValue") -> bool:
        CountingValue.comparisons += 1
        return self.x <= other.x

    def __ge__(self, other: "CountingValue") -> bool:
        CountingValue.comparisons += 1
        return self.x >= other.x

    def __eq__(self, other: object) -> bool:
        CountingValue.comparisons += 1
        return isinstance(other, CountingValue) and self.x == other.x

    def __hash__(self) -> int:
        return hash(self.x)

    def __float__(self) -> float:
        return self.x


# Inserted values must be real numbers; the stand-in is one for check_value.
numbers.Real.register(CountingValue)


class TestValidation:
    def test_capacities_must_be_positive_even(self):
        for bad in (0, -2, 3, 15, 2.0):
            with pytest.raises(ValueError, match="even"):
                PointEstimator(candidate_capacity=bad)
            with pytest.raises(ValueError, match="even"):
                PointEstimator(representative_capacity=bad)

    def test_rejects_non_finite_inserts(self):
        e = PointEstimator()
        for bad in (POS_INF, NEG_INF, float("nan"), 10**400):
            with pytest.raises(ValueError, match="finite"):
                e.insert(bad)

    def test_rejects_bools_and_non_reals(self):
        e = PointEstimator(calibrator=Calibrator(0.9, seed=2))
        for bad in (False, True, "1", None, 1j):
            with pytest.raises(TypeError):
                e.insert(bad)
        for bad in (float("nan"), POS_INF):
            with pytest.raises(ValueError, match="finite"):
                e.insert(bad)
        assert e.candidate == [] and e.representative == []
        # Checked before the draw: a rejected value takes no Z.
        assert draws(e._calibrator, 50) == draws(Calibrator(0.9, seed=2), 50)
        e.insert(3)
        assert e.query() == 3

    def test_query_before_data(self):
        with pytest.raises(ValueError, match="insufficient data"):
            PointEstimator().query()


class TestBufferMechanics:
    def test_insert_below_capacity_buffers_only(self):
        # Candidate {56, 109} plus 7 stays put; representative untouched.
        e = PointEstimator(candidate_capacity=4, representative_capacity=4)
        e.candidate.extend([56, 109])
        e.representative.extend([18, 109])
        e.insert(7)
        assert e.candidate == [56, 109, 7]
        assert e.representative == [18, 109]

    def test_flush_moves_two_medians(self):
        # Filling {42, 197, 133} with 11 sorts to [11, 42, 133, 197]; the
        # middle pair {42, 133} moves over and the batch is discarded.
        e = PointEstimator(candidate_capacity=4, representative_capacity=4)
        e.candidate.extend([42, 197, 133])
        e.representative.extend([18, 109])
        e.insert(11)
        assert e.candidate == []
        assert e.representative == [18, 109, 42, 133]

    def test_overflow_evicts_global_min_and_max(self):
        # Flush of {8, 56, 204} + 35 contributes medians {35, 56}; the six
        # values {42, 103, 18, 109, 35, 56} shed their extremes 18 and 109.
        e = PointEstimator(candidate_capacity=4, representative_capacity=4)
        e.candidate.extend([8, 56, 204])
        e.representative.extend([42, 103, 18, 109])
        e.insert(35)
        assert e.candidate == []
        assert sorted(e.representative) == [35, 42, 56, 103]

    def test_candidate_never_reaches_capacity_at_rest(self):
        e = PointEstimator(candidate_capacity=4, representative_capacity=2)
        for i in range(100):
            e.insert(i)
            assert len(e.candidate) < 4
            assert len(e.representative) <= 2

    @given(batch=st.lists(st.integers(-1000, 1000), min_size=8, max_size=8))
    def test_flush_keeps_exactly_the_middle_pair(self, batch):
        e = PointEstimator(candidate_capacity=8, representative_capacity=10)
        e.extend(batch)
        ordered = sorted(batch)
        assert e.candidate == []
        assert e.representative == [ordered[3], ordered[4]]

    @given(
        pre=st.lists(st.integers(-100, 100), min_size=4, max_size=4),
        batch=st.lists(st.integers(-100, 100), min_size=4, max_size=4),
    )
    def test_eviction_drops_extremes_of_union(self, pre, batch):
        e = PointEstimator(candidate_capacity=4, representative_capacity=4)
        e.representative.extend(pre)
        e.candidate.extend(batch[:3])
        e.insert(batch[3])
        ordered = sorted(batch)
        union = sorted(pre + ordered[1:3])
        assert sorted(e.representative) == union[1:-1]

    @settings(max_examples=60)
    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300),
        r=st.sampled_from([2, 4, 8, 16]),
        s=st.sampled_from([2, 4, 10]),
    )
    def test_capacity_invariants_hold_throughout(self, values, r, s):
        e = PointEstimator(candidate_capacity=r, representative_capacity=s)
        for v in values:
            e.insert(v)
            assert len(e.candidate) < r
            assert len(e.representative) <= s
        assert e.query() in set(values)


class TestQuery:
    def test_short_stream_answers_from_candidate(self):
        e = PointEstimator(candidate_capacity=16, representative_capacity=10)
        e.extend([3.0, 1.0, 2.0])
        assert e.query() == 2.0

    def test_lower_median_of_representative(self):
        e = PointEstimator(candidate_capacity=4, representative_capacity=4)
        e.representative.extend([10, 40, 20, 30])
        assert e.query() == 20

    def test_sentinel_median_scans_toward_finite(self):
        e = PointEstimator(candidate_capacity=4, representative_capacity=4)
        e.representative.extend([NEG_INF, NEG_INF, 5.0, POS_INF])
        assert e.query() == 5.0
        e.representative[:] = [NEG_INF, 3.0, POS_INF, POS_INF]
        assert e.query() == 3.0

    def test_all_sentinel_representative_falls_back_to_candidate(self):
        e = PointEstimator(candidate_capacity=4, representative_capacity=4)
        e.representative.extend([NEG_INF, NEG_INF, NEG_INF, POS_INF])
        e.candidate.append(7.0)
        assert e.query() == 7.0

    def test_candidate_answers_its_w_quantile(self):
        # With no finite value in the representative, the n finite candidates
        # answer at sorted index ceil(w (n - 1) - 1/2): half rounds down, so
        # w = 0.75 over three values takes index 1 (round() would take 2).
        for w, expected in ((0.5, 2.0), (0.75, 2.0), (0.9, 3.0), (0.99, 3.0), (0.1, 1.0)):
            e = PointEstimator(8, 4, Calibrator(w, seed=1))
            e.representative.extend([POS_INF, POS_INF])
            e.candidate.extend([3.0, POS_INF, 1.0, 2.0])
            assert e.query() == expected, w

    def test_degenerate_when_only_sentinels_survive(self):
        e = PointEstimator(candidate_capacity=4, representative_capacity=4)
        e.representative.extend([POS_INF, POS_INF])
        with pytest.raises(ValueError, match="degenerate estimate"):
            e.query()

    def test_median_estimate_lands_mid_distribution(self):
        values = list(range(1, 1001))
        random.Random(77).shuffle(values)
        e = PointEstimator(candidate_capacity=4, representative_capacity=4)
        e.extend(values)
        rank = rank_toward(sorted(values), e.query(), 0.5)
        assert 0.3 <= rank <= 0.7


class TestCalibratedQueries:
    def test_high_quantile_estimate(self):
        e = PointEstimator(16, 10, Calibrator(0.9, seed=4))
        rng = random.Random(13)
        values = [rng.random() for _ in range(20_000)]
        e.extend(values)
        assert abs(rank_toward(sorted(values), e.query(), 0.9) - 0.9) <= 0.1

    def test_low_quantile_estimate(self):
        e = PointEstimator(16, 10, Calibrator(0.1, seed=4))
        rng = random.Random(29)
        values = [rng.random() for _ in range(20_000)]
        e.extend(values)
        assert abs(rank_toward(sorted(values), e.query(), 0.1) - 0.1) <= 0.1

    @settings(max_examples=30, deadline=None)
    @given(
        w=st.sampled_from([0.1, 0.25, 0.75, 0.9]),
        seed=st.integers(0, 1000),
        values=st.lists(st.floats(-100, 100), min_size=1, max_size=200),
    )
    def test_calibrated_query_returns_an_inserted_value(self, w, seed, values):
        e = PointEstimator(4, 4, Calibrator(w, seed=seed))
        e.extend(values)
        assert e.query() in set(values)

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.sampled_from([0.01, 0.1, 0.9, 0.99]),
        r=st.sampled_from([2, 4, 16]),
        s=st.sampled_from([2, 4, 16]),
        seed=st.integers(0, 2**32),
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300),
    )
    def test_every_prefix_answers_with_an_inserted_value(self, w, r, s, seed, values):
        # Sentinel runs can flush whole batches of sentinels and squeeze the
        # last finite value out of the representative; a flush then keeps the
        # batch's finite value nearest the middle, so no insert leaves the
        # estimator unable to answer.
        e = PointEstimator(r, s, Calibrator(w, seed=seed))
        seen = set()
        for v in values:
            e.insert(v)
            seen.add(v)
            assert e.query() in seen

    def test_flush_keeps_a_finite_value_when_the_batch_has_one(self):
        # Representative of +inf only; the batch's middle pair is (3.0, +inf),
        # so min/max eviction alone would drop 3.0, the batch's largest finite.
        e = PointEstimator(4, 2, Calibrator(0.99, seed=0))
        e.representative.extend([POS_INF, POS_INF])
        e.candidate.extend([1.0, 3.0, POS_INF, POS_INF])
        e._flush()
        assert sorted(e.representative) == [3.0, POS_INF]
        assert e.candidate == []
        e = PointEstimator(4, 2, Calibrator(0.01, seed=0))
        e.representative.extend([NEG_INF, NEG_INF])
        e.candidate.extend([NEG_INF, NEG_INF, NEG_INF, 2.0])
        e._flush()
        assert sorted(e.representative) == [NEG_INF, 2.0]

    def test_identical_seeds_give_identical_state(self):
        rng = random.Random(3)
        values = [rng.gauss(0, 1) for _ in range(5000)]
        a = PointEstimator(16, 10, Calibrator(0.8, seed=21))
        b = PointEstimator(16, 10, Calibrator(0.8, seed=21))
        a.extend(values)
        b.extend(values)
        assert a.candidate == b.candidate
        assert a.representative == b.representative
        assert a.query() == b.query()


class TestComparisonBudget:
    def test_amortized_comparisons_stay_bounded(self):
        # Sorting r values costs O(r log r) but the flush happens once per r
        # inserts; with r = 16, s = 10 the amortized bill stays in single
        # digits. 8 * (r + s) / r = 13 is a loose ceiling.
        rng = random.Random(5)
        values = [CountingValue(rng.random()) for _ in range(100_000)]
        e = PointEstimator(candidate_capacity=16, representative_capacity=10)
        CountingValue.comparisons = 0
        for v in values:
            e.insert(v)
        per_insert = CountingValue.comparisons / len(values)
        assert per_insert <= 13.0
